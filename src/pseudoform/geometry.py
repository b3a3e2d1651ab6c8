"""Adapted frames for a Pfaffian and the induced surface-like geometry.

Frame convention: the frame matrix has the two tangent legs e1, e2 as
its first two columns and the unit normal e3 (the metric dual of the
unit Pfaffian) last; the inverse matrix holds the coframe rows, so row 3
is the unit Pfaffian itself.

Connection convention: omega[i, j, k] is the e_i-component of the
directional derivative of e_j along e_k, i.e. omega = (d X) X^{-1} in
the "X-dot X-inverse" ordering.  The second fundamental form that this
produces is internally consistent with the symmetrized differential of
the unit normal; for the rotating-frame case study the off-diagonal
entry comes out +phi_dot/2 under this convention.

Frames are completed Euclideanly on the chart regardless of the active
metric signature (the degenerate/indefinite metrics enter only the
first fundamental form and index raising); a degenerate metric is
rejected when asked to normalize a Pfaffian with a time component.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .calculus import OneForm, ScalarField, as_point, gradient_oneform
from .errors import (
    DegenerateMetricError,
    DegenerateNormalizationError,
    DegeneratePfaffianError,
    FramePfaffianMismatchError,
    FrameSingularityError,
)

LIGHT_SPEED = 299792458.0


class MetricKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    GALILEAN = "galilean"
    MINKOWSKI = "minkowski"


@dataclass(frozen=True)
class MetricSignature:
    """Metric selector: Euclidean, degenerate Galilean, or Minkowski.

    On the space-time chart the first coordinate is time; the Minkowski
    matrix is diag(c^2, -1, -1) in (t, x, y) coordinates and its
    dimensionless c-normalized form is diag(+1, -1, -1).
    """

    kind: MetricKind
    light_speed: float = LIGHT_SPEED

    @property
    def matrix(self):
        if self.kind is MetricKind.EUCLIDEAN:
            return np.eye(3)
        if self.kind is MetricKind.GALILEAN:
            return np.diag([0.0, 1.0, 1.0])
        return np.diag([self.light_speed**2, -1.0, -1.0])

    @property
    def normalized_matrix(self):
        """The matrix used for index raising (Minkowski with c = 1)."""
        if self.kind is MetricKind.MINKOWSKI:
            return np.diag([1.0, -1.0, -1.0])
        return self.matrix

    @property
    def degenerate(self):
        return self.kind is MetricKind.GALILEAN

    @property
    def indefinite(self):
        return self.kind is MetricKind.MINKOWSKI


EUCLIDEAN = MetricSignature(MetricKind.EUCLIDEAN)
GALILEAN = MetricSignature(MetricKind.GALILEAN)
MINKOWSKI = MetricSignature(MetricKind.MINKOWSKI)


class AdaptedFrame:
    """Invertible matrix-valued frame field adapted to a unit Pfaffian.

    ``pair_fn(p, need_derivative)`` returns (X, dX) with X[m, j] the
    chart components of e_j and dX[n, m, j] = d_n X[m, j] (dX is None
    when not requested).
    """

    def __init__(self, pair_fn, pfaffian, metric, chart="spatial", orthonormal=True):
        self.pair_fn = pair_fn
        self.pfaffian = pfaffian
        self.metric = metric
        self.chart = chart
        self.orthonormal = orthonormal

    def matrix_at(self, p):
        return self.pair_fn(as_point(p), False)[0]

    def matrix_and_derivative(self, p):
        """Frame matrix X[m, j] and its derivatives dX[n, m, j] at p."""
        return self.pair_fn(as_point(p), True)

    def inverse_at(self, p):
        x = self.matrix_at(p)
        if abs(np.linalg.det(x)) < 1e-12:
            raise FrameSingularityError(f"frame matrix singular at point {tuple(p)}")
        return np.linalg.inv(x)


def adapt_frame(pfaffian, metric=EUCLIDEAN):
    """Build the deterministic adapted frame for a Pfaffian N.

    The normal column is N normalized on the chart; the tangent pair is
    completed by Gram-Schmidt from a canonical seed axis: the axis with
    the smallest normal component (ties to the lowest index) on spatial
    charts, and the time axis on the space-time chart whenever the
    normal stays clear of it.  The seed index is treated as locally
    constant, so frame derivatives are valid away from seed-switching
    loci.
    """
    chart = getattr(pfaffian, "chart", "spatial")

    def pair_fn(p, need_derivative):
        if need_derivative:
            comps, jac = pfaffian.values_and_jacobian(p)
        else:
            comps = pfaffian.components_at(p)
            jac = None
        norm = np.linalg.norm(comps)
        if norm <= 1e-12:
            raise DegeneratePfaffianError(f"Pfaffian vanishes at point {tuple(p)}")
        if metric.degenerate and chart == "spacetime" and abs(comps[0]) > 1e-9 * norm:
            raise DegenerateNormalizationError(
                "Galilean metric cannot normalize a Pfaffian with a time component"
            )
        u = comps / norm  # e3
        unit_vals = np.abs(u)
        if chart == "spacetime" and unit_vals[0] < 0.9:
            k = 0
        else:
            k = int(np.argmin(unit_vals))
        seed = np.zeros(3)
        seed[k] = 1.0
        e1_raw = seed - u[k] * u
        m = np.linalg.norm(e1_raw)
        e1 = e1_raw / m
        e2 = np.cross(u, e1)
        x = np.column_stack([e1, e2, u])
        if not need_derivative:
            return x, None
        # du[i, j] = d_i u_j  (chain rule through the normalization)
        dnorm = jac @ comps / norm
        du = jac / norm - np.outer(dnorm, comps) / norm**2
        de1_raw = -np.outer(du[:, k], u) - u[k] * du
        dm = de1_raw @ e1_raw / m
        de1 = de1_raw / m - np.outer(dm, e1_raw) / m**2
        de2 = np.cross(du, e1[None, :]) + np.cross(u[None, :], de1)
        dx = np.stack([de1, de2, du], axis=2)
        return x, dx

    return AdaptedFrame(pair_fn, pfaffian, metric, chart=chart)


def connection_form(frame, p):
    """Teleparallelism connection components omega[i, j, k] at p.

    omega[i, j, k] = (e_k x^m_j) xtilde^i_m; for metric-orthonormal
    frames omega[i, j, :] = -omega[j, i, :].
    """
    x, dx = frame.matrix_and_derivative(p)
    return connection_from_frame(x, dx, as_point(p))


def connection_from_frame(x, dx, p):
    """``connection_form`` from a frame matrix X and derivatives dX already evaluated at p."""
    if abs(np.linalg.det(x)) < 1e-12:
        raise FrameSingularityError(f"frame matrix singular at point {tuple(p)}")
    return np.einsum("nk,nmj,im->ijk", x, dx, np.linalg.inv(x))


def structure_functions(frame, p):
    """Commutator coefficients of the tangent legs at p.

    Returns (c_tangent[c, a, b], c_normal[a, b]); the normal part
    vanishes for all a, b iff the plane field is involutive at p.
    """
    x, dx = frame.matrix_and_derivative(p)
    xinv = np.linalg.inv(x)
    # bracket[i, a, b] = e_a x^i_b - e_b x^i_a
    directional = np.einsum("na,nib->iab", x, dx)
    bracket = directional - directional.transpose(0, 2, 1)
    c_full = np.einsum("ci,iab->cab", xinv, bracket)
    return c_full[:2, :2, :2], c_full[2, :2, :2]


@dataclass(frozen=True)
class FundamentalForms:
    g: np.ndarray
    h: np.ndarray
    point: np.ndarray
    metric: MetricSignature


@dataclass(frozen=True)
class CurvatureReport:
    kappa1: complex
    kappa2: complex
    gaussian: complex
    mean: complex
    degenerate: bool = False


def _unit_normal_components(source, p):
    if isinstance(source, OneForm):
        comps = source.components_at(p)
    elif isinstance(source, ScalarField):
        comps = source.gradient(p)
    else:
        raise TypeError("source must be a OneForm (pfaffian) or ScalarField (level set)")
    norm = np.linalg.norm(comps)
    if norm <= 1e-12:
        raise DegeneratePfaffianError(f"normal direction vanishes at point {tuple(p)}")
    return comps / norm


def fundamental_forms(source, frame, metric, p):
    """First and second fundamental forms at p.

    ``source`` is either the Pfaffian one-form N (pseudo-surface route:
    H = minus the pulled-back symmetrized differential of the unit N) or
    a level-set scalar f (surface route: H from the Hessian of f).
    """
    p = as_point(p)
    x = frame.matrix_at(p)
    tangent = x[:, :2]
    unit = _unit_normal_components(source, p)
    theta3 = np.linalg.inv(x)[2]
    if np.max(np.abs(theta3 - unit)) > 1e-9:
        raise FramePfaffianMismatchError(
            "frame normal coframe leg differs from the given Pfaffian "
            f"at point {tuple(p)} (max deviation "
            f"{np.max(np.abs(theta3 - unit)):.3e})"
        )
    g = tangent.T @ metric.matrix @ tangent
    g = 0.5 * (g + g.T)
    if isinstance(source, ScalarField):
        _, grad, hess = source.differentiate(p)
        h = -(tangent.T @ hess @ tangent) / np.linalg.norm(grad)
    else:
        comps = source.components_at(p)
        jac = source.jacobian_at(p)  # jac[i, j] = d_i N_j
        norm = np.linalg.norm(comps)
        dnorm = jac @ comps / norm  # d_i |N|
        jac_unit = jac / norm - np.outer(dnorm, comps) / norm**2
        sym = 0.5 * (jac_unit + jac_unit.T)
        h = -(tangent.T @ sym @ tangent)
    h = 0.5 * (h + h.T)
    return FundamentalForms(g, h, p, metric)


def second_form_via_frame(frame, p):
    """H_ab from frame derivatives: N_i e_(a x^i_b) (symmetrized)."""
    x, dx = frame.matrix_and_derivative(p)
    unit = np.linalg.inv(x)[2]
    # directional[a, i, b] = e_a x^i_b
    directional = np.einsum("na,nib->aib", x[:, :2], dx[:, :, :2])
    h = 0.5 * np.einsum("i,aib->ab", unit, directional + directional.transpose(2, 1, 0))
    return 0.5 * (h + h.T)


def second_form_via_connection(frame, p):
    """H_ab as the symmetrized normal connection components omega^3_(ab)."""
    omega = connection_form(frame, p)
    h = 0.5 * (omega[2, :2, :2] + omega[2, :2, :2].T)
    return h


def shape_and_curvatures(ff):
    """Raise an index with g and report principal/Gaussian/mean curvature.

    Eigenvalues are first-class complex outputs (an indefinite raise can
    make them imaginary); a degenerate g is an error since g^ab does not
    exist.
    """
    det_g = np.linalg.det(ff.g)
    if abs(det_g) < 1e-12:
        raise DegenerateMetricError(
            "first fundamental form is degenerate: g^ab does not exist, "
            "so no index can be raised"
        )
    mixed = np.linalg.solve(ff.g, ff.h)
    eigs = np.linalg.eigvals(mixed.astype(complex))
    order = np.lexsort((eigs.imag, eigs.real))[::-1]
    eigs = eigs[order]
    gaussian = _realify(np.linalg.det(mixed.astype(complex)))
    mean = _realify(0.5 * np.trace(mixed.astype(complex)))
    return CurvatureReport(complex(eigs[0]), complex(eigs[1]), gaussian, mean)


def _realify(z, tol=1e-12):
    scale = max(1.0, abs(z))
    if abs(z.imag) <= tol * scale:
        return float(z.real)
    return complex(z)


class PseudoSurface:
    """A unit Pfaffian together with its adapted frame and metric."""

    def __init__(self, pfaffian, frame, metric, levelset=None):
        self.pfaffian = pfaffian
        self.frame = frame
        self.metric = metric
        self.levelset = levelset

    @classmethod
    def from_pfaffian(cls, pfaffian, metric=EUCLIDEAN):
        return cls(pfaffian, adapt_frame(pfaffian, metric), metric)

    @classmethod
    def from_levelset(cls, f, metric=EUCLIDEAN):
        pfaffian = gradient_oneform(f)
        return cls(pfaffian, adapt_frame(pfaffian, metric), metric, levelset=f)

    def fundamental_forms(self, p):
        source = self.levelset if self.levelset is not None else self.pfaffian
        return fundamental_forms(source, self.frame, self.metric, p)

    def connection(self, p):
        return connection_form(self.frame, p)

    def structure_functions(self, p):
        return structure_functions(self.frame, p)

    def curvature_report(self, p):
        return shape_and_curvatures(self.fundamental_forms(p))
