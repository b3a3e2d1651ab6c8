"""Adapted frames for a Pfaffian and the induced surface-like geometry.

Frame convention: the frame matrix has the two tangent legs e1, e2 as
its first two columns and the unit normal e3 (the metric dual of the
unit Pfaffian) last.  The frame is orthonormal on the chart, so its
inverse is its transpose: the coframe rows are the frame columns, and
row 3 is the unit Pfaffian itself.

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
import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    OneForm, ScalarField, as_point, format_point, gradient_oneform, pfaffian_norm, point_coords,
)
from .errors import DegenerateMetricError, DegenerateNormalizationError, FramePfaffianMismatchError

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


EUCLIDEAN = MetricSignature(MetricKind.EUCLIDEAN)
GALILEAN = MetricSignature(MetricKind.GALILEAN)
MINKOWSKI = MetricSignature(MetricKind.MINKOWSKI)


class AdaptedFrame:
    """Orthonormal matrix-valued frame field adapted to a unit Pfaffian.

    ``pair_fn(p, need_derivative)`` returns (X, dX) with X[m, j] the
    chart components of e_j and dX[n, m, j] = d_n X[m, j] (dX is None
    when not requested).
    """

    def __init__(self, pair_fn, pfaffian, metric):
        self.pair_fn = pair_fn
        self.pfaffian = pfaffian
        self.metric = metric

    def matrix_at(self, p):
        return self.pair_fn(point_coords(p), False)[0]

    def matrix_and_derivative(self, p):
        """Frame matrix X[m, j] and its derivatives dX[n, m, j] at p."""
        return self.pair_fn(point_coords(p), True)

    def inverse_at(self, p):
        """The coframe X^{-1}, which is X^T because the frame is orthonormal."""
        return self.matrix_at(p).T


def unit_normal(pfaffian, metric, p):
    """Unit normal u = N / |N| of a Pfaffian N at p and du[i][j] = d_i u_j.

    Floats in and floats out: p is 3 floats (or anything ``point_coords``
    takes), u comes back as a 3-tuple and du as three 3-tuple rows, built
    with ``math`` from one evaluation of N at p as
    du[i] = (J[i] - (J[i] . u) u) / |N| with J[i] = d_i N.  No |N|^2 is
    formed, so an N whose square would overflow still normalizes.  Raises
    ``DegeneratePfaffianError`` where N vanishes and
    ``DegenerateNormalizationError`` where a degenerate metric is asked
    to normalize a space-time Pfaffian with a time component.
    """
    comps, jac = pfaffian.values_and_jacobian(p)
    norm = pfaffian_norm(comps, p)
    n1, n2, n3 = comps
    u1, u2, u3 = n1 / norm, n2 / norm, n3 / norm
    if metric.degenerate and pfaffian.chart == "spacetime" and abs(u1) > 1e-9:
        raise DegenerateNormalizationError(
            "Galilean metric cannot normalize a Pfaffian with a time component"
        )
    du = []
    for j1, j2, j3 in jac:
        along = j1 * u1 + j2 * u2 + j3 * u3  # d_i |N|
        du.append(((j1 - along * u1) / norm,
                   (j2 - along * u2) / norm,
                   (j3 - along * u3) / norm))
    return (u1, u2, u3), tuple(du)


def adapt_frame(pfaffian, metric=EUCLIDEAN):
    """Build the deterministic adapted frame for a Pfaffian N.

    The normal column is N normalized on the chart; the tangent pair is
    completed by Gram-Schmidt from a canonical seed axis: the axis with
    the smallest normal component (ties to the lowest index) on spatial
    charts, and the time axis on the space-time chart whenever the
    normal stays clear of it.  The seed index is treated as locally
    constant, so frame derivatives are valid away from seed-switching
    loci.  The seed's normal component is at most 0.9 in magnitude, so the
    Gram-Schmidt norm is at least sqrt(0.19) and the frame is orthonormal
    to rounding wherever N does not vanish.
    """
    spacetime = pfaffian.chart == "spacetime"

    def pair_fn(p, need_derivative):
        u, du = unit_normal(pfaffian, metric, p)  # u is e3
        u, du = np.array(u), np.array(du)
        unit_vals = np.abs(u)
        if spacetime and unit_vals[0] < 0.9:
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
        de1_raw = -np.outer(du[:, k], u) - u[k] * du
        dm = de1_raw @ e1_raw / m
        de1 = de1_raw / m - np.outer(dm, e1_raw) / m**2
        de2 = np.cross(du, e1[None, :]) + np.cross(u[None, :], de1)
        dx = np.stack([de1, de2, du], axis=2)
        return x, dx

    return AdaptedFrame(pair_fn, pfaffian, metric)


def connection_form(frame, p):
    """Teleparallelism connection components omega[i, j, k] at p.

    omega[i, j, k] = (e_k x^m_j) xtilde^i_m; for metric-orthonormal
    frames omega[i, j, :] = -omega[j, i, :].
    """
    x, dx = frame.matrix_and_derivative(p)
    return np.einsum("nk,nmj,mi->ijk", x, dx, x)


@dataclass(frozen=True)
class FundamentalForms:
    """First and second forms at a point; ``g`` is in physical units and
    ``tangent`` holds the frame's tangent legs as columns."""

    g: np.ndarray
    h: np.ndarray
    point: np.ndarray
    metric: MetricSignature
    tangent: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    kappa1: complex
    kappa2: complex
    gaussian: complex
    mean: complex


def fundamental_forms(source, frame, metric, p):
    """First and second fundamental forms at p.

    ``source`` is either the Pfaffian one-form N (pseudo-surface route:
    H = minus the pulled-back symmetrized differential of the unit N) or
    a level-set scalar f (surface route: H from the Hessian of f).
    """
    p = as_point(p)
    x = frame.matrix_at(p)
    tangent = x[:, :2]
    if isinstance(source, OneForm):
        unit, du = unit_normal(source, metric, p)
        unit, du = np.array(unit), np.array(du)
        h = -(tangent.T @ (0.5 * (du + du.T)) @ tangent)
    elif isinstance(source, ScalarField):
        _, grad, hess = source.differentiate(p)
        norm = pfaffian_norm(grad, p)
        unit = grad / norm
        h = -(tangent.T @ hess @ tangent) / norm
    else:
        raise TypeError("source must be a OneForm (pfaffian) or ScalarField (level set)")
    theta3 = x[:, 2]
    if np.max(np.abs(theta3 - unit)) > 1e-9:
        raise FramePfaffianMismatchError(
            "frame normal coframe leg differs from the given Pfaffian "
            f"at point {format_point(p)} (max deviation "
            f"{np.max(np.abs(theta3 - unit)):.3e})"
        )
    g = tangent.T @ metric.matrix @ tangent
    g = 0.5 * (g + g.T)
    h = 0.5 * (h + h.T)
    return FundamentalForms(g, h, p, metric, tangent)


def second_form_via_connection(frame, p):
    """H_ab as the symmetrized normal connection components omega^3_(ab)."""
    omega = connection_form(frame, p)
    h = 0.5 * (omega[2, :2, :2] + omega[2, :2, :2].T)
    return h


def shape_and_curvatures(ff):
    """Raise an index and report principal/Gaussian/mean curvature.

    Every route raises with the metric's c-normalized matrix induced on
    the tangent legs (diag(1, -1, -1) for Minkowski, so curvatures stay
    O(phi_dot) rather than shrinking by c); a degenerate induced metric
    is an error since g^ab does not exist.  The shape operator
    [[a, b], [c, d]] = g^-1 h is solved in closed form on floats:
    mean = (a + d)/2, K = ad - bc and disc = q^2 + bc with q = (a - d)/2
    (mean^2 - K would cancel at umbilics).  A real pair is kappa1 =
    mean + sqrt(disc) >= kappa2; a conjugate pair, which only an
    indefinite raise can give, is kappa1 = mean + i sqrt(-disc) and its
    conjugate.  Under a definite g (det g > 0) disc is clamped at 0, so
    rounding at an umbilic gives a real double root.
    kappa1 and kappa2 are complex either way, K and the mean are floats.
    """
    g = ff.tangent.T @ ff.metric.normalized_matrix @ ff.tangent
    (g11, g12), (g21, g22) = g.tolist()
    g12 = 0.5 * (g12 + g21)
    det_g = g11 * g22 - g12 * g12
    if abs(det_g) < 1e-12:
        raise DegenerateMetricError(
            "first fundamental form is degenerate: g^ab does not exist, "
            "so no index can be raised"
        )
    (h11, h12), (h21, h22) = ff.h.tolist()
    a = (g22 * h11 - g12 * h21) / det_g
    b = (g22 * h12 - g12 * h22) / det_g
    c = (g11 * h21 - g12 * h11) / det_g
    d = (g11 * h22 - g12 * h12) / det_g
    mean = 0.5 * (a + d)
    q = 0.5 * (a - d)
    disc = q * q + b * c
    if det_g > 0.0:  # g definite: g^-1 h is self-adjoint, so a disc below 0 is rounding
        disc = max(disc, 0.0)
    root = math.sqrt(abs(disc))
    if disc >= 0.0:
        kappa1, kappa2 = complex(mean + root), complex(mean - root)
    else:
        kappa1, kappa2 = complex(mean, root), complex(mean, -root)
    return CurvatureReport(kappa1, kappa2, a * d - b * c, mean)


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

    def curvature_report(self, p):
        return shape_and_curvatures(self.fundamental_forms(p))
