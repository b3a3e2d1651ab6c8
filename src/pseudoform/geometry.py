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

The frame, the fundamental forms and the curvatures are computed on
floats, so ``surface`` never loads NumPy; it is imported by the functions
that return arrays (``matrix_at``, ``connection_form``, the frame
derivative) and by the array views of ``FundamentalForms``.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .calculus import (
    OneForm, ScalarField, format_point, gradient_oneform, pfaffian_norm, point_coords,
)
from .errors import (
    DegenerateMetricError, DegenerateNormalizationError, FramePfaffianMismatchError,
    ValidationError, check_real,
)

LIGHT_SPEED = 299792458.0


class MetricKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    GALILEAN = "galilean"
    MINKOWSKI = "minkowski"


class _MetricFields(NamedTuple):
    kind: MetricKind
    light_speed: float = LIGHT_SPEED


class MetricSignature(_MetricFields):
    """Metric selector: Euclidean, degenerate Galilean, or Minkowski.

    On the space-time chart the first coordinate is time; the Minkowski
    matrix is diag(c^2, -1, -1) in (t, x, y) coordinates and its
    dimensionless c-normalized form is diag(+1, -1, -1).  ``light_speed``
    must be positive with a finite, non-zero square, under every kind.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        c = check_real("light_speed", self.light_speed)
        if not (c > 0.0 and 0.0 < c * c < math.inf):
            raise ValidationError(
                f"light_speed must be positive with a finite non-zero square, got {c!r}"
            )
        return self

    @classmethod
    def _make(cls, iterable):  # the inherited one checks the length but skips __new__
        return cls(*super()._make(iterable))

    def rows(self, normalized=False):
        """The metric's matrix as three 3-tuple rows of floats.

        ``normalized`` gives the c-normalized matrix that raises indices
        (Minkowski with c = 1); the other kinds do not depend on it.
        """
        if self.kind is MetricKind.EUCLIDEAN:
            d1 = 1.0
        elif self.kind is MetricKind.GALILEAN:
            d1 = 0.0
        else:
            d1 = 1.0 if normalized else self.light_speed * self.light_speed
        d2 = -1.0 if self.kind is MetricKind.MINKOWSKI else 1.0
        return ((d1, 0.0, 0.0), (0.0, d2, 0.0), (0.0, 0.0, d2))

    @property
    def degenerate(self):
        return self.kind is MetricKind.GALILEAN


EUCLIDEAN = MetricSignature(MetricKind.EUCLIDEAN)
GALILEAN = MetricSignature(MetricKind.GALILEAN)
MINKOWSKI = MetricSignature(MetricKind.MINKOWSKI)


class AdaptedFrame:
    """Orthonormal matrix-valued frame field adapted to a unit Pfaffian.

    ``pair_fn(p, need_derivative)`` returns (X, dX) with X[m, j] the
    chart components of e_j, as three rows of floats, and dX[n, m, j] =
    d_n X[m, j] as an array (dX is None when not requested).
    """

    def __init__(self, pair_fn):
        self.pair_fn = pair_fn

    def rows_at(self, p):
        """The frame matrix X at p as three rows (X[m, 0], X[m, 1], X[m, 2]) of floats."""
        return self.pair_fn(point_coords(p), False)[0]

    def matrix_at(self, p):
        import numpy as np

        return np.array(self.rows_at(p))

    def matrix_and_derivative(self, p):
        """Frame matrix X[m, j] and its derivatives dX[n, m, j] at p."""
        import numpy as np

        x, dx = self.pair_fn(point_coords(p), True)
        return np.array(x), dx

    def inverse_at(self, p):
        """The coframe X^{-1}, which is X^T because the frame is orthonormal."""
        return self.matrix_at(p).T


def unit_normal(pfaffian, metric, p):
    """Unit normal u = N / |N| of a Pfaffian N at p and du[i][j] = d_i u_j.

    Floats in and floats out: p is 3 floats (or anything ``point_coords``
    takes), u comes back as a 3-tuple and du as three 3-tuple rows, built
    with ``math`` from one evaluation of N at p (the Pfaffian's ``jet``)
    as du[i] = (J[i] - (J[i] . u) u) / |N| with J[i] = d_i N.  No |N|^2
    is formed, so an N whose square would overflow still normalizes.
    Raises ``DegeneratePfaffianError`` where N vanishes and
    ``DegenerateNormalizationError`` where a degenerate metric is asked
    to normalize a space-time Pfaffian with a time component.  This is
    ``normal_kernel(pfaffian, metric)`` applied to the checked point.
    """
    return normal_kernel(pfaffian, metric)(point_coords(p))


def normal_kernel(pfaffian, metric):
    """``unit_normal`` of a fixed Pfaffian and metric, as a function of a point
    already checked as 3 floats; the frame and the geodesic build it once."""
    jet = pfaffian.jet
    galilean = metric.degenerate and pfaffian.chart == "spacetime"

    def normal(p):
        comps, ((j11, j12, j13), (j21, j22, j23), (j31, j32, j33)) = jet(p)
        norm = pfaffian_norm(comps, p)
        n1, n2, n3 = comps
        u1, u2, u3 = n1 / norm, n2 / norm, n3 / norm
        if galilean and abs(u1) > 1e-9:
            raise DegenerateNormalizationError(
                "Galilean metric cannot normalize a Pfaffian with a time component"
            )
        a1 = j11 * u1 + j12 * u2 + j13 * u3  # d_i |N|
        a2 = j21 * u1 + j22 * u2 + j23 * u3
        a3 = j31 * u1 + j32 * u2 + j33 * u3
        return (u1, u2, u3), (
            ((j11 - a1 * u1) / norm, (j12 - a1 * u2) / norm, (j13 - a1 * u3) / norm),
            ((j21 - a2 * u1) / norm, (j22 - a2 * u2) / norm, (j23 - a2 * u3) / norm),
            ((j31 - a3 * u1) / norm, (j32 - a3 * u2) / norm, (j33 - a3 * u3) / norm))

    return normal


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
    normal = normal_kernel(pfaffian, metric)

    def pair_fn(p, need_derivative):
        u, du = normal(p)  # u is e3
        u1, u2, u3 = u
        a1, a2, a3 = abs(u1), abs(u2), abs(u3)
        if (spacetime and a1 < 0.9) or (a1 <= a2 and a1 <= a3):
            k = 0
        else:
            k = 1 if a2 <= a3 else 2
        uk = u[k]
        # seed - u[k] u; 0.0 - x rather than -x off the seed axis keeps an exact 0 at +0.0
        r1, r2, r3 = e1_raw = tuple((1.0 if i == k else 0.0) - uk * ui for i, ui in enumerate(u))
        m = math.hypot(r1, r2, r3)
        e1 = (r1 / m, r2 / m, r3 / m)
        c1, c2, c3 = e1
        # columns e1, e2 = u x e1 and e3 = u
        x = ((c1, u2 * c3 - u3 * c2, u1),
             (c2, u3 * c1 - u1 * c3, u2),
             (c3, u1 * c2 - u2 * c1, u3))
        if not need_derivative:
            return x, None
        import numpy as np

        u, du, e1_raw, e1 = np.array(u), np.array(du), np.array(e1_raw), np.array(e1)
        de1_raw = -np.outer(du[:, k], u) - uk * du
        dm = de1_raw @ e1_raw / m
        de1 = de1_raw / m - np.outer(dm, e1_raw) / m**2
        de2 = np.cross(du, e1[None, :]) + np.cross(u[None, :], de1)
        dx = np.stack([de1, de2, du], axis=2)
        return x, dx

    return AdaptedFrame(pair_fn)


def connection_form(frame, p):
    """Teleparallelism connection components omega[i, j, k] at p.

    omega[i, j, k] = (e_k x^m_j) xtilde^i_m; for metric-orthonormal
    frames omega[i, j, :] = -omega[j, i, :].
    """
    import numpy as np

    x, dx = frame.matrix_and_derivative(p)
    return np.einsum("nk,nmj,mi->ijk", x, dx, x)


class FundamentalForms(NamedTuple):
    """First and second forms at a point, as float rows.

    ``g_rows`` (in physical units) and ``h_rows`` are the 2x2 forms as two
    rows of floats, and ``legs`` the frame's tangent legs e1, e2 as chart
    3-tuples.  ``g`` and ``h`` are the forms as arrays, built each time
    they are read.
    """

    g_rows: tuple
    h_rows: tuple
    metric: MetricSignature
    legs: tuple

    @property
    def g(self):
        import numpy as np

        return np.array(self.g_rows)

    @property
    def h(self):
        import numpy as np

        return np.array(self.h_rows)


class CurvatureReport(NamedTuple):
    kappa1: complex
    kappa2: complex
    gaussian: complex
    mean: complex


def _on_legs(rows, t1, t2):
    """(M(t1, t1), M(t1, t2), M(t2, t2)) of a 3x3 matrix M given as 3 rows,
    summed as (t^T M) t; M(t1, t2) is symmetrized, the mean of both orders."""
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = rows
    (a1, a2, a3), (b1, b2, b3) = t1, t2
    r1 = a1 * m11 + a2 * m21 + a3 * m31  # t1^T M
    r2 = a1 * m12 + a2 * m22 + a3 * m32
    r3 = a1 * m13 + a2 * m23 + a3 * m33
    s1 = b1 * m11 + b2 * m21 + b3 * m31  # t2^T M
    s2 = b1 * m12 + b2 * m22 + b3 * m32
    s3 = b1 * m13 + b2 * m23 + b3 * m33
    return (r1 * a1 + r2 * a2 + r3 * a3,
            0.5 * ((r1 * b1 + r2 * b2 + r3 * b3) + (s1 * a1 + s2 * a2 + s3 * a3)),
            s1 * b1 + s2 * b2 + s3 * b3)


def fundamental_forms(source, frame, metric, p):
    """First and second fundamental forms at p.

    ``source`` is either the Pfaffian one-form N (pseudo-surface route:
    H = minus the pulled-back symmetrized differential of the unit N) or
    a level-set scalar f (surface route: H from the Hessian of f).
    Both forms are 2x2 sums of floats on the frame's tangent legs.
    """
    p = point_coords(p)
    (a1, b1, n1), (a2, b2, n2), (a3, b3, n3) = frame.rows_at(p)
    t1, t2 = (a1, a2, a3), (b1, b2, b3)
    if isinstance(source, OneForm):  # h = -du on the legs; symmetrizing du is _on_legs' mean
        unit, du = unit_normal(source, metric, p)
        h11, h12, h22 = (-m for m in _on_legs(du, t1, t2))
    elif isinstance(source, ScalarField):
        _, grad, hess = source.differentiate(p)
        norm = pfaffian_norm(grad, p)
        unit = (grad[0] / norm, grad[1] / norm, grad[2] / norm)
        h11, h12, h22 = (-m / norm for m in _on_legs(hess, t1, t2))
    else:
        raise TypeError("source must be a OneForm (pfaffian) or ScalarField (level set)")
    deviation = max(abs(n1 - unit[0]), abs(n2 - unit[1]), abs(n3 - unit[2]))
    if deviation > 1e-9:
        raise FramePfaffianMismatchError(
            "frame normal coframe leg differs from the given Pfaffian "
            f"at point {format_point(p)} (max deviation {deviation:.3e})"
        )
    g11, g12, g22 = _on_legs(metric.rows(), t1, t2)
    return FundamentalForms(((g11, g12), (g12, g22)), ((h11, h12), (h12, h22)), metric, (t1, t2))


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
    g11, g12, g22 = _on_legs(ff.metric.rows(normalized=True), *ff.legs)
    det_g = g11 * g22 - g12 * g12
    if abs(det_g) < 1e-12:
        raise DegenerateMetricError(
            "first fundamental form is degenerate: g^ab does not exist, "
            "so no index can be raised"
        )
    (h11, h12), (h21, h22) = ff.h_rows
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


def curvatures_where_defined(ff):
    """``shape_and_curvatures(ff)``, or None where g is degenerate and g^ab
    does not exist (the Galilean metric on legs that span its null first axis)."""
    try:
        return shape_and_curvatures(ff)
    except DegenerateMetricError:
        return None


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
