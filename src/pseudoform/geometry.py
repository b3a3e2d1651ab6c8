"""Adapted frames for a Pfaffian and the induced surface-like geometry.

Frame convention: the frame matrix has the two tangent legs e1, e2 as
its first two columns and the unit normal e3 (the metric dual of the
unit Pfaffian) last.  The frame is orthonormal on the chart, so its
inverse is its transpose: the coframe rows are the frame columns, and
row 3 is the unit Pfaffian itself.

Connection convention: omega[i][j][k] is the e_i-component of the
directional derivative of e_j along e_k, i.e. omega = (d X) X^{-1} in
the "X-dot X-inverse" ordering.  The second fundamental form that this
produces is internally consistent with the symmetrized differential of
the unit normal; for the rotating-frame case study the off-diagonal
entry comes out +phi_dot/2 under this convention.

Frames are completed Euclideanly on the chart regardless of the active
metric signature (the degenerate/indefinite metrics enter only the
first fundamental form and index raising); a degenerate metric is
rejected when asked to normalize a Pfaffian with a time component.

The frame and its derivative, the connection, the fundamental forms and
the curvatures are computed on floats: a vector is a 3-tuple, a matrix
its rows, and no function here loads NumPy.
"""

from __future__ import annotations

import enum
import math
from operator import mul
from typing import NamedTuple

from .calculus import (
    DEGENERACY_TOL, OneForm, ScalarField, gradient_oneform, pfaffian_norm, point_coords,
)
from .errors import DegenerateMetricError, DegenerateNormalizationError, ValidationError, check_real

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

    ``normal(p)`` is the Pfaffian's ``normal_kernel``: 12 floats, u and then
    du row-major, at a point p already checked as 3 floats.
    ``complete(n, need_derivative)`` builds the frame around such floats and
    returns (X, dX) with X[m][j] the chart components of e_j, as three rows
    of floats, and dX[n][m][j] = d_n X[m][j] as three such matrices, one per
    n; dX is None when not requested, and then only the unit normal n[:3] is
    read.  The coframe X^{-1} is X^T, as the frame is orthonormal.
    """

    def __init__(self, normal, complete):
        self.normal = normal
        self.complete = complete

    def rows_at(self, p):
        """The frame matrix X at p as three rows (X[m][0], X[m][1], X[m][2]) of floats."""
        return self.complete(self.normal(point_coords(p)), False)[0]

    def rows_and_derivative(self, p):
        """The frame matrix X at p as three rows of floats and its derivatives
        dX[n][m][j] = d_n X[m][j] as three such matrices."""
        return self.complete(self.normal(point_coords(p)), True)


def _refuse_time_component(u1):
    """Raise ``DegenerateNormalizationError`` where a unit normal on the
    space-time chart has a time component u1, which a degenerate metric
    cannot normalize."""
    if abs(u1) > 1e-9:
        raise DegenerateNormalizationError(
            "Galilean metric cannot normalize a Pfaffian with a time component"
        )


def normal_kernel(pfaffian, metric):
    """The unit normal of a fixed Pfaffian and metric, as a function of a point
    p already checked as 3 floats; the frame builds it once, and
    ``fundamental_forms`` once per point.

    The function returns 12 floats: u = N / |N|, then du row-major with
    du[i][j] = d_i u_j.  They are formed with ``math`` from one evaluation of
    N at p, the Pfaffian's ``flat_jet``, as du[i] = (J[i] - (J[i] . u) u) / |N|
    with J[i] = d_i N.  No |N|^2 is formed, so an N whose square would
    overflow still normalizes.  It raises ``DegeneratePfaffianError`` where N
    vanishes and ``DegenerateNormalizationError`` where a degenerate metric is
    asked to normalize a space-time Pfaffian with a time component.
    """
    jet = pfaffian.flat_jet
    galilean = metric.degenerate and pfaffian.chart == "spacetime"

    def normal(p):
        n1, n2, n3, j11, j12, j13, j21, j22, j23, j31, j32, j33 = jet(p)
        norm = math.hypot(n1, n2, n3)
        if norm <= DEGENERACY_TOL:
            pfaffian_norm((n1, n2, n3), p)  # raises DegeneratePfaffianError
        u1, u2, u3 = n1 / norm, n2 / norm, n3 / norm
        if galilean:
            _refuse_time_component(u1)
        a1 = j11 * u1 + j12 * u2 + j13 * u3  # d_i |N|
        a2 = j21 * u1 + j22 * u2 + j23 * u3
        a3 = j31 * u1 + j32 * u2 + j33 * u3
        return (u1, u2, u3,
                (j11 - a1 * u1) / norm, (j12 - a1 * u2) / norm, (j13 - a1 * u3) / norm,
                (j21 - a2 * u1) / norm, (j22 - a2 * u2) / norm, (j23 - a2 * u3) / norm,
                (j31 - a3 * u1) / norm, (j32 - a3 * u2) / norm, (j33 - a3 * u3) / norm)

    return normal


def adapt_frame(pfaffian, metric=EUCLIDEAN):
    """Build the deterministic adapted frame for a Pfaffian N.

    The normal column is N normalized on the chart (``normal_kernel``); the
    completion builds the tangent pair by Gram-Schmidt from a canonical
    seed axis: the axis with the smallest normal component (ties to the
    lowest index) on spatial charts, and the time axis on the space-time
    chart whenever the normal stays clear of it.  The seed index is treated
    as locally constant, so frame derivatives are valid away from
    seed-switching loci.  The seed's normal component is at most 0.9 in
    magnitude, so the Gram-Schmidt norm is at least sqrt(0.19) and the
    frame is orthonormal to rounding wherever N does not vanish.
    """
    spacetime = pfaffian.chart == "spacetime"

    def complete(n, need_derivative):
        u1, u2, u3 = u = n[:3]  # u is e3
        a1, a2, a3 = abs(u1), abs(u2), abs(u3)
        if (spacetime and a1 < 0.9) or (a1 <= a2 and a1 <= a3):
            k = 0
        else:
            k = 1 if a2 <= a3 else 2
        uk = u[k]
        # seed - u[k] u; 0.0 - x rather than -x off the seed axis keeps an exact 0 at +0.0
        r1, r2, r3 = ((1.0 if i == k else 0.0) - uk * ui for i, ui in enumerate(u))
        m = math.hypot(r1, r2, r3)
        c1, c2, c3 = r1 / m, r2 / m, r3 / m  # e1
        # columns e1, e2 = u x e1 and e3 = u
        x = ((c1, u2 * c3 - u3 * c2, u1),
             (c2, u3 * c1 - u1 * c3, u2),
             (c3, u1 * c2 - u2 * c1, u3))
        if not need_derivative:
            return x, None
        mm = m * m
        dx = []
        for du in (n[3:6], n[6:9], n[9:12]):  # du = d_n u, n = 1, 2, 3
            d1, d2, d3 = du
            duk = du[k]
            # d_n of r = seed - u[k] u, of its norm m and of e1 = r / m
            s1, s2, s3 = -duk * u1 - uk * d1, -duk * u2 - uk * d2, -duk * u3 - uk * d3
            dm = (s1 * r1 + s2 * r2 + s3 * r3) / m
            f1, f2, f3 = s1 / m - dm * r1 / mm, s2 / m - dm * r2 / mm, s3 / m - dm * r3 / mm
            # d_n e2 = d_n u x e1 + u x d_n e1; the columns are d_n e1, d_n e2, d_n u
            dx.append(((f1, (d2 * c3 - d3 * c2) + (u2 * f3 - u3 * f2), d1),
                       (f2, (d3 * c1 - d1 * c3) + (u3 * f1 - u1 * f3), d2),
                       (f3, (d1 * c2 - d2 * c1) + (u1 * f2 - u2 * f1), d3)))
        return x, tuple(dx)

    return AdaptedFrame(normal_kernel(pfaffian, metric), complete)


def connection_form(frame, p):
    """Teleparallelism connection components omega[i][j][k] at p, as nested
    3-tuples of floats.

    omega[i][j][k] = (e_k x^m_j) xtilde^i_m.  The frames are orthonormal on
    the chart under every metric, so omega[i][j][k] = -omega[j][i][k].
    """
    from .integrate import fold_sum  # loaded here: no command calls the connection

    x, dx = frame.rows_and_derivative(p)
    legs = tuple(zip(*x))  # e_1, e_2, e_3 as chart 3-tuples, the columns of X
    # along[k][j] = e_k x_j, the derivative of column j along e_k
    along = [[tuple(fold_sum(map(mul, leg, [dxn[m][j] for dxn in dx])) for m in range(3))
              for j in range(3)] for leg in legs]
    return tuple(tuple(tuple(fold_sum(map(mul, leg, along[k][j])) for k in range(3))
                       for j in range(3)) for leg in legs)


class FundamentalForms(NamedTuple):
    """First and second forms at a point, as float rows.

    ``g_rows`` (in physical units) and ``h_rows`` are the 2x2 forms as two
    rows of floats, and ``legs`` the frame's tangent legs e1, e2 as chart
    3-tuples.
    """

    g_rows: tuple
    h_rows: tuple
    metric: MetricSignature
    legs: tuple


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
    """First and second fundamental forms at p, from one evaluation of ``source``.

    ``source`` is either the Pfaffian one-form N (pseudo-surface route:
    H = minus the pulled-back symmetrized differential of the unit N, from
    its ``normal_kernel``) or a level-set scalar f (surface route: H from
    the Hessian of f over |grad f|, from one call of the ``flat_jet`` of
    f's ``gradient_oneform``).  The
    frame's ``complete`` builds the tangent legs around that evaluation's
    unit normal, so the legs and H come from the same numbers.  Both forms
    are 2x2 sums of floats on the legs.
    """
    p = point_coords(p)
    if isinstance(source, OneForm):  # h = -du on the legs; symmetrizing du is _on_legs' mean
        n = normal_kernel(source, metric)(p)
        second, scale = (n[3:6], n[6:9], n[9:12]), 1.0
    elif isinstance(source, ScalarField):
        jet = gradient_oneform(source).flat_jet(p)
        grad, second = jet[:3], (jet[3:6], jet[6:9], jet[9:12])
        scale = pfaffian_norm(grad, p)
        n = (grad[0] / scale, grad[1] / scale, grad[2] / scale)
        if metric.degenerate and source.chart == "spacetime":
            _refuse_time_component(n[0])
    else:
        raise TypeError("source must be a OneForm (pfaffian) or ScalarField (level set)")
    (a1, b1, _), (a2, b2, _), (a3, b3, _) = frame.complete(n, False)[0]
    t1, t2 = (a1, a2, a3), (b1, b2, b3)
    h11, h12, h22 = (-m / scale for m in _on_legs(second, t1, t2))
    g11, g12, g22 = _on_legs(metric.rows(), t1, t2)
    return FundamentalForms(((g11, g12), (g12, g22)), ((h11, h12), (h12, h22)), metric, (t1, t2))


def second_form_via_connection(frame, p):
    """H_ab as the symmetrized normal connection components omega^3_(ab),
    two rows of floats."""
    (h11, a, _), (b, h22, _), _ = connection_form(frame, p)[2]
    h12 = 0.5 * (a + b)
    return (h11, h12), (h12, h22)


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
