"""Curve machinery: Frenet data, tangential/normal curvature, geodesics.

Curves come in two flavors: analytic (``ParamCurve``, callables with
finite-difference fallbacks for missing derivatives) and sampled
(``SampledCurve``, fixed-step RK4 output).  The curvature split reads
the geodesic curvature as the tangential part of the acceleration in
the adapted frame, and the normal curvature as the second fundamental
form on the unit tangent.  Geodesics carry the chart velocity, so no
frame enters their equations after the initial velocity.

The geodesic march runs on plain floats: the state is a 6-tuple, each
RK4 stage evaluates the Pfaffian once at one seeded point and builds the
unit normal and its derivative with ``math``, and NumPy enters only to
set up the initial velocity and to stack the finished samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import as_point
from .errors import (
    ConstraintViolationError,
    DegeneratePfaffianError,
    EvaluationDomainError,
    StraightLineError,
    ValidationError,
)
from .geometry import second_form_via_connection, unit_normal
from .integrate import rk4_step, validate_steps

STRAIGHT_TOL = 1e-10
CONSTRAINT_TOL = 1e-6


def _fd4(fn, s, h):
    """Fourth-order central difference of a vector-valued callable."""
    f = lambda t: np.asarray(fn(t), dtype=float)
    return (-f(s + 2 * h) + 8 * f(s + h) - 8 * f(s - h) + f(s - 2 * h)) / (12 * h)


@dataclass
class ParamCurve:
    """Curve s -> R^3 with optional analytic derivative evaluators.

    Missing derivatives are supplied by fourth-order central differences
    of the next-lower evaluator.  ``arclength`` records whether s is an
    arclength parameter (required for the curvature split).
    """

    position: Callable
    velocity: Optional[Callable] = None
    acceleration: Optional[Callable] = None
    jerk: Optional[Callable] = None
    arclength: bool = True
    fd_step: float = 1e-4

    def _h(self, s):
        return self.fd_step * max(1.0, abs(s))

    def position_at(self, s):
        return np.asarray(self.position(s), dtype=float)

    def velocity_at(self, s):
        if self.velocity is not None:
            return np.asarray(self.velocity(s), dtype=float)
        return _fd4(self.position, s, self._h(s))

    def acceleration_at(self, s):
        if self.acceleration is not None:
            return np.asarray(self.acceleration(s), dtype=float)
        return _fd4(self.velocity_at, s, self._h(s))

    def jerk_at(self, s):
        if self.jerk is not None:
            return np.asarray(self.jerk(s), dtype=float)
        return _fd4(self.acceleration_at, s, self._h(s))


@dataclass(frozen=True)
class FrenetData:
    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    curvature: float
    torsion: float


def frenet(curve, s):
    """Frenet frame, curvature and torsion of a regular space curve at s.

    Straight segments (curvature below 1e-10) have no principal normal
    and raise ``StraightLineError``.
    """
    v = curve.velocity_at(s)
    speed = np.linalg.norm(v)
    if speed <= 1e-12:
        raise ValidationError(f"curve is not regular at s={s!r} (zero velocity)")
    t = v / speed
    a = curve.acceleration_at(s)
    a_perp = a - (a @ t) * t
    kappa_vec_norm = np.linalg.norm(a_perp)
    kappa = kappa_vec_norm / speed**2
    if kappa <= STRAIGHT_TOL:
        raise StraightLineError(
            f"curvature {kappa:.3e} below {STRAIGHT_TOL:.0e} at s={s!r}: "
            "straight line has no Frenet normal"
        )
    n = a_perp / kappa_vec_norm
    b = np.cross(t, n)
    j = curve.jerk_at(s)
    va = np.cross(v, a)
    torsion = float(va @ j) / float(va @ va)
    return FrenetData(t, n, b, float(kappa), torsion)


@dataclass(frozen=True)
class CurvatureSplit:
    geodesic: np.ndarray  # frame components (2,) of the tangential part
    normal: float
    geodesic_magnitude: float


def curvature_split(curve, surface, s):
    """Split the curvature of an arclength curve lying in theta = 0.

    With the adapted frame X at the curve point, nu = X^-1 x-dot and
    acc = x-double-dot: geodesic^a = (X^-1 acc)^a, the tangential part
    of the acceleration (a, b tangential); normal = H_ab nu^a nu^b.  The
    tangent must satisfy the Pfaffian constraint to 1e-6 (normalized) or
    ``ConstraintViolationError``.
    """
    if not getattr(curve, "arclength", True):
        raise ValidationError("curvature split requires an arclength parameterization")
    p = curve.position_at(s)
    v = curve.velocity_at(s)
    frame = surface.frame
    xinv = frame.inverse_at(p)
    nu = xinv @ v
    residual = abs(nu[2]) / np.linalg.norm(v)
    if residual > CONSTRAINT_TOL:
        raise ConstraintViolationError(
            f"tangent violates the Pfaffian constraint at s={s!r}", residual
        )
    kg = xinv[:2] @ curve.acceleration_at(s)
    h_ab = second_form_via_connection(frame, p)
    kn = float(nu[:2] @ h_ab @ nu[:2])
    return CurvatureSplit(kg, kn, float(np.linalg.norm(kg)))


@dataclass
class SampledCurve:
    """Fixed-step samples of a curve: parameters, points, velocities."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    arclength: bool = True
    aborted: bool = False
    abort_reason: str = ""

    def closure_error(self):
        return float(np.linalg.norm(self.points[-1] - self.points[0]))


def integrate_geodesic(surface, p0, nu0, ds, steps):
    """RK4-integrate the geodesic equations in chart position and velocity.

    The initial velocity is x-dot(0) = X(p0)[:, :2] nu0 in the adapted
    frame X.  A geodesic has no tangential acceleration, so the state
    (x, v) obeys x-dot = v and v-dot = -(v . du . v) u, with u the unit
    normal and du[i, j] = d_i u_j (the normal component keeps u . v = 0).
    The state is stepped as a 6-tuple of floats: each stage point is
    checked to be finite and seeded once, and ``unit_normal`` returns
    floats.  A degenerate Pfaffian or a field leaving its domain along the
    way aborts and returns the partial curve with ``aborted`` set, as does
    a state that stops being finite.
    """
    validate_steps(steps, ds)
    p0 = as_point(p0)
    nu0 = np.asarray(nu0, dtype=float)
    if nu0.shape != (2,):
        raise ValidationError("initial frame velocity nu must have 2 components")
    if math.hypot(*nu0) <= 1e-15:
        raise ValidationError("initial frame velocity nu must be non-zero")
    pfaffian, metric = surface.pfaffian, surface.metric

    def rhs(_s, y):
        v1, v2, v3 = v = y[3:]
        (u1, u2, u3), du = unit_normal(pfaffian, metric, y[:3])
        (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = du
        vdv = ((v1 * d11 + v2 * d21 + v3 * d31) * v1
               + (v1 * d12 + v2 * d22 + v3 * d32) * v2
               + (v1 * d13 + v2 * d23 + v3 * d33) * v3)
        return (*v, -vdv * u1, -vdv * u2, -vdv * u3)

    y = tuple(p0.tolist()) + tuple((surface.frame.matrix_at(p0)[:, :2] @ nu0).tolist())
    states = [y]
    aborted = False
    reason = ""
    for k in range(steps):
        try:
            y = rk4_step(rhs, k * ds, y, ds)
        except (DegeneratePfaffianError, EvaluationDomainError) as err:
            aborted = True
            reason = str(err)
            break
        if not all(map(math.isfinite, y)):
            aborted = True
            reason = f"non-finite state at step {k + 1}"
            break
        states.append(y)
    states = np.array(states)
    return SampledCurve(
        np.arange(len(states)) * ds, states[:, :3], states[:, 3:],
        aborted=aborted, abort_reason=reason,
    )
