"""Curve machinery: Frenet data, tangential/normal curvature, geodesics.

Curves come in two flavors: analytic (``ParamCurve``, callables with
finite-difference fallbacks for missing derivatives) and sampled
(``SampledCurve``, fixed-step RK4 output).  The curvature split uses the
adapted-frame connection: the geodesic curvature is the tangential part
of the covariant acceleration, the normal curvature is the second
fundamental form on the unit tangent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import as_point
from .errors import (
    ConstraintViolationError,
    DegeneratePfaffianError,
    EvaluationDomainError,
    FrameSingularityError,
    StraightLineError,
    ValidationError,
)
from .geometry import connection_form, connection_from_frame, second_form_via_connection
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

    geodesic^a = nu-dot^a + omega^a_b(tangent) nu^b  (a, b tangential);
    normal = H_ab nu^a nu^b.  The tangent must satisfy the Pfaffian
    constraint to 1e-6 (normalized) or ``ConstraintViolationError``.
    """
    if not getattr(curve, "arclength", True):
        raise ValidationError("curvature split requires an arclength parameterization")
    p = curve.position_at(s)
    v = curve.velocity_at(s)
    frame = surface.frame
    xinv = frame.inverse_at(p)
    nu_full = xinv @ v
    residual = abs(nu_full[2]) / np.linalg.norm(v)
    if residual > CONSTRAINT_TOL:
        raise ConstraintViolationError(
            f"tangent violates the Pfaffian constraint at s={s!r}", residual
        )

    def nu_of(t):
        return frame.inverse_at(curve.position_at(t)) @ curve.velocity_at(t)

    h = 1e-4 * max(1.0, abs(s))
    nu_dot = _fd4(nu_of, s, h)
    omega = connection_form(frame, p)
    # omega^a_b evaluated on the tangent: contract the leg index with nu_full
    omega_on_t = np.einsum("abk,k->ab", omega[:2, :2, :], nu_full)
    kg = nu_dot[:2] + omega_on_t @ nu_full[:2]
    h_ab = second_form_via_connection(frame, p)
    kn = float(nu_full[:2] @ h_ab @ nu_full[:2])
    return CurvatureSplit(kg, kn, float(np.linalg.norm(kg)))


@dataclass
class SampledCurve:
    """Fixed-step samples of a curve: parameters, points, velocities."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    nu: Optional[np.ndarray] = None
    arclength: bool = True
    aborted: bool = False
    abort_reason: str = ""

    def closure_error(self):
        return float(np.linalg.norm(self.points[-1] - self.points[0]))


def integrate_geodesic(surface, p0, nu0, ds, steps):
    """RK4-integrate the geodesic equations of the adapted frame.

    State is (x^i, nu^a); nu-dot^a = -omega^a_(bc) nu^b nu^c and
    x-dot^i = X^i_a nu^a.  A frame singularity along the way aborts and
    returns the partial curve with ``aborted`` set.
    """
    validate_steps(steps, ds)
    p0 = as_point(p0)
    nu0 = np.asarray(nu0, dtype=float)
    if nu0.shape != (2,):
        raise ValidationError("initial frame velocity nu must have 2 components")
    if np.linalg.norm(nu0) <= 1e-15:
        raise ValidationError("initial frame velocity nu must be non-zero")
    frame = surface.frame

    def rhs(_s, y):
        x = y[:3]
        nu = y[3:]
        mat, dmat = frame.matrix_and_derivative(x)
        omega = connection_from_frame(mat, dmat, x)
        om_sym = 0.5 * (omega[:2, :2, :2] + omega[:2, :2, :2].transpose(0, 2, 1))
        nu_dot = -np.einsum("abc,b,c->a", om_sym, nu, nu)
        x_dot = mat[:, :2] @ nu
        return np.concatenate([x_dot, nu_dot])

    y = np.concatenate([p0, nu0])
    s_vals = [0.0]
    states = [y]
    aborted = False
    reason = ""
    for k in range(steps):
        try:
            y = rk4_step(rhs, k * ds, y, ds)
        except (
            FrameSingularityError,
            DegeneratePfaffianError,
            EvaluationDomainError,
        ) as err:
            aborted = True
            reason = str(err)
            break
        if not np.all(np.isfinite(y)):
            aborted = True
            reason = f"non-finite state at step {k + 1}"
            break
        s_vals.append((k + 1) * ds)
        states.append(y)
    states = np.asarray(states)
    points = states[:, :3]
    nus = states[:, 3:]
    velocities = np.empty_like(points)
    for i, (x, nu) in enumerate(zip(points, nus)):
        velocities[i] = frame.matrix_at(x)[:, :2] @ nu
    return SampledCurve(
        np.asarray(s_vals), points, velocities, nu=nus,
        aborted=aborted, abort_reason=reason,
    )
