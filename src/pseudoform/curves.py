"""Geodesics of a plane field, sampled by fixed-step RK4.

A geodesic carries the chart velocity, so no frame enters its equations
after the initial velocity.

The geodesic march runs on plain floats: the state is a 6-tuple, each
RK4 stage evaluates the Pfaffian once at its point and builds the
unit normal and its derivative with ``math``, and NumPy enters only to
set up the initial velocity and to stack the finished samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import as_point
from .errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError
from .geometry import unit_normal
from .integrate import rk4_step, validate_steps


@dataclass
class SampledCurve:
    """Fixed-step samples of a curve: parameters, points, velocities."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
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
    checked to be finite and evaluated once, and ``unit_normal`` returns
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
