"""Geodesics of a plane field, sampled by fixed-step RK4.

A geodesic carries the chart velocity, so no frame enters its equations
after the initial velocity.

The geodesic runs on plain floats from its arguments to its samples.
``errors.check_vector`` checks the start point (through
``calculus.point_coords``) and nu, and its refusal names them.  The
initial velocity is summed from the adapted frame's float rows, the
state is a 6-tuple stepped by ``integrate.rk4_step``, and ``SampledCurve``
keeps the states as they were stepped.  Each RK4 stage is one field
evaluation: the right-hand side checks the stage point and calls the
normal kernel of ``geometry.normal_kernel``, built once per march, which
evaluates the Pfaffian once (its ``flat_jet``) and returns the unit normal
and its derivative as 12 flat floats.  The adapted frame pairs such a
kernel with a completion around its unit normal (``AdaptedFrame(normal,
complete)``), so the start velocity is built on the same unit normal.
NumPy is imported only when a caller reads ``SampledCurve.s``, so the
``geodesic`` command never loads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .calculus import point_coords
from .errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError, check_vector
from .geometry import normal_kernel
from .integrate import rk4_step, validate_steps


class SampledCurve(NamedTuple):
    """Fixed-step samples of a curve, ``ds`` apart from s = 0.

    ``states`` holds one (x1, x2, x3, v1, v2, v3) tuple of floats per
    sample.  ``s`` is the sample parameters as an array, built each time
    it is read.
    """

    ds: float
    states: list
    aborted: bool = False
    abort_reason: str = ""

    @property
    def s(self):  # kept while perfbench's span recorder counts the steps as len(curve.s)
        import numpy as np

        return np.arange(len(self.states)) * self.ds

    def closure_error(self):
        return math.dist(self.states[-1][:3], self.states[0][:3])


def integrate_geodesic(surface, p0, nu0, ds, steps):
    """RK4-integrate the geodesic equations in chart position and velocity.

    The initial velocity is x-dot(0) = X(p0)[:, :2] nu0 in the adapted
    frame X, summed on the frame's float rows.  A geodesic has no
    tangential acceleration, so the state (x, v) obeys x-dot = v and
    v-dot = -(v . du . v) u, with u the unit normal and du[i, j] = d_i u_j
    (the normal component keeps u . v = 0).  The state is stepped as a
    6-tuple of floats: each stage point is checked to be finite (a
    ``ValidationError`` naming it otherwise) and evaluated once by the
    Pfaffian's normal kernel, which is also the frame's ``normal``.
    ``steps * ds`` must be finite, so that every sample's arc parameter
    k * ds is.  A degenerate Pfaffian or a field leaving its domain along
    the way aborts and returns the partial curve with ``aborted`` set, as
    does a state that stops being finite.
    """
    validate_steps(steps, ds)
    p0 = point_coords(p0)
    nu = check_vector("initial frame velocity nu", nu0, 2)
    if math.hypot(*nu) <= 1e-15:
        raise ValidationError(f"initial frame velocity nu must have a norm above 1e-15, got {nu}")
    try:
        finite = math.isfinite(float(steps) * float(ds))
    except OverflowError:  # a step count past the largest float
        finite = False
    if not finite:
        raise ValidationError(
            f"steps * ds must be finite, got steps={steps!r} and ds={ds!r}: "
            "the arc parameter k * ds of the samples would overflow"
        )
    normal = normal_kernel(surface.pfaffian, surface.metric)

    def rhs(_s, y):
        x1, x2, x3, v1, v2, v3 = y
        p = (x1, x2, x3)
        if not math.isfinite(x1 + x2 + x3):  # a sum can overflow: point_coords checks each
            point_coords(p)
        u1, u2, u3, d11, d12, d13, d21, d22, d23, d31, d32, d33 = normal(p)
        vdv = ((v1 * d11 + v2 * d21 + v3 * d31) * v1
               + (v1 * d12 + v2 * d22 + v3 * d32) * v2
               + (v1 * d13 + v2 * d23 + v3 * d33) * v3)
        return (v1, v2, v3, -vdv * u1, -vdv * u2, -vdv * u3)

    nu1, nu2 = nu
    y = p0 + tuple([e1 * nu1 + e2 * nu2 for e1, e2, _ in surface.frame.rows_at(p0)])
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
    return SampledCurve(ds, states, aborted=aborted, abort_reason=reason)
