"""Geodesics of a plane field, sampled by fixed-step RK4.

A geodesic carries the chart velocity, so no frame enters its equations
after the initial velocity.

The geodesic runs on plain floats from its arguments to its samples.
``errors.check_vector`` checks the start point (through
``calculus.point_coords``) and nu, and its refusal names them.  The
initial velocity is summed from the adapted frame's float rows, the
state is a 6-tuple stepped by ``integrate.rk4_step``, and ``SampledCurve``
keeps the states as they were stepped.  Each RK4 stage is one field
evaluation: the right-hand side checks the stage point and reads N and its
Jacobian J from one call of the Pfaffian's ``flat_jet`` (12 flat floats),
and steps the multiplier form of the geodesic equations, which needs
neither the unit normal's derivative nor |N|^2.  The start velocity is
built on the adapted frame (``AdaptedFrame(normal, complete)``), whose
unit normal is N / |N| from the same ``flat_jet``.
NumPy is imported only when a caller reads ``SampledCurve.s``, so the
``geodesic`` command never loads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .calculus import DEGENERACY_TOL, pfaffian_norm, point_coords
from .errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError, check_vector
from .geometry import _refuse_time_component
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
    tangential acceleration, so the state (x, v) obeys x-dot = v and the
    Lagrange-d'Alembert multiplier form v-dot = -((v . J . v) / |N|) u, with
    u = N / |N| and J[i][j] = d_i N_j (Bloch, Nonholonomic Mechanics and
    Control, 2003, ch. 5).  On N(v) = 0 it is v-dot = -(v . du . v) u, as
    v . du . v = (v . J . v - (v . d|N|)(u . v)) / |N|, and the normal
    component keeps u . v = 0.  Apart from the Galilean refusal of a unit
    normal with a time component, which the frame makes too, the metric
    does not enter: every metric gives the chart-Euclidean geodesic.  The
    state is stepped as a 6-tuple of floats: each stage point is checked to
    be finite (a ``ValidationError`` naming it otherwise) and evaluated
    once, N and J from the Pfaffian's ``flat_jet``; |N| is ``math.hypot``'s,
    so no |N|^2 is formed.  ``steps * ds`` must be finite, so that every
    sample's arc parameter k * ds is.  A degenerate Pfaffian (|N| at most
    ``DEGENERACY_TOL``) or a field leaving its domain along the way aborts
    and returns the partial curve with ``aborted`` set, as does a state
    that stops being finite.
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
    jet = surface.pfaffian.flat_jet
    galilean = surface.metric.degenerate and surface.pfaffian.chart == "spacetime"

    def rhs(_s, y):
        x1, x2, x3, v1, v2, v3 = y
        p = (x1, x2, x3)
        if not math.isfinite(x1 + x2 + x3):  # a sum can overflow: point_coords checks each
            point_coords(p)
        n1, n2, n3, j11, j12, j13, j21, j22, j23, j31, j32, j33 = jet(p)
        norm = math.hypot(n1, n2, n3)
        if norm <= DEGENERACY_TOL:
            pfaffian_norm((n1, n2, n3), p)  # raises DegeneratePfaffianError
        u1, u2, u3 = n1 / norm, n2 / norm, n3 / norm
        if galilean:
            _refuse_time_component(u1)
        # (v . J . v) / |N|, divided before the last contraction: then only
        # |v| |J|, not |v|^2 |J|, must stay finite
        lam = ((v1 * j11 + v2 * j21 + v3 * j31) / norm * v1
               + (v1 * j12 + v2 * j22 + v3 * j32) / norm * v2
               + (v1 * j13 + v2 * j23 + v3 * j33) / norm * v3)
        return (v1, v2, v3, -lam * u1, -lam * u2, -lam * u3)

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
