"""Rotating-plane pendulum as motion constrained by a Pfaff equation.

The constraint one-form on the (t, x, y) chart is

    theta2 = -sin(phi) dx + cos(phi) dy,   phi = phi_dot * t,

whose integral curves move only along the instantaneous swing direction
e2 = cos(phi) dx + sin(phi) dy.  With phi_dot = 2 * omega_earth *
sin(latitude) this reproduces the pendulum's normal (Coriolis)
acceleration a_normal = phi_dot * speed, while the swing plane itself
precesses at half that rate, Omega = omega_earth * sin(latitude).

Sign convention (see :mod:`pseudoform.geometry`): with the frame
completed from theta2 the Frobenius coefficient is -phi_dot and the
off-diagonal second-form entry is +phi_dot / 2.

The orbit and the transport are each an ``Orbit`` of y' = A y, A constant,
whose NumPy rows are stepped by the exact flow exp(dt A).  The precession
reads only its step matrix and start state, as each window's second moments
are exact quadratic forms of the start state: it loads no NumPy.
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import Any, NamedTuple, Optional

from . import formlang, geometry, pfaff
from .errors import (ConstraintViolationError, DegenerateWindowError, EvaluationDomainError,
                     ValidationError, check_real, check_vector)
from .integrate import (check_step_size, flow_matrix, fold_sum, identity, linear_flow_blocks,
                        linear_rk4_orbit, matadd, matmul)

OMEGA_EARTH = 7.292e-5  # rad/s, sidereal rotation rate
SECONDS_PER_DAY = 86400.0
ANISOTROPY_TOL = 0.05
MAX_STEPS = 10**9  # largest orbit step count accepted; 1e9 rows take hours to write


class _FoucaultFields(NamedTuple):
    latitude: float  # radians
    length: float = 67.0
    gravity: float = 9.81
    omega_earth: float = OMEGA_EARTH
    frame_rate: Optional[float] = None


class FoucaultConfig(_FoucaultFields):
    """Pendulum and constraint-plane parameters.

    ``frame_rate`` is phi_dot of the rotating constraint plane; by
    default it is twice the precession rate, 2 * omega_earth *
    sin(latitude), which makes the normal-acceleration identity exact.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value is not None:
                check_real(name, value)
        latitude, length, gravity, omega_earth, _ = self
        if length <= 0 or gravity <= 0:
            raise ValidationError("pendulum length and gravity must be positive")
        if abs(latitude) > math.pi / 2:
            raise ValidationError(f"latitude must lie in [-pi/2, pi/2], got {latitude!r}")
        if omega_earth < 0:
            raise ValidationError(f"omega_earth must be >= 0, got {omega_earth!r}")
        return self

    @classmethod
    def _make(cls, iterable):  # the inherited one checks the length but skips __new__
        return cls(*super()._make(iterable))

    @property
    def precession_rate(self):
        """Omega = omega_earth * sin(latitude) (rad/s, signed)."""
        return self.omega_earth * math.sin(self.latitude)

    @property
    def phi_dot(self):
        if self.frame_rate is not None:
            return self.frame_rate
        return 2.0 * self.precession_rate

    @property
    def omega0(self):
        """Small-angle pendulum frequency sqrt(g / L)."""
        return math.sqrt(self.gravity / self.length)

    @property
    def period(self):
        return 2.0 * math.pi / self.omega0


def theta2_oneform(cfg):
    """The constraint one-form on the (t, x, y) chart, parsed from text.

    The rate enters as its ``repr``, which parses back to the same float.
    """
    r = repr(cfg.phi_dot)
    return formlang.parse_oneform(["0*t", f"-sin({r}*t)", f"cos({r}*t)"], "spacetime")


def foucault_frame_field(cfg, metric=None):
    """Adapted frame for theta2: columns e_t, e2(swing), e3(normal).  A
    ``metric`` of None is Euclidean."""
    metric = geometry.EUCLIDEAN if metric is None else metric
    return geometry.adapt_frame(theta2_oneform(cfg), metric)


class FoucaultGeometry(NamedTuple):
    """The Frobenius coefficient, the float ``FundamentalForms`` and the
    curvature report; ``metric`` reads through to the forms."""

    frobenius: float
    forms: geometry.FundamentalForms
    report: Optional[geometry.CurvatureReport]

    metric = property(lambda self: self.forms.metric)


def foucault_geometry(cfg, metric=None, t=0.0):
    """Frobenius coefficient and fundamental forms of the constraint plane.

    A ``metric`` of None is Euclidean.  The first fundamental form is
    reported in physical units (Minkowski: diag(c^2, -1)); the curvature
    report raises indices as every ``shape_and_curvatures`` call does, and
    is None where g is degenerate (the Galilean case).
    """
    metric = geometry.EUCLIDEAN if metric is None else metric
    theta = theta2_oneform(cfg)
    p = (t, 0.0, 0.0)
    frob = pfaff.frobenius_coefficient(theta, p)
    forms = geometry.fundamental_forms(theta, geometry.adapt_frame(theta, metric), metric, p)
    return FoucaultGeometry(frob, forms, geometry.curvatures_where_defined(forms))


# -- planar small-angle dynamics ----------------------------------------


class PendulumState(NamedTuple):
    t: float
    x: float
    y: float
    vx: float
    vy: float


class Trajectory(NamedTuple):
    times: Any  # a NumPy array, as are the states
    states: Any  # pendulum: columns x, y, vx, vy; transport: natural components
    config: "FoucaultConfig"


class Orbit(NamedTuple):
    """The orbit of y' = A y, A the ``generator``: row k is exp(k dt A)
    applied to ``initial``, at time ``t0 + dt * k``.  ``blocks()`` computes
    and holds one block of rows at a time; ``trajectory()`` holds the same
    rows, bit for bit, at once.
    The generator and the initial state are floats, so ``measure_precession``
    reads a pendulum orbit without NumPy.
    """

    config: "FoucaultConfig"
    generator: tuple  # rows of floats
    initial: tuple
    t0: float
    dt: float
    steps: int

    @property
    def rows(self):
        return self.steps + 1

    def _times(self, start, stop):
        import numpy as np

        times = np.arange(start, stop, dtype=float)
        times *= self.dt  # in place: the whole run's times are one array
        times += self.t0
        return times

    def blocks(self):
        k = 0
        for states in linear_flow_blocks(self.generator, self.initial, self.dt, self.steps):
            yield self._times(k, k + len(states)), states
            k += len(states)

    def trajectory(self):
        times = self._times(0, self.rows)
        states = linear_rk4_orbit(self.generator, self.initial, self.dt, self.steps)
        return Trajectory(times, states, self.config)


MAX_PHASE = 2.0**22  # rad, the largest turn of one orbit step accepted


def _check_resolved(omega_max, h, dt):
    """Refuse a step ``h``, derived from ``dt``, over which y' = A y, A's
    eigenvalues imaginary and at most ``omega_max`` in modulus, turns by more
    than MAX_PHASE.  ``flow_matrix`` leaves up to about 8 ulps of rounding
    per radian (measured to 1e8 rad), so an accepted step is exact to 3.7e-9."""
    if omega_max * abs(h) > MAX_PHASE:
        step = "" if h == dt else f" (steps of {h!r} s)"
        raise ValidationError(
            f"step size dt={dt!r}{step} turns the orbit by more than MAX_PHASE = 2^22 rad, "
            f"past which exp(dt A) may carry more than 3.7e-9 of rounding: the longest "
            f"step is {MAX_PHASE / omega_max!r} s"
        )


def dynamics_matrix(cfg):
    """Linearized co-rotating equations of motion for z = (x, y, vx, vy), as
    a tuple of float rows.

    x'' = -omega0^2 x - 2 Omega y',  y'' = -omega0^2 y + 2 Omega x'.
    """
    w0sq = cfg.omega0**2
    om = cfg.precession_rate
    return (
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (-w0sq, 0.0, 0.0, -2.0 * om),
        (0.0, -w0sq, 2.0 * om, 0.0),
    )


def _step_count(span, dt):
    """round(span / dt), refusing a quotient that is not finite or exceeds MAX_STEPS."""
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ValidationError(f"step size dt={dt!r} over {span!r} gives a non-finite step count")
    steps = int(round(ratio))
    if abs(steps) > MAX_STEPS:
        raise ValidationError(
            f"step size dt={dt!r} over {span!r} gives more than MAX_STEPS = {MAX_STEPS} steps"
        )
    return steps


def pendulum_orbit(cfg, initial, dt, duration):
    """The small-angle pendulum's ``Orbit`` over [0, T], sampled every ``dt``.

    ``initial`` is an (x, y, vx, vy) sequence.  The arguments are checked
    here, the step's turn with A's eigenvalues +-i (Omega +- sqrt(Omega^2 +
    omega0^2)).  t0 = -0.0, the additive identity, keeps the times ``dt * k``
    bit for bit.
    """
    steps = _step_count(check_real("duration", duration), check_step_size(dt, "step size dt"))
    if steps < 1:
        raise ValidationError(f"duration={duration!r} holds no step of dt={dt!r}: "
                              f"round(duration / dt) is {steps}")
    om = cfg.precession_rate
    _check_resolved(abs(om) + math.hypot(om, cfg.omega0), dt, dt)
    z0 = check_vector("initial pendulum state (x, y, vx, vy)", initial, 4)
    amplitude = math.hypot(z0[0], z0[1])
    if amplitude >= cfg.length:
        raise ValidationError(
            f"initial amplitude {amplitude:.3g} m exceeds the pendulum length "
            f"{cfg.length:.3g} m: small-angle model invalid"
        )
    return Orbit(cfg, dynamics_matrix(cfg), z0, -0.0, dt, steps)


def simulate_pendulum(cfg, initial, dt, duration):
    """The whole ``pendulum_orbit`` as a ``Trajectory``: 40 bytes a step, so
    prefer the orbit's blocks for long runs.  Row 0 is the initial state exactly."""
    return pendulum_orbit(cfg, initial, dt, duration).trajectory()


def decompose_acceleration(cfg, state, restoring):
    """Acceleration components (a0, a1, a2) in the rotating adapted frame.

    The state's velocity must lie along the instantaneous swing leg
    e1(t) = (cos phi, sin phi), phi = phi_dot * t, within 1e-6 (the
    Pfaffian constraint); then a0 = 0 along the time leg, a1 = minus the
    supplied restoring term along the swing, and a2 = phi_dot * v along
    the normal (v the signed speed) -- the normal-acceleration identity
    a2 = H(v, v) / |v|-scaling of the constraint geometry.  A state entry
    or a ``restoring`` that is not a finite real number raises
    ``ValidationError``.
    """
    t, _, _, vx, vy = check_vector("state (t, x, y, vx, vy)", state, 5)
    restoring = float(check_real("restoring", restoring))
    phi = cfg.phi_dot * t
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    speed = math.hypot(vx, vy)
    if speed > 1e-15:
        residual = abs(vx * -sin_phi + vy * cos_phi) / speed  # v . e2
        if residual > 1e-6:
            raise ConstraintViolationError(f"velocity leaves the swing plane at t={t!r}", residual)
    return 0.0, -restoring, cfg.phi_dot * (vx * cos_phi + vy * sin_phi)  # v . e1


# -- precession measurement ----------------------------------------------


class PrecessionEstimate(NamedTuple):
    rate: float  # rad/s, least-squares slope of the plane angle
    window_centers: tuple  # floats, the centre time of each window
    angles: tuple  # unwrapped plane angles (mod pi) per window
    center_states: tuple  # (x, y, vx, vy) at each window's centre sample


def _window_angle(mxx, myy, mxy, k, center):
    """Principal-axis angle of window ``k``'s second moments <x^2>, <y^2>, <xy>."""
    if not math.isfinite(mxx + myy + mxy):  # overflowed: no angle, not a wrong finite one
        raise EvaluationDomainError(f"the swing's second moments overflow in precession "
                                    f"window {k} (centre t = {center!r} s)")
    tr = mxx + myy
    half_gap = math.hypot(0.5 * (mxx - myy), mxy)
    lam1 = 0.5 * tr + half_gap  # the larger principal moment
    if not (tr > 0.0 and lam1 >= sys.float_info.min):  # a subnormal one keeps a few bits
        raise DegenerateWindowError(f"swing has no signal in precession window {k} (centre "
                                    f"t = {center!r} s): its larger principal moment {lam1!r} "
                                    "m^2 is not a positive normal float")
    anisotropy = 2.0 * half_gap / lam1  # (lam1 - lam2) / lam1
    if anisotropy < ANISOTROPY_TOL:
        raise DegenerateWindowError(
            f"swing plane ill-defined: moment anisotropy {anisotropy:.3f} "
            f"< {ANISOTROPY_TOL} (near-circular orbit)"
        )
    return 0.5 * math.atan2(2.0 * mxy, mxx - myy)


def _apply(m, z):
    return tuple(fold_sum(map(mul, row, z)) for row in m)


_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]  # the monomials z_i z_j, i <= j
# the selectors W of x^2, y^2 and xy: z^T W z is the monomial
_SELECTORS = [tuple(tuple(0.5 * ((i, j) == (a, b)) + 0.5 * ((i, j) == (b, a)) for j in range(4))
                    for i in range(4)) for a, b in ((0, 0), (1, 1), (0, 1))]


def _doubling(m, n, ws=()):
    """M^n and G(W) = sum_{j<n} (M^j)^T W M^j for each W in ``ws``, by binary
    doubling over the bits of n (Knuth, TAOCP vol. 2, 4.6.3): from c = 0,
    G_2c = G_c + (M^c)^T G_c M^c and G_c+1 = W + M^T G_c M."""
    power, forms = identity(len(m)), [((0.0,) * len(m),) * len(m)] * len(ws)
    for bit in bin(n)[2:]:
        forms = [matadd(g, matmul(tuple(zip(*power)), matmul(g, power))) for g in forms]
        power = matmul(power, power)
        if bit == "1":
            forms = [matadd(w, matmul(tuple(zip(*m)), matmul(g, m))) for w, g in zip(ws, forms)]
            power = matmul(power, m)
    return power, forms


def measure_precession(traj, window_seconds=None):
    """Least-squares precession rate of the swing plane of a pendulum ``Orbit``.

    The rows are cut into windows of n rows (default and minimum: two
    pendulum periods, so the angle is averaged over whole swings); a last
    partial window is dropped.  With M the one-step flow exp(dt A) and z a
    window's start state, the window's mean of x^2, y^2 or xy is z^T G z / n,
    G = sum_{j<n} (M^j)^T W M^j for a selector W.  G and M^n, which carries z
    to the next window, are built once by binary doubling, so no row is
    stepped.
    A window gives the principal-axis angle of its moments, its centre time
    t0 + dt (k n + (n - 1) / 2) and its state at row k n + floor((n - 1) / 2),
    the earlier of two middle rows.  The angles are unwrapped modulo pi and
    fit by least squares.  Against the means over the stepped rows
    (``tests/precession_reference.py``) the rate agrees to 3.3e-12
    (relative), the angles to 1.1e-12 rad and the centre states to 1e-10 of
    their largest entry (two-hour Paris run: M^n's phase error of about n
    ulps adds up over 219 windows).  Overflowing moments raise
    ``EvaluationDomainError``; a ``traj`` other than a pendulum ``Orbit``
    stepping forward raises ``ValidationError``.
    """
    if not isinstance(traj, Orbit):
        raise ValidationError(f"traj must be a pendulum Orbit, got a {type(traj).__name__}")
    if len(traj.initial) != 4:
        raise ValidationError(f"traj must hold pendulum states (x, y, vx, vy), "
                              f"got rows of {len(traj.initial)} entries")
    dt = traj.dt
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"traj must step forward in time, got a step of {dt!r}")
    cfg = traj.config
    if window_seconds is None:
        window_seconds = 2.0 * cfg.period
    if check_real("window_seconds", window_seconds) < 2.0 * cfg.period:
        raise ValidationError(
            f"window {window_seconds:.3g} s shorter than two pendulum "
            f"periods ({2 * cfg.period:.3g} s)"
        )
    n = max(2, int(round(window_seconds / dt)))
    n_windows = traj.rows // n
    if n_windows < 2:
        raise ValidationError(
            f"trajectory too short: {n_windows} window(s) of {window_seconds:.3g} s"
        )
    m = flow_matrix(traj.generator, dt)
    advance, forms = _doubling(m, n, _SELECTORS)
    # z^T G z as coefficients of the monomials z_i z_j, i <= j
    coefficients = [[(2.0 - (i == j)) * g[i][j] for i, j in _PAIRS] for g in forms]
    to_center = _doubling(m, (n - 1) // 2)[0]
    z = traj.initial
    centers, angles, center_states = [], [], []
    for k in range(n_windows):
        center = traj.t0 + dt * (k * n + 0.5 * (n - 1))
        monomials = [z[i] * z[j] for i, j in _PAIRS]
        moments = [fold_sum(map(mul, c, monomials)) / n for c in coefficients]
        angles.append(_window_angle(*moments, k, center))
        centers.append(center)
        center_states.append(_apply(to_center, z))
        z = _apply(advance, z)
    for k in range(1, n_windows):  # unwrap modulo pi (the plane angle is direction-free)
        angles[k] -= math.pi * round((angles[k] - angles[k - 1]) / math.pi)
    mean_t = math.fsum(centers) / n_windows
    dts = [t - mean_t for t in centers]  # sum to zero, so the angles need no centring
    slope = math.fsum(d * a for d, a in zip(dts, angles)) / math.fsum(d * d for d in dts)
    return PrecessionEstimate(slope, tuple(centers), tuple(angles), tuple(center_states))


# -- parallel transport ---------------------------------------------------


def transport_generator(cfg, kind="vector"):
    """Chart-component transport matrix W along the time direction, as a
    tuple of float rows.

    Frame-constant vectors obey v' = W v; covectors obey a' = -W^T a, the
    same matrix, as W is antisymmetric.
    """
    rate = cfg.phi_dot
    if kind in ("vector", "covector"):
        return (0.0, 0.0, 0.0), (0.0, 0.0, -rate), (0.0, rate, 0.0)
    raise ValidationError(f"transport kind must be 'vector' or 'covector', got {kind!r}")


def transport_orbit(cfg, kind, initial, t0, t1, dt):
    """Parallel transport of natural components from t0 to t1, as an ``Orbit``
    of round((t1 - t0) / dt) equal steps, at least one.  Its step, up to
    1.5 dt, is checked for its turn (A's eigenvalues 0, +-i phi_dot)."""
    initial = check_vector("initial transported components", initial, 3)
    if check_real("t1", t1) <= check_real("t0", t0):
        raise ValidationError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    if check_real("dt", dt) <= 0:
        raise ValidationError(f"step size dt must be positive and finite, got {dt!r}")
    steps = max(1, _step_count(t1 - t0, dt))
    h = (t1 - t0) / steps
    _check_resolved(abs(cfg.phi_dot), h, dt)
    return Orbit(cfg, transport_generator(cfg, kind), initial, t0, h, steps)


def parallel_transport(cfg, kind, initial, t0, t1, dt):
    """The whole ``transport_orbit`` held in memory, as a ``Trajectory``."""
    return transport_orbit(cfg, kind, initial, t0, t1, dt).trajectory()


# -- small physical helpers ------------------------------------------------


def precession_per_day(cfg):
    """Plane rotation per solar day, in radians (signed)."""
    return cfg.precession_rate * SECONDS_PER_DAY
