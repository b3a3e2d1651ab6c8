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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff
from .calculus import OneForm, scalar_field
from .errors import ConstraintViolationError, DegenerateWindowError, ValidationError
from .geometry import (
    EUCLIDEAN,
    CurvatureReport,
    MetricSignature,
    adapt_frame,
    fundamental_forms,
    shape_and_curvatures,
)
from .integrate import linear_rk4_orbit, validate_steps
from .pfaff import frobenius_coefficient

OMEGA_EARTH = 7.292e-5  # rad/s, sidereal rotation rate
EARTH_RADIUS = 6.378e6  # m, equatorial
SECONDS_PER_DAY = 86400.0
ANISOTROPY_TOL = 0.05


@dataclass(frozen=True)
class FoucaultConfig:
    """Pendulum and constraint-plane parameters.

    ``frame_rate`` is phi_dot of the rotating constraint plane; by
    default it is twice the precession rate, 2 * omega_earth *
    sin(latitude), which makes the normal-acceleration identity exact.
    """

    latitude: float  # radians
    length: float = 67.0
    gravity: float = 9.81
    omega_earth: float = OMEGA_EARTH
    frame_rate: Optional[float] = None

    def __post_init__(self):
        if self.length <= 0 or self.gravity <= 0:
            raise ValidationError("pendulum length and gravity must be positive")
        if abs(self.latitude) > math.pi / 2:
            raise ValidationError(f"latitude must lie in [-pi/2, pi/2], got {self.latitude!r}")
        if self.omega_earth < 0:
            raise ValidationError(f"omega_earth must be >= 0, got {self.omega_earth!r}")

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
    """The constraint one-form on the (t, x, y) chart."""
    rate = cfg.phi_dot

    def minus_sin(t, x, y):
        return -autodiff.sin(rate * t)

    def plus_cos(t, x, y):
        return autodiff.cos(rate * t)

    return OneForm(
        [scalar_field(lambda t, x, y: 0.0 * t), scalar_field(minus_sin), scalar_field(plus_cos)],
        chart="spacetime",
    )


def foucault_frame_field(cfg, metric=EUCLIDEAN):
    """Adapted frame for theta2: columns e_t, e2(swing), e3(normal)."""
    return adapt_frame(theta2_oneform(cfg), metric)


def foucault_frame(cfg, t):
    """Frame matrix at time t (the frame is x, y independent)."""
    return foucault_frame_field(cfg).matrix_at((t, 0.0, 0.0))


@dataclass(frozen=True)
class FoucaultGeometry:
    frobenius: float
    g: np.ndarray
    h: np.ndarray
    report: Optional[CurvatureReport]
    metric: MetricSignature


def foucault_geometry(cfg, metric=EUCLIDEAN, t=0.0):
    """Frobenius coefficient and fundamental forms of the constraint plane.

    The first fundamental form is reported in physical units (Minkowski:
    diag(c^2, -1)); curvature eigenvalues for the Minkowski case use the
    c-normalized metric so they stay O(phi_dot).  A degenerate g (the
    Galilean case) yields report=None.
    """
    theta = theta2_oneform(cfg)
    frame = adapt_frame(theta, metric)
    p = (t, 0.0, 0.0)
    frob = frobenius_coefficient(theta, p)
    forms = fundamental_forms(theta, frame, metric, p)
    if metric.degenerate:
        report = None
    elif metric.indefinite:
        x = frame.matrix_at(p)[:, :2]
        g_norm = x.T @ metric.normalized_matrix @ x
        report = shape_and_curvatures(
            type(forms)(0.5 * (g_norm + g_norm.T), forms.h, forms.point, metric)
        )
    else:
        report = shape_and_curvatures(forms)
    return FoucaultGeometry(frob, forms.g, forms.h, report, metric)


# -- planar small-angle dynamics ----------------------------------------


@dataclass(frozen=True)
class PendulumState:
    t: float
    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # columns x, y, vx, vy
    config: "FoucaultConfig"

    @property
    def x(self):
        return self.states[:, 0]

    @property
    def y(self):
        return self.states[:, 1]

    @property
    def vx(self):
        return self.states[:, 2]

    @property
    def vy(self):
        return self.states[:, 3]

    def state_at(self, index):
        x, y, vx, vy = self.states[index]
        return PendulumState(float(self.times[index]), x, y, vx, vy)


def dynamics_matrix(cfg):
    """Linearized co-rotating equations of motion for z = (x, y, vx, vy).

    x'' = -omega0^2 x - 2 Omega y',  y'' = -omega0^2 y + 2 Omega x'.
    """
    w0sq = cfg.omega0**2
    om = cfg.precession_rate
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-w0sq, 0.0, 0.0, -2.0 * om],
            [0.0, -w0sq, 2.0 * om, 0.0],
        ]
    )


def simulate_pendulum(cfg, initial, dt, duration):
    """Fixed-step RK4 trajectory of the small-angle pendulum over [0, T].

    ``initial`` is a PendulumState or an (x, y, vx, vy) sequence; it is
    row 0 of the states exactly.  The states are ``linear_rk4_orbit`` of
    the linearized dynamics; over 2e5 steps the tests hold them to within
    1e-12 of the largest state component from stepping the one-step RK4
    matrix.
    """
    if dt == 0.0 or not math.isfinite(dt):
        raise ValidationError(f"step size dt must be finite and non-zero, got {dt!r}")
    steps = int(round(duration / dt))
    validate_steps(steps, dt)
    if isinstance(initial, PendulumState):
        initial = (initial.x, initial.y, initial.vx, initial.vy)
    z0 = np.asarray(initial, dtype=float)
    if z0.shape != (4,):
        raise ValidationError("initial pendulum state must be (x, y, vx, vy)")
    amplitude = math.hypot(z0[0], z0[1])
    if amplitude >= cfg.length:
        raise ValidationError(
            f"initial amplitude {amplitude:.3g} m exceeds the pendulum length "
            f"{cfg.length:.3g} m: small-angle model invalid"
        )
    states = linear_rk4_orbit(dynamics_matrix(cfg), z0, dt, steps)
    times = dt * np.arange(steps + 1)
    return Trajectory(times, states, cfg)


def decompose_acceleration(cfg, state, restoring):
    """Acceleration components (a0, a1, a2) in the rotating adapted frame.

    The state's velocity must lie along the instantaneous swing leg
    e1(t) = (cos phi, sin phi), phi = phi_dot * t, within 1e-6 (the
    Pfaffian constraint); then a0 = 0 along the time leg, a1 = minus the
    supplied restoring term along the swing, and a2 = phi_dot * v along
    the normal (v the signed speed) -- the normal-acceleration identity
    a2 = H(v, v) / |v|-scaling of the constraint geometry.
    """
    v = np.array([state.vx, state.vy])
    speed = float(np.linalg.norm(v))
    phi = cfg.phi_dot * state.t
    e1 = np.array([math.cos(phi), math.sin(phi)])
    e2 = np.array([-math.sin(phi), math.cos(phi)])
    if speed > 1e-15:
        residual = abs(float(v @ e2)) / speed
        if residual > 1e-6:
            raise ConstraintViolationError(
                f"velocity leaves the swing plane at t={state.t!r}", residual
            )
    v_signed = float(v @ e1)
    return 0.0, -float(restoring), cfg.phi_dot * v_signed


# -- precession measurement ----------------------------------------------


@dataclass(frozen=True)
class PrecessionEstimate:
    rate: float  # rad/s, least-squares slope of the plane angle
    window_centers: np.ndarray
    angles: np.ndarray  # unwrapped plane angles (mod pi) per window


def _window_angle(x, y):
    """Principal-axis angle of the second-moment matrix of a point cloud."""
    mxx = float(np.mean(x * x))
    myy = float(np.mean(y * y))
    mxy = float(np.mean(x * y))
    tr = mxx + myy
    if tr <= 0:
        raise DegenerateWindowError("window has no signal (all points at origin)")
    half_gap = math.hypot(0.5 * (mxx - myy), mxy)
    lam1 = 0.5 * tr + half_gap
    lam2 = 0.5 * tr - half_gap
    anisotropy = (lam1 - lam2) / lam1
    if anisotropy < ANISOTROPY_TOL:
        raise DegenerateWindowError(
            f"swing plane ill-defined: moment anisotropy {anisotropy:.3f} "
            f"< {ANISOTROPY_TOL} (near-circular orbit)"
        )
    return 0.5 * math.atan2(2.0 * mxy, mxx - myy)


def measure_precession(traj, window_seconds=None):
    """Least-squares precession rate of the swing plane.

    The trajectory is cut into non-overlapping windows (default and
    minimum: two pendulum periods, so the plane angle is averaged over
    whole swings); each window contributes a principal-axis angle, the
    angles are unwrapped modulo pi and fit by least squares.
    """
    cfg = traj.config
    if window_seconds is None:
        window_seconds = 2.0 * cfg.period
    if window_seconds < 2.0 * cfg.period:
        raise ValidationError(
            f"window {window_seconds:.3g} s shorter than two pendulum "
            f"periods ({2 * cfg.period:.3g} s)"
        )
    times = traj.times
    dt = float(times[1] - times[0])
    per_window = max(2, int(round(window_seconds / dt)))
    n_windows = len(times) // per_window
    if n_windows < 2:
        raise ValidationError(
            f"trajectory too short: {n_windows} window(s) of {window_seconds:.3g} s"
        )
    centers = np.empty(n_windows)
    angles = np.empty(n_windows)
    for k in range(n_windows):
        sl = slice(k * per_window, (k + 1) * per_window)
        centers[k] = float(np.mean(times[sl]))
        angles[k] = _window_angle(traj.x[sl], traj.y[sl])
    # unwrap modulo pi (the plane angle is direction-free)
    for k in range(1, n_windows):
        while angles[k] - angles[k - 1] > math.pi / 2:
            angles[k] -= math.pi
        while angles[k] - angles[k - 1] < -math.pi / 2:
            angles[k] += math.pi
    slope = np.polyfit(centers, angles, 1)[0]
    return PrecessionEstimate(float(slope), centers, angles)


# -- parallel transport ---------------------------------------------------


@dataclass(frozen=True)
class TransportState:
    times: np.ndarray
    components: np.ndarray  # natural (chart) components, shape (n, 3)
    kind: str = "vector"


def transport_generator(cfg, kind="vector"):
    """Chart-component transport matrix W along the time direction.

    Frame-constant vectors obey v' = W v; covectors obey a' = -W^T a.
    """
    rate = cfg.phi_dot
    w = rate * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    if kind == "vector":
        return w
    if kind == "covector":
        return -w.T
    raise ValidationError(f"transport kind must be 'vector' or 'covector', got {kind!r}")


def parallel_transport(cfg, kind, initial, t0, t1, dt):
    """RK4 parallel transport of natural components from t0 to t1."""
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (3,):
        raise ValidationError("transported components must have shape (3,)")
    if t1 <= t0:
        raise ValidationError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    if dt <= 0 or not math.isfinite(dt):
        raise ValidationError(f"step size dt must be positive and finite, got {dt!r}")
    steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / steps
    states = linear_rk4_orbit(transport_generator(cfg, kind), initial, h, steps)
    return TransportState(t0 + h * np.arange(steps + 1), states, kind)


# -- small physical helpers ------------------------------------------------


def centripetal_acceleration(cfg, radius=EARTH_RADIUS):
    """Magnitude of the rotational centripetal acceleration at latitude."""
    return cfg.omega_earth**2 * radius * math.cos(cfg.latitude)


def precession_per_day(cfg):
    """Plane rotation per solar day, in radians (signed)."""
    return cfg.precession_rate * SECONDS_PER_DAY
