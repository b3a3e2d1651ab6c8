"""Rotating-plane pendulum: geometry, dynamics, precession, transport."""

import math

import numpy as np
import pytest

from pseudoform import foucault as fc
from pseudoform.errors import (
    ConstraintViolationError,
    DegenerateWindowError,
    EvaluationDomainError,
    ValidationError,
)
from pseudoform.geometry import (
    EUCLIDEAN,
    GALILEAN,
    MINKOWSKI,
    PseudoSurface,
    connection_form,
)
from pseudoform.integrate import rk4_transition_matrix
from pseudoform.pfaff import frobenius_coefficient
import precession_reference as reference
from test_geometry import structure_functions

PARIS = fc.FoucaultConfig(latitude=math.radians(48.85), length=67.0)


def _closed_form(cfg, z0, v0, times):
    """Exact small-angle solution in the co-rotating frame (complex form)."""
    om = cfg.precession_rate
    om_prime = math.sqrt(cfg.omega0**2 + om**2)
    a_plus_b = z0
    a_minus_b = (v0 - 1j * om * z0) / (1j * om_prime)
    a = 0.5 * (a_plus_b + a_minus_b)
    b = 0.5 * (a_plus_b - a_minus_b)
    return np.exp(1j * om * times) * (
        a * np.exp(1j * om_prime * times) + b * np.exp(-1j * om_prime * times)
    )


def test_config_defaults_and_validation():
    cfg = fc.FoucaultConfig(latitude=math.radians(30.0))
    assert np.isclose(cfg.precession_rate, fc.OMEGA_EARTH * 0.5)
    assert np.isclose(cfg.phi_dot, 2 * cfg.precession_rate)
    override = fc.FoucaultConfig(latitude=0.3, frame_rate=1.0)
    assert override.phi_dot == 1.0
    with pytest.raises(ValidationError):
        fc.FoucaultConfig(latitude=0.3, length=-1.0)
    with pytest.raises(ValidationError):
        fc.FoucaultConfig(latitude=2.0)
    with pytest.raises(ValidationError):
        fc.FoucaultConfig(latitude=0.3, omega_earth=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["latitude", "length", "gravity", "omega_earth", "frame_rate"])
def test_config_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValidationError, match=field):
        fc.FoucaultConfig(**{"latitude": 0.3, field: value})


def test_step_count_is_capped_at_max_steps():
    # the orbit is lazy, so accepting MAX_STEPS steps computes nothing
    cfg = fc.FoucaultConfig(latitude=0.5)
    dt = 0.5
    assert fc.pendulum_orbit(cfg, (0.1, 0, 0, 0), dt, fc.MAX_STEPS * dt).steps == fc.MAX_STEPS
    with pytest.raises(ValidationError, match="dt"):
        fc.pendulum_orbit(cfg, (0.1, 0, 0, 0), dt, (fc.MAX_STEPS + 1) * dt)
    with pytest.raises(ValidationError, match="dt"):
        fc.transport_orbit(cfg, "vector", (0.0, 1.0, 0.0), 0.0, 1.0, 1e-300)


@pytest.mark.parametrize("cfg", [
    fc.FoucaultConfig(latitude=0.8527),
    fc.FoucaultConfig(latitude=-0.6),
    fc.FoucaultConfig(latitude=0.3, frame_rate=95.6e-6),
], ids=["north", "south", "frame_rate"])
def test_theta2_text_matches_math_bit_for_bit(cfg):
    r = cfg.phi_dot
    theta = fc.theta2_oneform(cfg)
    assert theta.chart == "spacetime"
    for t in (0.0, 321.0, -4000.5, 86400.0):
        vals, jac = theta.values_and_jacobian((t, 0.0, 0.0))
        assert vals == (0.0, -math.sin(r * t), math.cos(r * t))
        assert jac[0] == (0.0, -r * math.cos(r * t), -r * math.sin(r * t))


def test_theta2_components():
    theta = fc.theta2_oneform(PARIS)
    t = 321.0
    phi = PARIS.phi_dot * t
    assert np.allclose(
        theta.components_at((t, 0.4, -0.2)), [0.0, -math.sin(phi), math.cos(phi)]
    )


def test_frame_identity_at_t0():
    x = fc.foucault_frame_field(PARIS).matrix_at((0.0, 0.0, 0.0))
    assert np.allclose(x, np.eye(3), atol=1e-14)


def test_frame_quarter_turn():
    cfg = fc.FoucaultConfig(latitude=0.3, frame_rate=1.0)
    x = fc.foucault_frame_field(cfg).matrix_at((math.pi / 2, 0.0, 0.0))
    # swing leg e1 -> +y axis, normal e2 -> -x axis
    assert np.allclose(x[:, 1], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(x[:, 2], [0.0, -1.0, 0.0], atol=1e-12)
    assert np.allclose(x[:, 0], [1.0, 0.0, 0.0], atol=1e-14)


def test_frame_rotation_block():
    for t in (10.0, 2000.0, 54321.0):
        phi = PARIS.phi_dot * t
        r = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.cos(phi), -math.sin(phi)],
                [0.0, math.sin(phi), math.cos(phi)],
            ]
        )
        assert np.allclose(fc.foucault_frame_field(PARIS).matrix_at((t, 0.0, 0.0)), r, atol=1e-12)


def test_connection_structure():
    frame = fc.foucault_frame_field(PARIS)
    rate = PARIS.phi_dot
    omega = connection_form(frame, (777.0, 0.0, 0.0))
    assert np.isclose(omega[2, 1, 0], rate, rtol=1e-10)
    assert np.isclose(omega[1, 2, 0], -rate, rtol=1e-10)
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[2, 1, 0] = mask[1, 2, 0] = False
    assert np.max(np.abs(omega[mask])) < 1e-12 * rate + 1e-16
    # nothing depends on the spatial directions
    assert np.max(np.abs(omega[:, :, 1:])) < 1e-16


def test_structure_functions_proportional_to_rate():
    frame = fc.foucault_frame_field(PARIS)
    _, c_norm = structure_functions(frame, (5.0, 0.0, 0.0))
    assert np.isclose(abs(c_norm[0, 1]), PARIS.phi_dot, rtol=1e-10)
    zero = fc.FoucaultConfig(latitude=0.0)
    _, c_zero = structure_functions(fc.foucault_frame_field(zero), (5.0, 0.0, 0.0))
    assert np.max(np.abs(c_zero)) < 1e-16


@pytest.mark.parametrize("psi_deg", [15.0, 45.0, 75.0])
def test_frobenius_magnitude(psi_deg):
    cfg = fc.FoucaultConfig(latitude=math.radians(psi_deg))
    expect = 2 * cfg.omega_earth * math.sin(cfg.latitude)
    geo = fc.foucault_geometry(cfg)
    assert np.isclose(abs(geo.frobenius), expect, rtol=1e-12)
    # same value straight from the Pfaffian machinery, at several times
    theta = fc.theta2_oneform(cfg)
    for t in (0.0, 123.0, 9999.0):
        assert np.isclose(
            abs(frobenius_coefficient(theta, (t, 0.0, 0.0))), expect, rtol=1e-12
        )


def test_frobenius_vanishes_at_equator():
    geo = fc.foucault_geometry(fc.FoucaultConfig(latitude=0.0))
    assert geo.frobenius == 0.0
    assert np.max(np.abs(geo.h)) == 0.0


def test_frobenius_at_pole_value():
    geo = fc.foucault_geometry(fc.FoucaultConfig(latitude=math.pi / 2))
    assert np.isclose(abs(geo.frobenius), 1.4584e-4, rtol=1e-4)


def test_geometry_euclidean():
    geo = fc.foucault_geometry(PARIS, EUCLIDEAN, t=2.5)
    rate = PARIS.phi_dot
    assert np.allclose(geo.g, np.eye(2), atol=1e-12)
    assert np.isclose(geo.h[0, 1], 0.5 * rate, rtol=1e-10)
    assert abs(geo.h[0, 0]) < 1e-16 and abs(geo.h[1, 1]) < 1e-16
    eigs = sorted((geo.report.kappa1, geo.report.kappa2), key=lambda z: z.real)
    assert np.isclose(eigs[0].real, -0.5 * rate, rtol=1e-10)
    assert np.isclose(eigs[1].real, 0.5 * rate, rtol=1e-10)
    assert np.isclose(geo.report.gaussian, -0.25 * rate**2, rtol=1e-10)
    assert abs(geo.report.mean) < 1e-12


def test_geometry_minkowski():
    geo = fc.foucault_geometry(PARIS, MINKOWSKI)
    c = MINKOWSKI.light_speed
    assert np.allclose(geo.g, np.diag([c**2, -1.0]), rtol=1e-12)
    rate = PARIS.phi_dot
    eigs = sorted((geo.report.kappa1, geo.report.kappa2), key=lambda z: z.imag)
    assert np.isclose(eigs[0].imag, -0.5 * rate, rtol=1e-10)
    assert np.isclose(eigs[1].imag, 0.5 * rate, rtol=1e-10)
    assert abs(eigs[0].real) < 1e-10 * rate and abs(eigs[1].real) < 1e-10 * rate


@pytest.mark.parametrize("metric", [EUCLIDEAN, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_surface_route_curvatures_match_foucault_geometry(metric):
    surface = PseudoSurface.from_pfaffian(fc.theta2_oneform(PARIS), metric)
    assert surface.curvature_report((0.0, 0.0, 0.0)) == fc.foucault_geometry(PARIS, metric).report


def test_geometry_galilean_degenerate():
    geo = fc.foucault_geometry(PARIS, GALILEAN)
    assert np.allclose(geo.g, np.diag([0.0, 1.0]))
    assert geo.report is None


def test_second_form_matches_connection_route():
    from pseudoform.geometry import second_form_via_connection

    frame = fc.foucault_frame_field(PARIS)
    geo = fc.foucault_geometry(PARIS, t=42.0)
    assert np.allclose(
        geo.h, second_form_via_connection(frame, (42.0, 0.0, 0.0)), atol=1e-10 * PARIS.phi_dot
    )


# -- dynamics --------------------------------------------------------------


def test_sim_no_rotation_is_planar():
    cfg = fc.FoucaultConfig(latitude=0.0, length=10.0)
    traj = fc.simulate_pendulum(cfg, (0.2, 0.0, 0.0, 0.0), 1e-3, 20.0)
    assert np.max(np.abs(traj.states[:, 1])) == 0.0
    assert np.max(np.abs(traj.states[:, 3])) == 0.0
    # harmonic at omega0
    expect = 0.2 * np.cos(cfg.omega0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expect)) < 1e-8


def test_sim_equilibrium():
    traj = fc.simulate_pendulum(PARIS, (0.0, 0.0, 0.0, 0.0), 1e-2, 10.0)
    assert np.max(np.abs(traj.states)) == 0.0


def test_sim_matches_closed_form():
    traj = fc.simulate_pendulum(PARIS, (0.1, 0.0, 0.0, 0.02), 1e-3, 100.0)
    z = _closed_form(PARIS, 0.1 + 0.0j, 0.0 + 0.02j, traj.times)
    assert np.max(np.abs(traj.states[:, 0] - z.real)) < 1e-10
    assert np.max(np.abs(traj.states[:, 1] - z.imag)) < 1e-10


def test_sim_reversibility():
    fwd = fc.simulate_pendulum(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 30.0)
    back = fc.simulate_pendulum(PARIS, fwd.states[-1], -1e-3, -30.0)
    assert np.max(np.abs(back.states[-1] - fwd.states[0])) < 1e-6 * 0.1


def test_sim_first_state_is_initial_exactly():
    for initial in [(0.0731, 0.0412, 0.0, 0.0), (0.08, -0.03, 0.001, 0.002)]:
        traj = fc.simulate_pendulum(PARIS, initial, 1e-3, 10.0)
        assert traj.states[0].tobytes() == np.array(initial).tobytes()


def test_sim_amplitude_validation():
    with pytest.raises(ValidationError):
        fc.simulate_pendulum(PARIS, (100.0, 0.0, 0.0, 0.0), 1e-3, 1.0)
    with pytest.raises(ValidationError):
        fc.simulate_pendulum(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 1e-4)


def test_trajectory_uniform_spacing():
    traj = fc.simulate_pendulum(PARIS, (0.1, 0.0, 0.0, 0.0), 0.5, 100.0)
    dts = np.diff(traj.times)
    assert np.max(np.abs(dts - 0.5)) < 1e-12


def _spectral_radius(a, h):
    return max(abs(np.linalg.eigvals(rk4_transition_matrix(a, h))))


_FAST = fc.FoucaultConfig(latitude=0.8526)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_a_pendulum_step_past_rk4s_stability_limit_is_refused(sign):
    om = _FAST.precession_rate
    h_max = fc.RK4_STABILITY_LIMIT / (abs(om) + math.hypot(om, _FAST.omega0))
    assert abs(h_max - 7.3907) < 1e-4
    inside, outside = sign * 0.999999 * h_max, sign * 1.000001 * h_max
    # the one-step matrix's spectral radius crosses 1 between the two steps
    a = fc.dynamics_matrix(_FAST)
    assert _spectral_radius(a, inside) < 1.0 < _spectral_radius(a, outside)
    states = fc.simulate_pendulum(_FAST, (0.1, 0.0, 0.0, 0.0), inside, 1000 * inside).states
    assert np.max(np.abs(states[:, :2])) < 1.0
    for call in (fc.pendulum_orbit, fc.simulate_pendulum):
        with pytest.raises(ValidationError, match=f"dt={outside!r} is past RK4's stability "
                                                  f"limit: the largest stable step is 7.3906"):
            call(_FAST, (0.1, 0.0, 0.0, 0.0), outside, 1000 * outside)


def test_a_step_far_past_the_limit_is_refused_before_any_precession():
    with pytest.raises(ValidationError, match="dt=1000.0 is past RK4's stability limit"):
        fc.pendulum_orbit(_FAST, (0.1, 0.0, 0.0, 0.0), 1e3, 1e5)


@pytest.mark.parametrize("kind", ["vector", "covector"])
def test_a_transport_step_past_rk4s_stability_limit_is_refused(kind):
    h_max = fc.RK4_STABILITY_LIMIT / _FAST.phi_dot
    w = fc.transport_generator(_FAST, kind)
    assert _spectral_radius(w, 0.999999 * h_max) <= 1.0 < _spectral_radius(w, 1.000001 * h_max)
    inside = fc.transport_orbit(_FAST, kind, (0.0, 1.0, 0.0), 0.0, 2 * 0.999999 * h_max,
                                0.999999 * h_max)
    assert inside.steps == 2 and np.all(np.isfinite(inside.trajectory().states))
    with pytest.raises(ValidationError, match="largest stable step is 25755.9"):
        fc.transport_orbit(_FAST, kind, (0.0, 1.0, 0.0), 0.0, 2 * 1.000001 * h_max,
                           1.000001 * h_max)
    # dt = 0.9 h_max is stable, but 1.4 dt rounds to one step of 1.26 h_max
    dt = 0.9 * h_max
    with pytest.raises(ValidationError, match=f"dt={dt!r} \\(RK4 steps of {1.4 * dt!r} s\\)"):
        fc.parallel_transport(_FAST, kind, (0.0, 1.0, 0.0), 0.0, 1.4 * dt, dt)


def test_decompose_acceleration_at_rest():
    state = fc.PendulumState(0.0, 0.05, 0.0, 0.0, 0.0)
    a0, a1, a2 = fc.decompose_acceleration(PARIS, state, restoring=0.007)
    assert a0 == 0.0 and a1 == -0.007 and a2 == 0.0


def test_decompose_acceleration_coriolis_magnitude():
    cfg = fc.FoucaultConfig(latitude=0.3, frame_rate=9.56e-5)
    phi = cfg.phi_dot * 10.0
    state = fc.PendulumState(10.0, 0.0, 0.0, math.cos(phi), math.sin(phi))
    _, _, a2 = fc.decompose_acceleration(cfg, state, restoring=0.0)
    assert np.isclose(abs(a2), 9.56e-5, rtol=1e-12)
    assert np.isclose(abs(a2) / 9.81, 9.74e-6, rtol=0.01)


def test_decompose_acceleration_constraint_violation():
    state = fc.PendulumState(0.0, 0.0, 0.0, 0.0, 1.0)  # velocity along e2
    with pytest.raises(ConstraintViolationError):
        fc.decompose_acceleration(PARIS, state, restoring=0.0)


def test_decompose_matches_second_form():
    # a2 = phi_dot * v = 2 H_01 * v: the H(v, v) identity
    geo = fc.foucault_geometry(PARIS)
    v = -0.73
    phi = PARIS.phi_dot * 55.0
    state = fc.PendulumState(55.0, 0.0, 0.0, v * math.cos(phi), v * math.sin(phi))
    _, _, a2 = fc.decompose_acceleration(PARIS, state, restoring=0.1)
    assert np.isclose(a2, 2.0 * geo.h[0, 1] * v, rtol=1e-9)


# -- precession measurement -------------------------------------------------


def test_a_pendulum_orbit_holds_its_generator_and_start_as_floats():
    orbit = fc.pendulum_orbit(PARIS, [0.1, 0, 0, 0], 1e-3, 10.0)
    for record in (orbit.generator, *orbit.generator, orbit.initial):
        assert type(record) is tuple
    assert all(type(v) is float for row in orbit.generator for v in (*row, *orbit.initial))


def test_precession_zero_rotation():
    cfg = fc.FoucaultConfig(latitude=0.0, length=10.0)
    orbit = fc.pendulum_orbit(cfg, (0.2, 0.0, 0.0, 0.0), 1e-3, 600.0)
    est = fc.measure_precession(orbit, 60.0)
    assert abs(est.rate) < 1e-9


def test_precession_paris_oracle():
    orbit = fc.pendulum_orbit(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 1200.0)
    est = fc.measure_precession(orbit, 120.0)
    assert np.isclose(est.rate, PARIS.precession_rate, rtol=0.02)


def test_reference_precession_synthetic_rotation():
    cfg = fc.FoucaultConfig(latitude=math.radians(40.0), length=10.0)
    rate = 5e-4  # fast synthetic precession
    times = np.arange(0, 2000.0, 0.05)
    z = np.exp(1j * rate * times) * np.cos(cfg.omega0 * times) * 0.2
    states = np.column_stack([z.real, z.imag, np.gradient(z.real, times), np.gradient(z.imag, times)])
    est = reference.measure_precession(fc.Trajectory(times, states, cfg), 40.0)
    assert np.isclose(est.rate, rate, rtol=0.01)


def test_reference_precession_degenerate_circular_window():
    cfg = fc.FoucaultConfig(latitude=0.0, length=10.0)
    times = np.arange(0, 400.0, 0.05)
    w = cfg.omega0
    states = np.column_stack(
        [0.2 * np.cos(w * times), 0.2 * np.sin(w * times), -0.2 * w * np.sin(w * times), 0.2 * w * np.cos(w * times)]
    )
    with pytest.raises(DegenerateWindowError):
        reference.measure_precession(fc.Trajectory(times, states, cfg), 40.0)


def test_a_circular_pendulum_orbit_is_a_degenerate_window():
    cfg = fc.FoucaultConfig(latitude=0.0, length=10.0)
    orbit = fc.pendulum_orbit(cfg, (0.2, 0.0, 0.0, 0.2 * cfg.omega0), 0.05, 400.0)
    with pytest.raises(DegenerateWindowError, match="near-circular orbit"):
        fc.measure_precession(orbit, 40.0)


# bounds of the exact window moments against the streamed window sums, 10 to
# 20 times the largest error measured over these cases: M^n from binary
# powering carries a phase error of about n ulps, and window k's state k times it
RATE_BOUND = 2e-10  # relative; measured 1.2e-11
ANGLE_BOUND = 2e-11  # rad; measured 1.1e-12
CENTER_BOUND = 2e-15  # relative to the largest centre time; measured 1.3e-16
STATE_BOUND = 1e-9  # relative to the largest centre-state entry; measured 9.8e-11
_TEN = fc.FoucaultConfig(latitude=0.853, length=10.0)
_SWING = (0.2, 0.05, 0.0, 0.0)


@pytest.mark.parametrize(
    "cfg, initial, dt, duration, window",
    [
        # odd and even rows per window (an even one has its centre between two rows)
        (_TEN, _SWING, 0.01, 600.0, 60.01),
        (_TEN, _SWING, 0.01, 600.0, 60.0),
        # 60000 rows: ten whole windows of 6000; every other case ends in a
        # partial window, which is dropped
        (_TEN, _SWING, 0.01, 599.99, 60.0),
        (PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 7200.0, None),
        (PARIS, (0.03, 0.08, 0.0, 0.001), 1e-3, 7200.0, 300.0),
    ],
    ids=["odd-window", "even-window", "whole-windows", "two-hour", "two-hour-window-300"],
)
def test_precession_matches_the_streamed_reference(cfg, initial, dt, duration, window):
    orbit = fc.pendulum_orbit(cfg, initial, dt, duration)
    n = round((window or 2.0 * cfg.period) / dt)
    est = fc.measure_precession(orbit, window)
    ref = reference.measure_precession(orbit, window)
    assert len(est.window_centers) == len(ref.window_centers) == orbit.rows // n
    assert abs(est.rate - ref.rate) <= RATE_BOUND * abs(ref.rate)
    assert np.max(np.abs(np.subtract(est.angles, ref.angles))) <= ANGLE_BOUND
    centers_err = np.max(np.abs(np.subtract(est.window_centers, ref.window_centers)))
    assert centers_err <= CENTER_BOUND * np.max(np.abs(ref.window_centers))
    states_err = np.max(np.abs(np.subtract(est.center_states, ref.center_states)))
    assert states_err <= STATE_BOUND * np.max(np.abs(ref.center_states))


def test_the_centre_state_is_the_earlier_of_the_two_middle_rows():
    # 6000 rows a window: the centre lies between rows 2999 and 3000 of each
    # window, and every window takes row 2999
    orbit = fc.pendulum_orbit(_TEN, _SWING, 0.01, 600.0)
    states = orbit.trajectory().states
    est = fc.measure_precession(orbit, 60.0)
    rows = [6000 * k + 2999 for k in range(len(est.center_states))]
    err = np.max(np.abs(np.subtract(est.center_states, states[rows])))
    assert err <= STATE_BOUND * np.max(np.abs(states))


def test_precession_cost_does_not_grow_with_the_duration():
    # 1e8 rows: stepping them would take minutes, the window moments do not
    orbit = fc.pendulum_orbit(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 1e5)
    est = fc.measure_precession(orbit)
    assert len(est.window_centers) == orbit.rows // round(2.0 * PARIS.period / 1e-3) == 3044
    assert np.isclose(est.rate, PARIS.precession_rate, rtol=0.02)


def test_an_overflowing_precession_window_is_refused_not_a_nan_rate():
    # a stable step, but x = vx / omega0 squares past the largest float
    orbit = fc.pendulum_orbit(_FAST, [0.1, 0, 1e200, 0], 1e-2, 200.0)
    with pytest.raises(EvaluationDomainError,
                       match=r"overflow in precession window 0 \(centre t = 16\.415 s\)"):
        fc.measure_precession(orbit)


def test_precession_window_too_short():
    orbit = fc.pendulum_orbit(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-2, 600.0)
    with pytest.raises(ValidationError):
        fc.measure_precession(orbit, 0.5 * PARIS.period)


# -- parallel transport ------------------------------------------------------


def test_transport_tracks_rotation():
    rate = PARIS.phi_dot
    span = 1e4 * 0.1
    res = fc.parallel_transport(PARIS, "vector", (0.0, 1.0, 0.0), 0.0, span, 0.1)
    assert len(res.times) == 10001
    expect = np.column_stack(
        [np.zeros_like(res.times), np.cos(rate * res.times), np.sin(rate * res.times)]
    )
    assert np.max(np.abs(res.states - expect)) < 1e-8
    norms = np.linalg.norm(res.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_transport_time_axis_constant():
    res = fc.parallel_transport(PARIS, "vector", (1.0, 0.0, 0.0), 0.0, 100.0, 0.01)
    assert np.max(np.abs(res.states - np.array([1.0, 0.0, 0.0]))) < 1e-14


def test_transport_moving_frame_constancy():
    res = fc.parallel_transport(PARIS, "vector", (0.3, 0.5, -0.2), 0.0, 500.0, 0.05)
    for i in (0, len(res.times) // 2, len(res.times) - 1):
        frame = fc.foucault_frame_field(PARIS).matrix_at((res.times[i], 0.0, 0.0))
        nu = np.linalg.inv(frame) @ res.states[i]
        if i == 0:
            nu0 = nu
        assert np.max(np.abs(nu - nu0)) < 1e-8


def test_transport_covector_inverse_rotation():
    vec = fc.parallel_transport(PARIS, "vector", (0.0, 1.0, 0.0), 0.0, 200.0, 0.01)
    cov = fc.parallel_transport(PARIS, "covector", (0.0, 1.0, 0.0), 0.0, 200.0, 0.01)
    # the pairing <alpha, v> is invariant under dual transport
    assert np.isclose(cov.states[-1] @ vec.states[-1], 1.0, atol=1e-10)


# every orbit here runs to more than two integrate.BLOCK blocks of rows
_ORBITS = {
    "pendulum": lambda: fc.pendulum_orbit(PARIS, (0.1, 0.02, 0.0, 0.01), 1e-3, 5.0),
    "pendulum-negative-dt": lambda: fc.pendulum_orbit(PARIS, (0.1, 0.02, 0.0, 0.01), -1e-3, -5.0),
    "transport-vector": lambda: fc.transport_orbit(
        PARIS, "vector", (0.3, 0.5, -0.2), 3.0, 3.0 + 2500 * 0.1, 0.1),
    "transport-covector": lambda: fc.transport_orbit(
        PARIS, "covector", (0.3, 0.5, -0.2), 3.0, 3.0 + 2500 * 0.1, 0.1),
}


@pytest.mark.parametrize("make", _ORBITS.values(), ids=list(_ORBITS))
def test_orbit_blocks_concatenate_to_its_trajectory_bit_for_bit(make):
    orbit = make()
    blocks = list(orbit.blocks())
    traj = orbit.trajectory()
    assert len(blocks) > 2 and len(traj.times) == orbit.rows
    times, states = (np.concatenate(part) for part in zip(*blocks))
    assert times.shape == traj.times.shape and states.shape == traj.states.shape
    assert times.tobytes() == traj.times.tobytes()
    assert states.tobytes() == traj.states.tobytes()
    # row k is at t0 + dt * k; the pendulum's t0 = -0.0 keeps dt * k, -0.0 included
    assert times.tobytes() == (orbit.t0 + orbit.dt * np.arange(orbit.rows)).tobytes()


def test_a_trajectory_holds_little_more_than_its_times_and_states():
    import tracemalloc

    orbit = fc.pendulum_orbit(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 1e3)  # 1e6 steps
    tracemalloc.start()
    try:
        traj = orbit.trajectory()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = traj.times.nbytes + traj.states.nbytes
    assert orbit.steps == 10**6 and peak <= 1.3 * held


_BAD_ENTRIES = {  # an entry that is not a finite real number a float can hold
    "nan": math.nan, "inf": -math.inf, "none": None, "str": "a", "complex": 1j,
    "nested": [0.1], "huge-int": 10**400,
}


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
@pytest.mark.parametrize("call", [fc.pendulum_orbit, fc.simulate_pendulum],
                         ids=["pendulum_orbit", "simulate_pendulum"])
def test_a_bad_initial_pendulum_state_is_refused_with_a_typed_error(call, entry):
    with pytest.raises(ValidationError, match="initial pendulum state"):
        call(PARIS, [0.1, _BAD_ENTRIES[entry], 0.0, 0.0], 1e-3, 1.0)
    with pytest.raises(ValidationError, match="initial pendulum state"):
        call(PARIS, [0.1, 0.0, 0.0], 1e-3, 1.0)


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
@pytest.mark.parametrize("call", [fc.parallel_transport, fc.transport_orbit],
                         ids=["parallel_transport", "transport_orbit"])
def test_bad_initial_transported_components_are_refused_with_a_typed_error(call, entry):
    with pytest.raises(ValidationError, match="initial transported components"):
        call(PARIS, "vector", [0.0, _BAD_ENTRIES[entry], 0.0], 0.0, 1.0, 0.1)
    with pytest.raises(ValidationError, match="initial transported components"):
        call(PARIS, "vector", np.zeros((3, 1)), 0.0, 1.0, 0.1)


def test_transport_validation():
    with pytest.raises(ValidationError):
        fc.parallel_transport(PARIS, "tensor", (0.0, 1.0, 0.0), 0.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        fc.parallel_transport(PARIS, "vector", (0.0, 1.0), 0.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        fc.parallel_transport(PARIS, "vector", (0.0, 1.0, 0.0), 1.0, 0.0, 0.1)


# -- helpers -----------------------------------------------------------------


def test_precession_per_day():
    pole = fc.FoucaultConfig(latitude=math.pi / 2)
    per_day = fc.precession_per_day(pole)
    assert np.isclose(per_day, 7.292e-5 * 86400, rtol=1e-12)
    assert np.isclose(math.degrees(fc.precession_per_day(PARIS)), 271.7, rtol=0.01)


def test_zero_rotation_degeneration():
    cfg = fc.FoucaultConfig(latitude=0.4, omega_earth=0.0)
    geo = fc.foucault_geometry(cfg)
    assert geo.frobenius == 0.0
    assert np.max(np.abs(geo.h)) == 0.0
    assert fc.precession_per_day(cfg) == 0.0