"""End-to-end acceptance gate.

Each test covers one headline capability and prints a single PASS/FAIL
line so the suite doubles as a checklist.  The checks exercise the
public API only and use independent closed-form oracles throughout.
"""

import math
import re
import time

import numpy as np
import pytest

from pseudoform import foucault as fc
from pseudoform.calculus import exterior_derivative, gradient_oneform
from pseudoform.curves import integrate_geodesic
from pseudoform.errors import DegenerateMetricError
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.geometry import (
    EUCLIDEAN,
    GALILEAN,
    MINKOWSKI,
    PseudoSurface,
    adapt_frame,
    connection_form,
    fundamental_forms,
    second_form_via_connection,
    shape_and_curvatures,
)
from pseudoform.pfaff import NormalForm, RegionSampler, classify, frobenius_coefficient

PARIS = fc.FoucaultConfig(latitude=math.radians(48.85), length=67.0)


def _verdict(n, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_normal_form_triptych():
    region = RegionSampler((0.2, 0.5, 0.2), (1.0, 1.5, 1.0), count=200, seed=0)
    closed = classify(parse_oneform(["0", "0", "1"]), region)
    factor = classify(parse_oneform(["y", "0", "0"]), region)
    contact = classify(parse_oneform(["0", "x", "1"]), region)
    ok = (
        closed.kind is NormalForm.CLOSED
        and factor.kind is NormalForm.INTEGRATING_FACTOR
        and contact.kind is NormalForm.NON_INTEGRABLE
        and abs(contact.max_frobenius_raw - 1.0) <= 1e-9
    )
    _verdict(1, "closed / integrating-factor / non-integrable triptych", ok)


def test_criterion_02_frobenius_tracks_latitude():
    ok = True
    for deg in (15.0, 45.0, 75.0):
        cfg = fc.FoucaultConfig(latitude=math.radians(deg))
        expect = 2.0 * cfg.omega_earth * math.sin(cfg.latitude)
        for t in (0.0, 1234.5):
            got = abs(frobenius_coefficient(fc.theta2_oneform(cfg), (t, 0.0, 0.0)))
            ok = ok and abs(got - expect) <= 1e-12 * expect
    equator = fc.foucault_geometry(fc.FoucaultConfig(latitude=0.0))
    ok = ok and equator.frobenius == 0.0
    _verdict(2, "rotating-plane Frobenius coefficient = 2 omega_E sin(latitude)", ok)


def test_criterion_03_second_form_half_rate():
    rate = PARIS.phi_dot
    geo = fc.foucault_geometry(PARIS, t=17.0)
    h = np.array(geo.forms.h_rows)
    h_conn = second_form_via_connection(fc.foucault_frame_field(PARIS), (17.0, 0.0, 0.0))
    ok = (
        abs(h[0, 1] - 0.5 * rate) <= 1e-10 * rate
        and abs(h[1, 0] - 0.5 * rate) <= 1e-10 * rate
        and abs(h[0, 0]) <= 1e-10 * rate
        and abs(h[1, 1]) <= 1e-10 * rate
        and np.max(np.abs(h - h_conn)) <= 1e-10 * rate
    )
    _verdict(3, "second fundamental form is (phi_dot / 2) off-diagonal, two routes", ok)


def test_criterion_04_metric_trichotomy():
    rate = PARIS.phi_dot
    euclid = fc.foucault_geometry(PARIS, EUCLIDEAN).report
    e_eigs = sorted((euclid.kappa1, euclid.kappa2), key=lambda z: z.real)
    ok = (
        abs(e_eigs[0] - (-0.5 * rate)) <= 1e-10 * rate
        and abs(e_eigs[1] - 0.5 * rate) <= 1e-10 * rate
        and abs(euclid.gaussian - (-0.25 * rate**2)) <= 1e-10 * rate**2
        and abs(euclid.mean) <= 1e-12 * rate
    )
    mink = fc.foucault_geometry(PARIS, MINKOWSKI).report
    m_eigs = sorted((mink.kappa1, mink.kappa2), key=lambda z: z.imag)
    ok = ok and (
        abs(m_eigs[0] - (-0.5j * rate)) <= 1e-10 * rate
        and abs(m_eigs[1] - 0.5j * rate) <= 1e-10 * rate
    )
    galilean_forms = fundamental_forms(
        fc.theta2_oneform(PARIS),
        fc.foucault_frame_field(PARIS, GALILEAN),
        GALILEAN,
        (0.0, 0.0, 0.0),
    )
    try:
        shape_and_curvatures(galilean_forms)
        ok = False
    except DegenerateMetricError as err:
        # the refusal must explain itself without inventing numbers
        ok = ok and "g^ab" in str(err) and not re.search(r"\d", str(err))
    _verdict(4, "Euclidean real / Minkowski imaginary / Galilean refusal trichotomy", ok)


def test_criterion_05_curvature_oracles():
    sphere = PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2"))
    r_sph = sphere.curvature_report((0.0, 0.0, 1.0))
    ok = (
        abs(r_sph.kappa1 - (-1.0)) <= 1e-6
        and abs(r_sph.kappa2 - (-1.0)) <= 1e-6
        and abs(r_sph.gaussian - 1.0) <= 1e-6
    )
    cylinder = PseudoSurface.from_levelset(parse_scalar("x^2+y^2"))
    p = (2.0, 0.0, 0.0)
    r_cyl = cylinder.curvature_report(p)
    ok = ok and abs(r_cyl.gaussian) <= 1e-8 and abs(abs(r_cyl.mean) - 0.25) <= 1e-6
    h_level = np.array(cylinder.fundamental_forms(p).h_rows)
    h_pfaff = fundamental_forms(cylinder.pfaffian, cylinder.frame, EUCLIDEAN, p).h_rows
    h_conn = second_form_via_connection(cylinder.frame, p)
    ok = (
        ok
        and np.max(np.abs(h_level - h_pfaff)) <= 1e-8
        and np.max(np.abs(h_level - h_conn)) <= 1e-8
    )
    _verdict(5, "sphere / cylinder curvature oracles and route agreement", ok)


def test_criterion_06_geodesic_closure_and_order():
    surface = PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2"))
    p0 = np.array([math.cos(0.3), math.sin(0.3), 0.0])
    v = np.array([-math.sin(0.3), math.cos(0.3), 0.0])
    nu0 = (np.linalg.inv(surface.frame.rows_at(p0)) @ v)[:2]
    ds = 1e-3
    curve = integrate_geodesic(surface, p0, nu0, ds, int(round(2 * math.pi / ds)))
    ok = not curve.aborted and curve.closure_error() <= 1e-3 * 2 * math.pi

    def exact(s):
        return np.array([math.cos(0.3 + s), math.sin(0.3 + s), 0.0])

    errs = []
    for step, n in ((0.05, 100), (0.025, 200)):
        c = integrate_geodesic(surface, p0, nu0, step, n)
        errs.append(np.linalg.norm(c.states[-1][:3] - exact(n * step)))
    ratio = errs[0] / errs[1]
    ok = ok and 16 * 0.7 < ratio < 16 * 1.4
    _verdict(6, "great-circle closure below 0.1% and fourth-order step convergence", ok)


def test_criterion_07_normal_acceleration_magnitude():
    cfg = fc.FoucaultConfig(latitude=0.3, frame_rate=95.6e-6)
    t = 250.0
    phi = cfg.phi_dot * t
    state = fc.PendulumState(t, 0.0, 0.0, math.cos(phi), math.sin(phi))
    _, _, a2 = fc.decompose_acceleration(cfg, state, restoring=0.0)
    ratio = abs(a2) / 9.81
    ok = abs(ratio - 9.74e-6) <= 0.01 * 9.74e-6
    _verdict(7, "unit-speed normal acceleration is 9.74e-6 of gravity", ok)


def test_criterion_08_two_hour_paris_run():
    start = time.perf_counter()
    orbit = fc.pendulum_orbit(PARIS, (0.1, 0.0, 0.0, 0.0), 1e-3, 7200.0)
    estimate = fc.measure_precession(orbit)
    elapsed = time.perf_counter() - start
    oracle = PARIS.precession_rate
    ok = elapsed < 60.0 and abs(estimate.rate - oracle) <= 0.02 * abs(oracle)
    print(
        f"  measured plane rate {estimate.rate:.6e} rad/s vs "
        f"omega_E sin(lat) = {oracle:.6e}; constraint-plane rate "
        f"phi_dot = {PARIS.phi_dot:.6e}; wall time {elapsed:.2f} s"
    )
    _verdict(8, "two-hour Paris simulation within 2% of the precession oracle", ok)


def test_criterion_09_normal_acceleration_routes():
    rate = PARIS.phi_dot
    t, speed = 432.1, 0.37
    phi = rate * t
    p = (t, 0.0, 0.0)
    frame = fc.foucault_frame_field(PARIS)
    x = np.array(frame.rows_at(p))
    nu = np.array([1.0, speed])  # spacetime velocity in frame components

    # route 1: unit Pfaffian applied to the chart acceleration
    theta = fc.theta2_oneform(PARIS)
    comps = theta.components_at(p)
    accel = np.array([0.0, -speed * rate * math.sin(phi), speed * rate * math.cos(phi)])
    route1 = float(comps @ accel) / np.linalg.norm(comps)

    # route 2: second fundamental form on the frame velocity
    h = np.array(fundamental_forms(theta, frame, EUCLIDEAN, p).h_rows)
    route2 = float(nu @ h @ nu)

    # route 3: normal leg of the connection form on the velocity
    omega = np.array(connection_form(frame, p))
    velocity = x[:, :2] @ nu
    route3 = float(np.einsum("ak,k,a->", omega[2, :2, :], velocity, nu))

    spread = max(abs(route1 - route2), abs(route1 - route3), abs(route2 - route3))
    ok = spread <= 1e-6 * abs(route1)
    print(f"  routes: {route1:.9e} / {route2:.9e} / {route3:.9e}")
    _verdict(9, "three routes to the normal acceleration agree", ok)


def test_criterion_10_parallel_transport_holonomy():
    rate = PARIS.phi_dot
    dt = 0.1
    res = fc.parallel_transport(PARIS, "vector", (0.0, 1.0, 0.0), 0.0, 1e4 * dt, dt)
    expect = np.column_stack(
        [np.zeros_like(res.times), np.cos(rate * res.times), np.sin(rate * res.times)]
    )
    norms = np.linalg.norm(res.states, axis=1)
    ok = (
        len(res.times) == 10001
        and np.max(np.abs(res.states - expect)) <= 1e-8
        and np.max(np.abs(norms - 1.0)) <= 1e-9
    )
    _verdict(10, "10^4-step parallel transport tracks the rotating frame", ok)


def test_criterion_11_randomized_invariants():
    rng = np.random.default_rng(20260823)
    ok = True
    # d(d f) = 0 for random polynomial scalar fields at random points
    for _ in range(100):
        c = rng.uniform(-2.0, 2.0, size=6)
        f = parse_scalar(
            f"{c[0]}*x^2 + {c[1]}*y^2 + {c[2]}*z^2 + {c[3]}*x*y + {c[4]}*y*z + {c[5]}*x"
        )
        p = rng.uniform(-1.0, 1.0, size=3)
        dd = exterior_derivative(gradient_oneform(f), p)
        ok = ok and max(map(abs, dd)) <= 1e-10
    # adapted frames stay invertible with exact inverses on random quadrics
    for _ in range(100):
        a, b, c3 = rng.uniform(0.5, 2.0, size=3)
        frame = adapt_frame(gradient_oneform(parse_scalar(f"{a}*x^2+{b}*y^2+{c3}*z^2")))
        p = rng.uniform(0.3, 1.2, size=3)
        x = np.array(frame.rows_at(p))
        resid = x @ x.T - np.eye(3)
        ok = ok and np.max(np.abs(resid)) <= 1e-12
    _verdict(11, "randomized invariants hold over 100 seeded cases per property", ok)