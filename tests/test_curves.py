"""Geodesic integration, checked against the curvature split and an array march."""

import math

import numpy as np
import pytest

from pseudoform.calculus import pfaffian_norm
from pseudoform.curves import integrate_geodesic
from pseudoform.errors import (
    ConstraintViolationError,
    DegenerateNormalizationError,
    DegeneratePfaffianError,
    EvaluationDomainError,
    ValidationError,
)
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.geometry import (
    GALILEAN, MINKOWSKI, PseudoSurface, second_form_via_connection,
)


def _sphere():
    return PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2"))


def _equator_start():
    p0 = np.array([math.cos(0.3), math.sin(0.3), 0.0])
    v = np.array([-math.sin(0.3), math.cos(0.3), 0.0])
    return p0, v


def _tilted_start(p0, tilt):
    """Unit start point off the z axis and a unit tangent tilted up from the horizontal."""
    p0 = np.asarray(p0, dtype=float) / np.linalg.norm(p0)
    leg = np.cross((0.0, 0.0, 1.0), p0)
    leg /= np.linalg.norm(leg)
    return p0, math.cos(tilt) * leg + math.sin(tilt) * np.cross(p0, leg)


def _frame_nu(surface, p0, v):
    return (np.linalg.inv(surface.frame.rows_at(p0)) @ v)[:2]


def _points(curve):
    """The sample positions as an (n, 3) array."""
    return np.array(curve.states)[:, :3]


def _curvature_split(surface, p, v, acc):
    """Geodesic and normal curvature of an arclength curve in theta = 0 at p.

    A second route to the geodesic property, kept as a test reference.  With
    the adapted frame X at p and nu = X^-1 v, the geodesic curvature is the
    tangential part (X^-1 acc)[:2] of the acceleration and the normal
    curvature is H_ab nu^a nu^b.  A tangent that violates the Pfaffian
    constraint by more than 1e-6 (normalized) raises
    ``ConstraintViolationError``.
    """
    xinv = np.array(surface.frame.rows_at(p)).T  # the frame is orthonormal
    nu = xinv @ v
    residual = abs(nu[2]) / np.linalg.norm(v)
    if residual > 1e-6:
        raise ConstraintViolationError("tangent violates the Pfaffian constraint", residual)
    h = second_form_via_connection(surface.frame, p)
    return xinv[:2] @ acc, float(nu[:2] @ h @ nu[:2])


def _circle(center, e1, e2, radius, s):
    """Position, velocity and acceleration at arclength s of the circle
    center + radius (cos(s/r) e1 + sin(s/r) e2), with e1, e2 orthonormal."""
    c, w = math.cos(s / radius), math.sin(s / radius)
    e1, e2 = np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)
    return center + radius * (c * e1 + w * e2), -w * e1 + c * e2, -(c * e1 + w * e2) / radius


def test_great_circle_is_geodesic():
    surface = _sphere()
    eq = ((math.cos(0.3), math.sin(0.3), 0.0), (-math.sin(0.3), math.cos(0.3), 0.0))
    # the tilted circle through (1,0,0), sampled where the frame's seed axis
    # switches: |x| = |z| at tan s = +-1/sin(tilt), and |y| = |z| at s = 0, pi
    tilted = _tilted_start((1.0, 0.0, 0.0), 0.7)
    turn = math.atan(1.0 / math.sin(0.7))
    switches = (0.0, turn, math.pi - turn, math.pi, math.pi + turn, 2 * math.pi - turn)
    for (e1, e2), samples in ((eq, (0.2,)), (tilted, switches)):
        for s in samples:
            kg, kn = _curvature_split(surface, *_circle(0.0, e1, e2, 1.0, s))
            assert np.linalg.norm(kg) < 1e-6
            assert np.isclose(abs(kn), 1.0, atol=1e-8)


def test_latitude_circle_geodesic_curvature():
    surface = _sphere()
    polar = math.radians(45.0)
    r = math.sin(polar)  # circle radius at 45 degrees polar angle
    z = math.cos(polar)
    e1, e2 = (math.cos(0.3), math.sin(0.3), 0.0), (-math.sin(0.3), math.cos(0.3), 0.0)
    kg, _ = _curvature_split(surface, *_circle(np.array([0.0, 0.0, z]), e1, e2, r, 0.1))
    assert np.isclose(np.linalg.norm(kg), 1.0, rtol=1e-6)  # cot(45 deg) / 1


def test_curvature_split_rejects_transverse_curve():
    surface = _sphere()
    # the radial line (1 + s)(1, 1, 0)/sqrt(2) at s = 0
    radial = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    with pytest.raises(ConstraintViolationError) as err:
        _curvature_split(surface, radial, radial, np.zeros(3))
    assert err.value.residual > 1e-6


def test_geodesic_great_circle_closure():
    surface = _sphere()
    p0, v = _equator_start()
    nu0 = _frame_nu(surface, p0, v)
    ds = 1e-3
    steps = int(round(2 * math.pi / ds))
    curve = integrate_geodesic(surface, p0, nu0, ds, steps)
    assert not curve.aborted
    assert curve.closure_error() < 1e-3 * 2 * math.pi


def test_geodesic_constraint_and_speed_conservation():
    surface = _sphere()
    p0, v = _equator_start()
    nu0 = _frame_nu(surface, p0, v)
    ds = 0.01
    curve = integrate_geodesic(surface, p0, nu0, ds, 400)
    states = np.array(curve.states)
    normals = np.array([surface.pfaffian.values_and_jacobian(y[:3])[0] for y in curve.states])
    velocities = states[:, 3:]
    norms = np.linalg.norm(velocities, axis=1)
    # |theta(v)| / (|theta| |v|) at every sample
    residual = np.abs(np.sum(normals * velocities, axis=1)) / (np.linalg.norm(normals, axis=1) * norms)
    assert np.max(residual) < 10 * ds**4
    assert np.max(np.abs(norms - norms[0])) < 1e-8 * len(curve.s) * ds


def test_tilted_great_circles_close_across_seed_switches():
    # the frame's seed axis switches along these circles; the geodesic must not notice
    surface = _sphere()
    ds = 1e-3
    steps = int(round(2 * math.pi / ds))
    for start in ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
        for tilt in (0.35, 0.7, 1.2):
            p0, v = _tilted_start(start, tilt)
            curve = integrate_geodesic(surface, p0, _frame_nu(surface, p0, v), ds, steps)
            assert not curve.aborted
            assert curve.closure_error() <= 1e-3 * 2 * math.pi, (start, tilt)
            normal = np.cross(p0, v)
            assert np.max(np.abs(_points(curve) @ normal)) <= 1e-6, (start, tilt)


def test_geodesic_rk4_order():
    surface = _sphere()
    p0, v = _equator_start()
    nu0 = _frame_nu(surface, p0, v)

    def exact(s):
        return np.array([math.cos(0.3 + s), math.sin(0.3 + s), 0.0])

    errs = []
    for ds, steps in ((0.05, 100), (0.025, 200)):
        c = integrate_geodesic(surface, p0, nu0, ds, steps)
        errs.append(np.linalg.norm(_points(c)[-1] - exact(steps * ds)))
    ratio = errs[0] / errs[1]
    assert 16 * 0.7 < ratio < 16 * 1.4  # ~16x within +-30%


def test_plane_geodesic_is_straight_line():
    surface = PseudoSurface.from_levelset(parse_scalar("z"))
    curve = integrate_geodesic(surface, (0.0, 0.0, 0.0), (0.6, 0.8), 0.01, 200)
    # direction e1*0.6 + e2*0.8 constant; all points collinear through origin
    points = _points(curve)
    end = points[-1]
    assert np.isclose(np.linalg.norm(end), 2.0, atol=1e-10)
    unit = end / np.linalg.norm(end)
    offsets = points - np.outer(points @ unit, unit)
    assert np.max(np.linalg.norm(offsets, axis=1)) < 1e-10


def test_geodesic_validation():
    surface = _sphere()
    with pytest.raises(ValidationError):
        integrate_geodesic(surface, (1.0, 0.0, 0.0), (0.0, 0.0), 0.01, 10)
    with pytest.raises(ValidationError):
        integrate_geodesic(surface, (1.0, 0.0, 0.0), (1.0, 0.0), 0.0, 10)
    with pytest.raises(ValidationError):
        integrate_geodesic(surface, (1.0, 0.0, 0.0), (1.0, 0.0), 0.01, 0)
    # the state stays finite, but the first stage point x + (ds/2) v overflows
    plane = PseudoSurface.from_pfaffian(parse_oneform(["0", "0", "1"]))
    with pytest.raises(ValidationError, match=r"chart point must be 3 finite real numbers, got \(inf"):
        integrate_geodesic(plane, (0.0, 0.0, 0.0), (1e300, 0.0), 1e10, 3)


@pytest.mark.parametrize("nu", [(math.nan, 1.0), [math.inf, 0.0], np.array([0.0, -math.inf])])
def test_geodesic_refuses_a_non_finite_nu_up_front(nu):
    # refused before the start velocity is formed, by a message naming nu
    # rather than the first stage point that the velocity would spoil
    with pytest.raises(ValidationError, match="nu must be 2 finite real numbers"):
        integrate_geodesic(_sphere(), (1.0, 0.0, 0.0), nu, 0.01, 5)


@pytest.mark.parametrize("nu, text", [
    ((1e-300, 0), r"\(1e-300, 0\.0\)"),
    ((0.0, 0.0), r"\(0\.0, 0\.0\)"),
    ((7e-16, -7e-16), r"\(7e-16, -7e-16\)"),
])
def test_geodesic_refuses_a_nu_of_norm_at_most_1e_15_and_names_it(nu, text):
    message = r"^initial frame velocity nu must have a norm above 1e-15, got " + text
    with pytest.raises(ValidationError, match=message):
        integrate_geodesic(_sphere(), (1.0, 0.0, 0.0), nu, 0.01, 5)


def test_geodesic_abort_on_frame_breakdown():
    # normal coefficient sqrt(1-x) leaves its domain at x = 1: the run
    # aborts there and returns the partial curve
    surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "0", "sqrt(1-x)"]))
    curve = integrate_geodesic(surface, (0.0, 0.0, 0.0), (1.0, 0.0), 0.05, 100)
    assert curve.aborted
    assert curve.abort_reason
    assert 2 <= len(curve.states) < 101
    assert np.all(_points(curve)[:, 0] < 1.0)


def test_geodesic_refuses_galilean_time_component_along_path():
    # theta = t dt + dy has no time component at t = 0 but gains one as soon
    # as the path moves along e1 = d/dt
    theta = parse_oneform(["t", "0", "1"], chart="spacetime")
    surface = PseudoSurface.from_pfaffian(theta, GALILEAN)
    with pytest.raises(DegenerateNormalizationError):
        integrate_geodesic(surface, (0.0, 0.0, 0.0), (1.0, 0.0), 0.01, 10)


def _array_geodesic(surface, p0, nu0, ds, steps):
    """The geodesic march in NumPy arrays, as an independent reference for the float one.

    The normalized equations: u = N / |N|, du = J / |N| - outer(d|N|, N) /
    |N|^2 with d|N| = J N / |N|, and v-dot = -(v . du . v) u, stepped by
    classical RK4 on a (6,) array.  ``integrate_geodesic`` steps the
    multiplier form v-dot = -((v . J . v) / |N|) u instead; the two agree on
    theta(v) = 0, where v . du . v = (v . J . v - (v . d|N|)(u . v)) / |N|.
    """
    theta = surface.pfaffian

    def rhs(y):
        comps = theta.components_at(y[:3])
        jac = np.array(theta.values_and_jacobian(y[:3])[1])
        norm = np.linalg.norm(comps)
        u = comps / norm
        du = jac / norm - np.outer(jac @ comps / norm, comps) / norm**2
        v = y[3:]
        return np.concatenate([v, -(v @ du @ v) * u])

    y = np.concatenate([p0, np.array(surface.frame.rows_at(p0))[:, :2] @ nu0])
    states = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * ds * k1)
        k3 = rhs(y + 0.5 * ds * k2)
        k4 = rhs(y + ds * k3)
        y = y + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize("case", ["tilted-circle", "contact"])
def test_float_geodesic_matches_array_reference(case):
    # the float march and the array march differ only in rounding: 1000 steps
    # of each stay within 1e-12 of each other
    if case == "tilted-circle":
        surface = _sphere()
        p0, v = _tilted_start((1.0, 0.0, 0.0), 0.7)
        nu0, ds = _frame_nu(surface, p0, v), 2 * math.pi / 1000
    else:
        surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]))
        p0, nu0, ds = np.array([0.1, -0.2, 0.3]), np.array([math.cos(1.0), math.sin(1.0)]), 2e-3
    curve = integrate_geodesic(surface, p0, nu0, ds, 1000)
    reference = _array_geodesic(surface, p0, nu0, ds, 1000)
    assert not curve.aborted
    assert np.max(np.abs(_points(curve) - reference[:, :3])) <= 1e-12
    assert np.max(np.abs(np.array(curve.states)[:, 3:] - reference[:, 3:])) <= 1e-12
    assert np.array_equal(curve.s, np.arange(1001) * ds)


def test_sampled_curve_arrays_equal_the_stacked_states():
    # the parameters, built from the float states when read, are
    # np.arange(n) * ds bit for bit
    surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]))
    ds = 2e-3
    curve = integrate_geodesic(surface, (0.1, -0.2, 0.3), (0.6, -0.8), ds, 300)
    stacked = np.array(curve.states)
    assert stacked.shape == (301, 6)
    assert curve.s.tobytes() == (np.arange(301) * ds).tobytes()
    assert curve.closure_error() == pytest.approx(np.linalg.norm(stacked[-1, :3] - stacked[0, :3]))


def test_float_start_velocity_matches_the_frame_matvec():
    # v0 = X[:, :2] nu is summed on the frame's float rows; NumPy's matvec may
    # fuse the multiply-add and round once, so the two agree to 2 ulp of the
    # sum's scale |X[i, 0] nu1| + |X[i, 1] nu2| (an ulp of a cancelling sum
    # would be finer than the rounding of either product)
    rng = np.random.default_rng(17)
    surfaces = (_sphere(), PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"])))
    for surface in surfaces:
        for p0, nu in zip(rng.uniform(-1.0, 1.0, (1000, 3)), rng.normal(size=(1000, 2))):
            got = integrate_geodesic(surface, p0, nu, 1e-3, 1).states[0][3:]
            legs = np.array(surface.frame.rows_at(p0))[:, :2]
            want = legs @ nu
            scale = np.abs(legs) @ np.abs(nu)
            for g, w, m in zip(got, want.tolist(), scale.tolist()):
                assert abs(g - w) <= 2 * math.ulp(m), (p0, nu)


def _reference_float_march(surface, p0, nu, ds, steps):
    """The float march written generically, as a reference for the unrolled one.

    Same multiplier-form equations as ``integrate_geodesic``, v-dot =
    -((v . J . v) / |N|) u with u = N / |N|: each stage point goes through
    ``values_and_jacobian`` (which checks it), v . J / |N| is formed column
    by column in a comprehension and then contracted with v, and RK4 builds
    every stage and the step with ``zip`` comprehensions.  The start state
    comes from the frame rows, as in ``integrate_geodesic``.  Returns
    (states, aborted, abort_reason).
    """
    pfaffian, metric = surface.pfaffian, surface.metric
    galilean = metric.degenerate and pfaffian.chart == "spacetime"

    def rhs(y):
        v1, v2, v3 = v = y[3:]
        p = y[:3]
        comps, jac = pfaffian.values_and_jacobian(p)
        norm = pfaffian_norm(comps, p)
        u1, u2, u3 = (c / norm for c in comps)
        if galilean and abs(u1) > 1e-9:
            raise DegenerateNormalizationError(
                "Galilean metric cannot normalize a Pfaffian with a time component"
            )
        w1, w2, w3 = [(v1 * a + v2 * b + v3 * c) / norm for a, b, c in zip(*jac)]  # v^T J / |N|
        lam = w1 * v1 + w2 * v2 + w3 * v3
        return (*v, -lam * u1, -lam * u2, -lam * u3)

    def step(y, h):
        half = 0.5 * h
        k1 = rhs(y)
        k2 = rhs(tuple([a + half * k for a, k in zip(y, k1)]))
        k3 = rhs(tuple([a + half * k for a, k in zip(y, k2)]))
        k4 = rhs(tuple([a + h * k for a, k in zip(y, k3)]))
        sixth = h / 6.0
        return tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])

    p0 = tuple(float(c) for c in p0)
    nu1, nu2 = (float(c) for c in nu)
    y = p0 + tuple([e1 * nu1 + e2 * nu2 for e1, e2, _ in surface.frame.rows_at(p0)])
    states = [y]
    for k in range(steps):
        try:
            y = step(y, ds)
        except (DegeneratePfaffianError, EvaluationDomainError) as err:
            return states, True, str(err)
        if not all(map(math.isfinite, y)):
            return states, True, f"non-finite state at step {k + 1}"
        states.append(y)
    return states, False, ""


def _march_case(case):
    """(surface, p0, nu, ds, steps) of a named bit-for-bit case."""
    if case in ("tilted-circle", "equator"):
        surface = _sphere()
        p0, v = _tilted_start((1.0, 0.0, 0.0), 0.7) if case == "tilted-circle" else _equator_start()
        return surface, p0, _frame_nu(surface, p0, v), 2 * math.pi / 1000, 1000
    if case == "contact":
        surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]))
        return surface, (0.1, -0.2, 0.3), (math.cos(1.0), math.sin(1.0)), 2e-3, 1000
    if case == "minkowski":
        theta = parse_oneform(["0.3*x", "1+y^2", "t*x"], chart="spacetime")
        return PseudoSurface.from_pfaffian(theta, MINKOWSKI), (0.2, 0.1, -0.3), (0.6, 0.8), 1e-3, 500
    if case == "transcendental":
        f = parse_scalar("exp(0.3*x*y) + sin(y*z) + x*z^2 + ln(2+x)")
        return PseudoSurface.from_levelset(f), (0.2, 0.4, 0.9), (0.8, -0.6), 2e-3, 500
    if case == "sqrt-abort":
        surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "0", "sqrt(1-x)"]))
        return surface, (0.0, 0.0, 0.0), (1.0, 0.0), 0.05, 100
    if case in ("overflow-abort", "derivative-overflow-abort"):
        # a straight march along x into exp(800*x) overflowing: at ds 0.05 exp raises
        # OverflowError at x = 0.9; at ds 0.01 the derivative 800*exp(800*x) is inf first
        surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "0", "exp(800*x)"]))
        ds = 0.05 if case == "overflow-abort" else 0.01
        return surface, (0.0, 0.0, 0.0), (1.0, 0.0), ds, 100
    assert case == "galilean-spatial"
    surface = PseudoSurface.from_pfaffian(parse_oneform(["y", "1", "x*z"]), GALILEAN)
    return surface, (0.3, -0.1, 0.2), (0.5, 0.5), 1e-3, 500


@pytest.mark.parametrize("case", ["tilted-circle", "equator", "contact", "minkowski",
                                  "transcendental", "sqrt-abort", "overflow-abort",
                                  "derivative-overflow-abort", "galilean-spatial"])
def test_unrolled_march_equals_the_generic_float_march(case):
    # the flat stage (one flat_jet per stage) and the unrolled RK4 step change
    # no bit of a state, and an abort keeps its message
    surface, p0, nu, ds, steps = _march_case(case)
    curve = integrate_geodesic(surface, p0, nu, ds, steps)
    states, aborted, reason = _reference_float_march(surface, p0, nu, ds, steps)
    assert curve.aborted == aborted == case.endswith("-abort")
    assert curve.abort_reason == reason
    assert reason.startswith({"sqrt-abort": "sqrt of negative value",
                              "overflow-abort": "overflow at point",
                              "derivative-overflow-abort": "non-finite field value"}.get(case, ""))
    assert len(curve.states) == len(states) > 1
    assert curve.states == states


TRANSCENDENTAL = ["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"]  # the benchmark's classify form


@pytest.mark.parametrize("comps, p0, nu", [
    (["0", "x", "1"], (0.1, -0.2, 0.3), (math.cos(1.0), math.sin(1.0))),
    (TRANSCENDENTAL, (0.5, 0.9, 0.5), (0.6, 0.8)),
], ids=["contact", "transcendental"])
@pytest.mark.parametrize("scale", ["1e-8", "1e150", "1e200"])
def test_geodesic_depends_on_the_plane_field_not_on_the_scale_of_theta(comps, p0, nu, scale):
    # c theta and theta define the same planes, so the same geodesic; at c = 1e200
    # |theta|^2 overflows, and the march never forms it
    plain, curve = (integrate_geodesic(PseudoSurface.from_pfaffian(theta), p0, nu, 2e-3, 1000)
                    for theta in (parse_oneform(comps),
                                  parse_oneform([f"{scale}*({c})" for c in comps])))
    assert not plain.aborted and not curve.aborted
    assert len(curve.states) == len(plain.states) == 1001
    assert np.max(np.abs(np.array(curve.states) - np.array(plain.states))) <= 1e-14


def test_a_fast_geodesic_on_a_large_theta_stays_finite():
    # |v|^2 |J| = 2e320 would overflow, |v| |J| = 1.4e260 does not: the run
    # is the one of theta at the same speed, to rounding
    fast = 1e60
    plain, curve = (integrate_geodesic(PseudoSurface.from_pfaffian(parse_oneform(comps)),
                                       (0.1, 0.2, 0.3), (fast, fast), 1e-62, 100)
                    for comps in (["0", "x", "1"], ["1e200*(0)", "1e200*(x)", "1e200*(1)"]))
    assert not plain.aborted and not curve.aborted
    assert len(curve.states) == len(plain.states) == 101
    delta = np.abs(np.array(curve.states) - np.array(plain.states))
    assert np.max(delta[:, :3]) <= 1e-14 and np.max(delta[:, 3:]) <= 1e-14 * fast


def test_geodesic_keeps_the_constraint_and_the_speed_on_a_transcendental_form():
    # theta(v) = 0 and |v| are first integrals of the geodesic equations; RK4
    # keeps both to rounding over 1000 steps of ds 2e-3
    theta = parse_oneform(TRANSCENDENTAL)
    curve = integrate_geodesic(PseudoSurface.from_pfaffian(theta), (0.5, 0.9, 0.5), (0.6, 0.8),
                               2e-3, 1000)
    assert not curve.aborted and len(curve.states) == 1001
    states = np.array(curve.states)
    normals = np.array([theta.components_at(y[:3]) for y in curve.states])
    speeds = np.linalg.norm(states[:, 3:], axis=1)
    residual = np.abs(np.sum(normals * states[:, 3:], axis=1)) / (
        np.linalg.norm(normals, axis=1) * speeds)
    assert np.max(residual) <= 1e-12
    assert np.max(np.abs(speeds - speeds[0])) <= 1e-12


def _count_calls(field, calls):
    """Wrap a field's compiled function so that each call adds 1 to ``calls[field]``."""
    fn = field.fn

    def counted(*point):
        calls[field] += 1
        return fn(*point)

    calls[field] = 0
    field.fn = counted


@pytest.mark.parametrize("kind", ["levelset", "oneform"])
def test_one_field_evaluation_per_stage(kind):
    # one call of each compiled function for the start frame, then one per RK4 stage
    if kind == "levelset":
        surface = _sphere()
        fields = [surface.levelset]
    else:
        surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]))
        fields = list(surface.pfaffian.components)
    calls = {}
    for field in fields:
        _count_calls(field, calls)
    steps = 250
    curve = integrate_geodesic(surface, (0.6, 0.0, 0.8), (0.6, 0.8), 1e-3, steps)
    assert not curve.aborted and len(curve.states) == steps + 1
    assert list(calls.values()) == [1 + 4 * steps] * len(fields)


def test_overflowing_arc_parameter_is_refused():
    # every step is finite, but the arc parameter k * ds of the last sample is not
    plane = PseudoSurface.from_levelset(parse_scalar("z"))
    with pytest.raises(ValidationError, match=r"steps \* ds must be finite.*steps=3.*ds=1e\+308"):
        integrate_geodesic(plane, (0.0, 0.0, 0.0), (1e-10, 0.0), 1e308, 3)
    with pytest.raises(ValidationError, match="steps \\* ds must be finite"):
        integrate_geodesic(plane, (0.0, 0.0, 0.0), (1.0, 0.0), 1e-300, 10**400)
