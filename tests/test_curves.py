"""Frenet data, curvature splitting, geodesic integration."""

import math

import numpy as np
import pytest

from pseudoform.curves import (
    ParamCurve,
    curvature_split,
    frenet,
    integrate_geodesic,
)
from pseudoform.errors import (
    ConstraintViolationError,
    DegenerateNormalizationError,
    StraightLineError,
    ValidationError,
)
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.geometry import GALILEAN, PseudoSurface
from pseudoform.pfaff import constraint_residual


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
    return (np.linalg.inv(surface.frame.matrix_at(p0)) @ v)[:2]


def test_unit_circle_frenet():
    circle = ParamCurve(lambda s: (math.cos(s), math.sin(s), 0.0))
    fr = frenet(circle, 0.8)
    assert np.isclose(fr.curvature, 1.0, atol=1e-6)
    assert abs(fr.torsion) < 1e-4


def test_helix_frenet():
    # oracle: kappa = a/(a^2+b^2), tau = b/(a^2+b^2); a = b = 1 gives 1/2
    a = b = 1.0
    w = 1.0 / math.hypot(a, b)  # arclength rescaling
    helix = ParamCurve(
        lambda s: (a * math.cos(w * s), a * math.sin(w * s), b * w * s),
        velocity=lambda s: (-a * w * math.sin(w * s), a * w * math.cos(w * s), b * w),
        acceleration=lambda s: (
            -a * w * w * math.cos(w * s),
            -a * w * w * math.sin(w * s),
            0.0,
        ),
        jerk=lambda s: (
            a * w**3 * math.sin(w * s),
            -a * w**3 * math.cos(w * s),
            0.0,
        ),
    )
    fr = frenet(helix, 1.3)
    assert np.isclose(fr.curvature, 0.5, atol=1e-12)
    assert np.isclose(fr.torsion, 0.5, atol=1e-12)


def test_frenet_orthonormality_and_binormal():
    helix = ParamCurve(lambda s: (2 * math.cos(s), 2 * math.sin(s), 0.5 * s), arclength=False)
    for s in np.linspace(0.0, 3.0, 7):
        fr = frenet(helix, s)
        assert abs(np.linalg.norm(fr.tangent) - 1) < 1e-8
        assert abs(np.linalg.norm(fr.normal) - 1) < 1e-8
        assert abs(fr.tangent @ fr.normal) < 1e-8
        assert np.allclose(fr.binormal, np.cross(fr.tangent, fr.normal), atol=1e-8)


def test_straight_line_error():
    line = ParamCurve(lambda s: (s, 2 * s, -s), arclength=False)
    with pytest.raises(StraightLineError):
        frenet(line, 0.5)


def test_zero_velocity_is_invalid():
    point = ParamCurve(lambda s: (1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        frenet(point, 0.0)


def test_great_circle_is_geodesic():
    surface = _sphere()
    eq = ParamCurve(lambda s: (math.cos(0.3 + s), math.sin(0.3 + s), 0.0))
    # the tilted circle through (1,0,0), sampled where the frame's seed axis
    # switches: |x| = |z| at tan s = +-1/sin(tilt), and |y| = |z| at s = 0, pi
    p0, d = _tilted_start((1.0, 0.0, 0.0), 0.7)
    tilted = ParamCurve(lambda s: math.cos(s) * p0 + math.sin(s) * d)
    turn = math.atan(1.0 / math.sin(0.7))
    switches = (0.0, turn, math.pi - turn, math.pi, math.pi + turn, 2 * math.pi - turn)
    for curve, samples in ((eq, (0.2,)), (tilted, switches)):
        for s in samples:
            cs = curvature_split(curve, surface, s)
            assert np.linalg.norm(cs.geodesic) < 1e-6
            assert np.isclose(abs(cs.normal), 1.0, atol=1e-8)


def test_latitude_circle_geodesic_curvature():
    surface = _sphere()
    polar = math.radians(45.0)
    r = math.sin(polar)  # circle radius at 45 degrees polar angle
    z = math.cos(polar)
    lat = ParamCurve(lambda s: (r * math.cos(s / r + 0.3), r * math.sin(s / r + 0.3), z))
    cs = curvature_split(lat, surface, 0.1)
    assert np.isclose(cs.geodesic_magnitude, 1.0, rtol=1e-6)  # cot(45 deg) / 1


def test_curvature_split_rejects_transverse_curve():
    surface = _sphere()
    radial = ParamCurve(lambda s: ((1 + s) / math.sqrt(2), (1 + s) / math.sqrt(2), 0.0))
    with pytest.raises(ConstraintViolationError) as err:
        curvature_split(radial, surface, 0.0)
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
    assert constraint_residual(surface.pfaffian, curve) < 10 * ds**4
    norms = np.linalg.norm(curve.velocities, axis=1)
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
            assert np.max(np.abs(curve.points @ normal)) <= 1e-6, (start, tilt)


def test_geodesic_rk4_order():
    surface = _sphere()
    p0, v = _equator_start()
    nu0 = _frame_nu(surface, p0, v)

    def exact(s):
        return np.array([math.cos(0.3 + s), math.sin(0.3 + s), 0.0])

    errs = []
    for ds, steps in ((0.05, 100), (0.025, 200)):
        c = integrate_geodesic(surface, p0, nu0, ds, steps)
        errs.append(np.linalg.norm(c.points[-1] - exact(steps * ds)))
    ratio = errs[0] / errs[1]
    assert 16 * 0.7 < ratio < 16 * 1.4  # ~16x within +-30%


def test_plane_geodesic_is_straight_line():
    surface = PseudoSurface.from_levelset(parse_scalar("z"))
    curve = integrate_geodesic(surface, (0.0, 0.0, 0.0), (0.6, 0.8), 0.01, 200)
    # direction e1*0.6 + e2*0.8 constant; all points collinear through origin
    end = curve.points[-1]
    assert np.isclose(np.linalg.norm(end), 2.0, atol=1e-10)
    unit = end / np.linalg.norm(end)
    offsets = curve.points - np.outer(curve.points @ unit, unit)
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
    with pytest.raises(ValidationError, match="non-finite coordinates"):
        integrate_geodesic(plane, (0.0, 0.0, 0.0), (1e300, 0.0), 1e10, 3)


def test_geodesic_abort_on_frame_breakdown():
    # normal coefficient sqrt(1-x) leaves its domain at x = 1: the run
    # aborts there and returns the partial curve
    surface = PseudoSurface.from_pfaffian(parse_oneform(["0", "0", "sqrt(1-x)"]))
    curve = integrate_geodesic(surface, (0.0, 0.0, 0.0), (1.0, 0.0), 0.05, 100)
    assert curve.aborted
    assert curve.abort_reason
    assert 2 <= len(curve.points) < 101
    assert np.all(curve.points[:, 0] < 1.0)


def test_geodesic_refuses_galilean_time_component_along_path():
    # theta = t dt + dy has no time component at t = 0 but gains one as soon
    # as the path moves along e1 = d/dt
    theta = parse_oneform(["t", "0", "1"], chart="spacetime")
    surface = PseudoSurface.from_pfaffian(theta, GALILEAN)
    with pytest.raises(DegenerateNormalizationError):
        integrate_geodesic(surface, (0.0, 0.0, 0.0), (1.0, 0.0), 0.01, 10)


def _array_geodesic(surface, p0, nu0, ds, steps):
    """The geodesic march in NumPy arrays, as a reference for the float one.

    Same equations as ``integrate_geodesic``: u = N / |N|, du = J / |N| -
    outer(d|N|, N) / |N|^2 with d|N| = J N / |N|, and v-dot = -(v . du . v) u,
    stepped by classical RK4 on a (6,) array.
    """
    theta = surface.pfaffian

    def rhs(y):
        comps, jac = theta.components_at(y[:3]), theta.jacobian_at(y[:3])
        norm = np.linalg.norm(comps)
        u = comps / norm
        du = jac / norm - np.outer(jac @ comps / norm, comps) / norm**2
        v = y[3:]
        return np.concatenate([v, -(v @ du @ v) * u])

    y = np.concatenate([p0, surface.frame.matrix_at(p0)[:, :2] @ nu0])
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
    assert np.max(np.abs(curve.points - reference[:, :3])) <= 1e-12
    assert np.max(np.abs(curve.velocities - reference[:, 3:])) <= 1e-12
    assert np.array_equal(curve.s, np.arange(1001) * ds)
