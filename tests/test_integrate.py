"""The exact one-step flow of y' = A y against closed forms, its block-power
orbits against explicit stepping, and the geodesic's RK4 step."""

import math
import typing

import numpy as np
import pytest

import pseudoform
from pseudoform import foucault as fc
from pseudoform.errors import ValidationError
from pseudoform.formlang import parse_oneform
from pseudoform.curves import integrate_geodesic
from pseudoform.geometry import MetricKind, MetricSignature, PseudoSurface
from pseudoform.pfaff import RegionSampler, classify, frobenius_coefficient
from pseudoform.integrate import (
    BLOCK, flow_matrix, linear_flow_blocks, linear_rk4_orbit, rk4_step, validate_steps,
)

PARIS = fc.FoucaultConfig(latitude=math.radians(48.85), length=67.0)
DEVIATION_BOUND = 1e-12  # max |orbit - stepping| over max |stepping|


def _stepped(a, y0, h, steps):
    """Reference orbit: y = M @ y, one step at a time."""
    m = flow_matrix(a, h)
    out = np.empty((steps + 1, len(y0)))
    out[0] = y = np.asarray(y0, dtype=float)
    for k in range(steps):
        y = m @ y
        out[k + 1] = y
    return out


def _deviation(a, y0, h, steps):
    ref = _stepped(a, y0, h, steps)
    orbit = linear_rk4_orbit(a, y0, h, steps)
    assert orbit.shape == ref.shape
    return float(np.max(np.abs(orbit - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "a, y0, h, steps",
    [
        (fc.dynamics_matrix(PARIS), [0.1, 0.0, 0.0, 0.0], 1e-3, 200_000),
        (fc.transport_generator(PARIS), [0.3, 0.5, 0.8], 0.1, 100_000),
        # defective (nilpotent Jordan block): no eigenbasis exists
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, -2.0], 0.01, 5_000),
    ],
    ids=["pendulum", "transport", "jordan"],
)
def test_orbit_matches_explicit_stepping(a, y0, h, steps):
    assert _deviation(a, y0, h, steps) <= DEVIATION_BOUND


@pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_orbit_block_edges(steps):
    a = fc.dynamics_matrix(PARIS)
    y0 = np.array([0.1, 0.01562268953645183, -0.003, 0.07])
    orbit = linear_rk4_orbit(a, y0, 1e-3, steps)
    assert orbit.shape == (steps + 1, 4)
    assert orbit[0].tobytes() == y0.tobytes()
    assert _deviation(a, y0, 1e-3, steps) <= DEVIATION_BOUND
    blocks = list(linear_flow_blocks(a, y0, 1e-3, steps))
    assert [len(b) for b in blocks] == [1] + [BLOCK] * (steps // BLOCK) + [steps % BLOCK] * (
        steps % BLOCK > 0
    )
    assert np.concatenate(blocks).tobytes() == orbit.tobytes()


@pytest.mark.parametrize("a, y0, h", [
    (fc.dynamics_matrix(PARIS), [0.1, 0.01562268953645183, -0.003, 0.07], 1e-3),
    (fc.transport_generator(PARIS), [0.3, 0.5, 0.8], 0.1),
], ids=["pendulum-4x4", "transport-3x3"])
def test_blocks_match_the_stacked_product_of_the_powers(a, y0, h):
    # each block is one flat (B n, n) product; the stacked (B, n, n) product of
    # the same powers with the same row computes every entry as the same dot
    # product, so the two agree to one ulp of each row's largest entry
    steps = 2 * BLOCK + 5
    m = np.array(flow_matrix(a, h))
    powers = [m]
    while len(powers) < BLOCK:
        powers.append(powers[-1] @ m)
    powers = np.array(powers)
    blocks = list(linear_flow_blocks(a, y0, h, steps))
    for before, block in zip(blocks, blocks[1:]):
        stacked = powers[: len(block)] @ before[-1]
        ulp = np.spacing(np.max(np.abs(stacked), axis=1))[:, None]
        assert np.all(np.abs(block - stacked) <= ulp)


def _pendulum_flow(cfg, h):
    """exp(hA) of the co-rotating pendulum from its closed form: in xi = x + i y,
    xi = e^{i Omega t} eta, eta a harmonic oscillator of frequency
    w = sqrt(omega0^2 + Omega^2).  Column j is the state at h from unit state j."""
    om, w = cfg.precession_rate, math.hypot(cfg.omega0, cfg.precession_rate)
    turn, c, s = np.exp(1j * om * h), math.cos(w * h), math.sin(w * h)
    columns = []
    for x, y, vx, vy in np.eye(4):
        xi0, v0 = x + 1j * y, vx + 1j * vy
        eta0, deta0 = xi0, v0 - 1j * om * xi0  # eta = e^{-i Omega t} xi
        eta, deta = eta0 * c + deta0 * s / w, deta0 * c - eta0 * w * s
        xi, v = turn * eta, turn * (deta + 1j * om * eta)
        columns.append([xi.real, xi.imag, v.real, v.imag])
    return np.array(columns).T


_TEN = fc.FoucaultConfig(latitude=0.853, length=10.0)
_ONE = fc.FoucaultConfig(latitude=0.853, length=1.0)


FLOW_BOUND = 2e-14  # of the largest entry, for steps up to 20 s


@pytest.mark.parametrize("cfg", [PARIS, _TEN, _ONE], ids=["paris", "ten-metre", "one-metre"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_flow_matrix_is_the_pendulums_closed_form(cfg, sign):
    # steps up to 20 s, 10 periods of the 1 m pendulum; the largest error
    # measured is 1.2e-15 (Paris), 4.9e-15 (10 m) and 1.1e-14 (1 m)
    a = fc.dynamics_matrix(cfg)
    for h in [1e-3, 0.37, 1.0, 2.0, 5.0, 7.39, 12.5, 20.0]:
        m = flow_matrix(a, sign * h)
        assert type(m) is tuple and all(type(v) is float for row in m for v in row)
        expect = _pendulum_flow(cfg, sign * h)
        assert np.max(np.abs(np.array(m) - expect)) <= FLOW_BOUND * np.max(np.abs(expect))


@pytest.mark.parametrize("kind", ["vector", "covector"])
@pytest.mark.parametrize("h", [0.1, -0.1, 1e3, 1e4, -2.5e5, 3e8])
def test_flow_matrix_of_the_transport_is_the_rotation_by_phi_dot_h(kind, h):
    w = fc.transport_generator(PARIS, kind)
    angle = PARIS.phi_dot * h
    expect = np.array([[1.0, 0.0, 0.0],
                       [0.0, math.cos(angle), -math.sin(angle)],
                       [0.0, math.sin(angle), math.cos(angle)]])
    m = np.array(flow_matrix(w, h))
    # the squarings leave a few ulps per radian of the turn: 1.0e-11 at 3.3e4 rad
    assert np.max(np.abs(m - expect)) <= 1e-15 * max(1.0, abs(angle))
    assert m[0].tolist() == [1.0, 0.0, 0.0] and m[:, 0].tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("h", [0.01, -0.01, 1.0, 10.0, -3.7, 1e6])
def test_flow_matrix_of_a_jordan_block_is_exact(h):
    # a defective matrix, with no eigenbasis: exp(hN) = I + hN exactly
    assert flow_matrix([[0.0, 1.0], [0.0, 0.0]], h) == ((1.0, h), (0.0, 1.0))


def test_rk4_step_on_floats_matches_the_array_form_bit_for_bit():
    def f(t, y):
        x1, x2, x3, v1, v2, v3 = y
        return (v1, v2, v3, -math.sin(x1) + 0.1 * math.cos(t), 0.2 * x1 * v3 - x2,
                -0.5 * x3 - 0.1 * v1 * v2)

    def array_step(t, y, h):
        g = lambda s, z: np.array(f(s, z.tolist()))
        k1 = g(t, y)
        k2 = g(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = g(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = g(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    h = 0.037
    y_floats = (0.3, 0.1, -0.4, 0.7, -0.2, 0.5)
    y_array = np.array(y_floats)
    for k in range(300):
        y_floats = rk4_step(f, k * h, y_floats, h)
        y_array = array_step(k * h, y_array, h)
        assert type(y_floats) is tuple and y_floats == tuple(y_array.tolist())


@pytest.mark.parametrize("steps, h", [
    (True, 0.1), (0, 0.1), (2.0, 0.1), ("3", 0.1), (None, 0.1), (np.array([3]), 0.1),
    (10, "0.1"), (10, None), (10, True), (10, 1j), (10, math.nan), (10, -math.inf), (10, 0.0),
])
def test_validate_steps_refuses_with_a_typed_error(steps, h):
    with pytest.raises(ValidationError):
        validate_steps(steps, h)


_START = (0.1, 0.0, 0.0, 0.0)
_BOX = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
_ORBIT = fc.pendulum_orbit(PARIS, _START, 0.01, 120.0)
_REFUSED_NUMBERS = {  # a library caller's number, and the argument the refusal names
    "orbit-dt": (lambda: fc.pendulum_orbit(PARIS, _START, "0.1", 10.0), "dt"),
    "orbit-duration": (lambda: fc.pendulum_orbit(PARIS, _START, 0.1, None), "duration"),
    "transport-dt": (lambda: fc.transport_orbit(PARIS, "vector", (0, 1, 0), 0.0, 1.0, "0.1"), "dt"),
    "transport-t0": (lambda: fc.parallel_transport(PARIS, "vector", (0, 1, 0), "0", 1.0, 0.1), "t0"),
    "latitude": (lambda: fc.FoucaultConfig(latitude="0.8"), "latitude"),
    "window-nan": (lambda: fc.measure_precession(_ORBIT, math.nan), "window_seconds"),
    "window-inf": (lambda: fc.measure_precession(_ORBIT, math.inf), "window_seconds"),
    "window-str": (lambda: fc.measure_precession(_ORBIT, "60"), "window_seconds"),
    "count-str": (lambda: RegionSampler(*_BOX, count="5"), "sample count"),
    "count-float": (lambda: RegionSampler(*_BOX, count=2.5), "sample count"),
    "count-bool": (lambda: RegionSampler(*_BOX, count=True), "sample count"),
    "seed-negative": (lambda: RegionSampler(*_BOX, seed=-1), "seed"),
    "seed-float": (lambda: RegionSampler(*_BOX, seed=1.5), "seed"),
    "light-speed": (lambda: MetricSignature(MetricKind.MINKOWSKI, "3e8"), "light_speed"),
    "tol": (lambda: classify(parse_oneform(["0", "x", "1"]), RegionSampler(*_BOX, count=4),
                             tol="1e-8"), "tol"),
    # an int too large for a float
    "latitude-huge-int": (lambda: fc.FoucaultConfig(latitude=10**400), "latitude"),
    "light-speed-huge-int": (lambda: MetricSignature(MetricKind.MINKOWSKI, 10**400),
                             "light_speed"),
    "step-size-huge-int": (lambda: validate_steps(1, 10**400), "step size"),
    "orbit-duration-huge-int": (lambda: fc.pendulum_orbit(PARIS, _START, 1e-3, 10**400),
                                "duration"),
    "tol-huge-int": (lambda: classify(parse_oneform(["0", "x", "1"]),
                                      RegionSampler(*_BOX, count=4), tol=10**400), "tol"),
    "region-bound-huge-int": (lambda: RegionSampler((10**400, 0, 0), (1, 1, 1)),
                              "lower region bound"),
    "frobenius-point-huge-int": (lambda: frobenius_coefficient(parse_oneform(["0", "x", "1"]),
                                                               (0, 10**400, 0)), "chart point"),
    "geodesic-nu-huge-int": (lambda: integrate_geodesic(
        PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"])), (0.1, 0.2, 0.3),
        (10**400, 1), 0.01, 5), "nu"),
    # an int past the digit limit of int-to-text conversion, in the message
    "latitude-past-the-digit-limit": (lambda: fc.FoucaultConfig(latitude=10**5000), "latitude"),
    "count-past-the-digit-limit": (lambda: RegionSampler(*_BOX, count=10**5000), "sample count"),
    "negative-count-past-the-digit-limit": (lambda: RegionSampler(*_BOX, count=-10**5000),
                                            "sample count"),
    "seed-past-the-digit-limit": (lambda: RegionSampler(*_BOX, seed=-10**5000), "seed"),
    "step-count-past-the-digit-limit": (lambda: validate_steps(-10**5000, 0.1), "step count"),
    # a record that is not a pendulum orbit or does not step forward, and a
    # state that is not finite numbers: an IndexError, ZeroDivisionError,
    # NumPy ValueError or warning, or a silent NaN, before they were refused
    "precession-trajectory": (lambda: fc.measure_precession(
        fc.simulate_pendulum(PARIS, _START, 0.01, 120.0)), "traj must be a pendulum Orbit"),
    "precession-negative-dt": (lambda: fc.measure_precession(
        fc.pendulum_orbit(PARIS, _START, -0.01, -120.0)), "traj must step forward"),
    "precession-transport-orbit": (lambda: fc.measure_precession(
        fc.transport_orbit(PARIS, "vector", (0, 1, 0), 0.0, 200.0, 0.1)),
        "traj must hold pendulum states"),
    "decompose-nan-state": (lambda: fc.decompose_acceleration(
        PARIS, fc.PendulumState(0.0, math.nan, 0.0, 0.0, 0.0), 0.0), "state"),
    "decompose-infinite-velocity": (lambda: fc.decompose_acceleration(
        PARIS, fc.PendulumState(0.0, 0.0, 0.0, math.inf, 0.0), 0.0), "state"),
    "decompose-nan-restoring": (lambda: fc.decompose_acceleration(
        PARIS, fc.PendulumState(0.0, 0.05, 0.0, 0.0, 0.0), math.nan), "restoring"),
    "decompose-string-entry": (lambda: fc.decompose_acceleration(
        PARIS, fc.PendulumState(0.0, 0.05, "0", 0.0, 0.0), 0.0), "state"),
    # a vector at each call site of errors.check_vector, and each kind of entry it refuses
    "chart-point-nan": (lambda: frobenius_coefficient(parse_oneform(["0", "x", "1"]),
                                                      (0.0, math.nan, 0.0)), "chart point"),
    "chart-point-numpy-nan": (lambda: frobenius_coefficient(parse_oneform(["0", "x", "1"]),
                                                            np.array([0.0, 0.0, math.nan])),
                              "chart point"),
    "geodesic-nu-nan": (lambda: integrate_geodesic(
        PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"])), (0.1, 0.2, 0.3),
        (math.nan, 1.0), 0.01, 5), "initial frame velocity nu"),
    "region-lower-inf": (lambda: RegionSampler((-math.inf, 0, 0), (1, 1, 1)),
                         "lower region bound"),
    "region-upper-nested": (lambda: RegionSampler((0, 0, 0), [[1, 1, 1]]), "upper region bound"),
    "orbit-initial-bool": (lambda: fc.pendulum_orbit(PARIS, (0.1, True, 0.0, 0.0), 0.01, 10.0),
                           "initial pendulum state"),
    # a PendulumState carries t as a fifth entry: the orbit starts at t = 0 and takes 4
    "orbit-initial-pendulum-state": (lambda: fc.pendulum_orbit(
        PARIS, fc.PendulumState(0.0, *_START), 0.01, 10.0), "initial pendulum state"),
    "transport-initial-huge-int": (lambda: fc.transport_orbit(
        PARIS, "vector", (0, 10**400, 0), 0.0, 1.0, 0.1), "initial transported components"),
    "decompose-short-state": (lambda: fc.decompose_acceleration(PARIS, _START, 0.0), "state"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_NUMBERS))
def test_library_numbers_are_refused_with_a_typed_error_that_names_them(case):
    call, name = _REFUSED_NUMBERS[case]
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: fc.FoucaultConfig(latitude=10**5000),
     "latitude must be a finite real number, got an integer of 5001 digits"),
    (lambda: RegionSampler(*_BOX, count=10**5000),
     "sample count must be at most MAX_SAMPLES = 10000000, got an integer of 5001 digits"),
    (lambda: RegionSampler(*_BOX, count=-(10**5000 - 1)),
     "sample count must be >= 1, got an integer of 5000 digits"),
    (lambda: RegionSampler((10**5000, 0, 0), (1, 1, 1)),
     "lower region bound must be 3 finite real numbers, got a tuple too long to print"),
], ids=["latitude", "count", "negative-count", "region-bound"])
def test_a_refused_int_past_the_digit_limit_is_described_by_its_length(call, message):
    # str() of an int of more than 4300 digits raises ValueError, which the
    # message must not
    with pytest.raises(ValidationError) as refusal:
        call()
    assert str(refusal.value) == message


_VALIDATED_RECORDS = {  # a record whose constructor validates, and a field value it refuses
    "region-count": (RegionSampler(*_BOX), "count", 0),
    "foucault-latitude": (PARIS, "latitude", 2.0),
    "foucault-length": (PARIS, "length", -1.0),
    "metric-light-speed": (MetricSignature(MetricKind.MINKOWSKI), "light_speed", -1.0),
}


@pytest.mark.parametrize("case", sorted(_VALIDATED_RECORDS))
def test_validated_records_refuse_bad_fields_through_make_and_replace(case):
    # namedtuple's own _make, which _replace calls, builds the tuple without __new__
    record, field, bad = _VALIDATED_RECORDS[case]
    cls = type(record)
    with pytest.raises(ValidationError):
        record._replace(**{field: bad})
    with pytest.raises(ValidationError):
        cls._make(bad if name == field else value for name, value in zip(cls._fields, record))
    with pytest.raises(TypeError):
        cls._make(list(record)[:-1])
    assert type(cls._make(record)) is cls and cls._make(record) == record
    assert record._replace() == record


def test_every_exported_named_tuple_has_field_types_that_resolve():
    # typing.get_type_hints evaluates each annotation in its module's namespace
    exported = [getattr(pseudoform, name) for name in pseudoform.__all__]
    records = [v for v in exported
               if isinstance(v, type) and issubclass(v, tuple) and hasattr(v, "_fields")]
    assert {"FoucaultGeometry", "Trajectory", "RegionSampler"} <= {r.__name__ for r in records}
    for record in records:
        assert list(typing.get_type_hints(record)) == list(record._fields)


@pytest.mark.parametrize("cls, required, defaults, field, bad", [
    (fc.FoucaultConfig, (0.5,), (67.0, 9.81, fc.OMEGA_EARTH, None), "length", -1.0),
    (RegionSampler, _BOX, (100, 0), "count", 0),
    (MetricSignature, (MetricKind.MINKOWSKI,), (299792458.0,), "light_speed", -1.0),
], ids=["foucault", "region", "metric"])
def test_records_take_defaults_and_arity_from_their_named_tuple(cls, required, defaults, field,
                                                                 bad):
    record = cls(*required)
    assert type(record) is cls and record == cls(*required, *defaults) == (*required, *defaults)
    keywords = dict(zip(cls._fields, required))
    assert cls(**keywords) == record
    with pytest.raises(ValidationError):
        cls(**keywords, **{field: bad})
    with pytest.raises(TypeError):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*required, *defaults, 0)
    with pytest.raises(TypeError):
        cls(*required, colour=1)


def test_validate_steps_takes_numpy_scalars():
    validate_steps(np.int64(3), np.float64(-0.1))
    validate_steps(1, np.float32(1e-3))
