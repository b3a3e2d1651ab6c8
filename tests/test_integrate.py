"""Block-power RK4 orbits against explicit one-step stepping."""

import math

import numpy as np
import pytest

from pseudoform import foucault as fc
from pseudoform.errors import ValidationError
from pseudoform.formlang import parse_oneform
from pseudoform.curves import integrate_geodesic
from pseudoform.geometry import MetricKind, MetricSignature, PseudoSurface
from pseudoform.pfaff import RegionSampler, classify, frobenius_coefficient
from pseudoform.integrate import (
    BLOCK, linear_rk4_blocks, linear_rk4_orbit, rk4_step, rk4_transition_matrix, validate_steps,
)

PARIS = fc.FoucaultConfig(latitude=math.radians(48.85), length=67.0)
DEVIATION_BOUND = 1e-12  # max |orbit - stepping| over max |stepping|


def _stepped(a, y0, h, steps):
    """Reference orbit: y = M @ y, one step at a time."""
    m = rk4_transition_matrix(a, h)
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
    blocks = list(linear_rk4_blocks(a, y0, 1e-3, steps))
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
    m = np.array(rk4_transition_matrix(a, h))
    powers = [m]
    while len(powers) < BLOCK:
        powers.append(powers[-1] @ m)
    powers = np.array(powers)
    blocks = list(linear_rk4_blocks(a, y0, h, steps))
    for before, block in zip(blocks, blocks[1:]):
        stacked = powers[: len(block)] @ before[-1]
        ulp = np.spacing(np.max(np.abs(stacked), axis=1))[:, None]
        assert np.all(np.abs(block - stacked) <= ulp)


@pytest.mark.parametrize("a, h", [
    (fc.dynamics_matrix(PARIS), 1e-3), (fc.dynamics_matrix(PARIS), -1e-2),
    (fc.dynamics_matrix(fc.FoucaultConfig(latitude=0.853, length=10.0)), 0.01),
    (fc.transport_generator(PARIS), 0.1), (fc.transport_generator(PARIS, "covector"), 0.1),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.01),
], ids=["paris", "paris-backward", "ten-metre", "transport", "covector", "jordan"])
def test_transition_matrix_on_floats_matches_the_array_form(a, h):
    # the same sum as NumPy arrays; a BLAS product may fuse a multiply and an
    # add, so the two are held to one ulp of each row's largest entry
    m = rk4_transition_matrix(a, h)
    assert type(m) is tuple and all(type(v) is float for row in m for v in row)
    a = np.asarray(a, dtype=float)
    term = expect = np.eye(len(a))
    for k in range(1, 5):
        term = (h / k) * (a @ term)
        expect = expect + term
    ulp = np.spacing(np.max(np.abs(expect), axis=1))[:, None]
    assert np.all(np.abs(np.array(m) - expect) <= ulp)


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
    "region-bound-huge-int": (lambda: RegionSampler((10**400, 0, 0), (1, 1, 1)), "region bounds"),
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
], ids=["latitude", "count", "negative-count"])
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
