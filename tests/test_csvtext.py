"""The table writer's text is ``'%.17g' % v`` per value, byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudoform import csvtext
from pseudoform.csvtext import csv_text


def _reference(table):
    """The per-value ``%.17g`` rows of a 2-D table, one ``%`` over its values."""
    rows, width = table.shape
    return (",".join(["%.17g"] * width) + "\n") * rows % tuple(table.ravel().tolist())


def _assert_same_text(values, width=1):
    """The writer's text of ``values`` in rows of ``width``, the last one
    filled out with 0.5, is the per-value ``%.17g``."""
    values = list(values) + [0.5] * (-len(values) % width)
    table = np.array(values, dtype=np.float64).reshape(-1, width)
    assert "".join(csv_text([table])) == _reference(table)


def test_random_bit_patterns_cover_every_finite_double():
    # 4e6 random 64-bit patterns: both signs, subnormals, every exponent, and
    # blocks of 1024 rows as the CLI streams them
    rng = np.random.default_rng(20260)
    tested = 0
    for _ in range(100):
        values = rng.integers(0, 2**64, 40960, dtype=np.uint64, endpoint=False).view(np.float64)
        table = values[np.isfinite(values)]
        table = table[: table.size - table.size % 5].reshape(-1, 5)
        blocks = [table[k:k + 1024] for k in range(0, len(table), 1024)]
        assert "".join(csv_text(blocks)) == _reference(table)
        tested += table.size
    assert tested >= 4 * 10**6


_TINY, _MIN_NORMAL, _MAX = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308


def _neighbours(x, count):
    """x and the ``count`` doubles on each side of it."""
    up = down = x
    found = [x]
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        found += [up, down]
    return found


def _signed(values):
    values = [float(v) for v in values]
    return values + [-v for v in values]


def test_extreme_magnitudes_and_zeros():
    edges = [0.0, _TINY, 2 * _TINY, _MIN_NORMAL, math.nextafter(_MIN_NORMAL, 0.0), _MAX,
             math.nextafter(_MAX, 0.0), 1e-280, 1e280, *_neighbours(1e-280, 4),
             *_neighbours(1e280, 4)]
    _assert_same_text(_signed(edges))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-300, 300):
        power = float(10**k) if k >= 0 else 1.0 / 10**-k
        for j in range(9):
            values += [power * (1 + j * 2.0**-52), power * (1 - j * 2.0**-52)]
        values += _neighbours(power, 2)
    _assert_same_text(_signed(values), width=4)


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
def test_the_fixed_and_exponent_forms_switch_where_percent_g_does(switch):
    values = _neighbours(switch, 300) + [switch * (1 - 0.5 * 10.0**-k) for k in range(1, 18)]
    _assert_same_text(_signed(values), width=7)


def test_integers_around_two_to_the_53():
    _assert_same_text(_signed([2.0**53 + k for k in range(-4, 7)] + [2.0**54, 2.0**57]), width=3)


def test_exact_ties_go_through_percent():
    # m / 4 for odd m has 18 significant digits ending in 5: round half to even
    rng = np.random.default_rng(4)
    m = rng.integers(2 * 10**15, 45 * 10**14, 50000) * 2 + 1
    m = np.concatenate([m, [4 * 10**15 + 1, 9 * 10**15 - 1]])
    frac = csvtext._scaled(m / 4.0)[3]
    assert np.all(np.abs(frac - 0.5) <= 1e-9)  # so none is certified
    _assert_same_text(_signed((m / 4.0).tolist()), width=5)


def test_integers_up_to_1e17_and_their_binary_fractions():
    rng = np.random.default_rng(17)
    ints = np.concatenate([rng.integers(0, 10**17, 40000, endpoint=True),
                           rng.integers(0, 10**6, 10000),
                           [10**k for k in range(18)], [10**k - 1 for k in range(1, 18)]])
    values = ints.astype(np.float64)
    _assert_same_text(_signed(np.concatenate([values, values / 1024.0])), width=6)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 7)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_hypothesis_tables(table):
    assert "".join(csv_text([table])) == _reference(table)


@pytest.mark.parametrize("cuts", [(), (1,), (3, 3), (0, 2, 5, 5, 9), tuple(range(1, 11))])
def test_the_text_does_not_depend_on_how_the_table_is_split(cuts):
    rng = np.random.default_rng(9)
    table = np.concatenate([rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-8, 20, (6, 3)),
                            [[0.0, -0.0, 5e-324], [1e300, 0.1, 2.0**53]]])
    assert "".join(csv_text(np.split(table, cuts))) == _reference(table)


def test_a_non_contiguous_block_is_read_as_its_values():
    table = np.arange(60.0).reshape(10, 6) / 7.0
    assert "".join(csv_text([table[::2, 1:4], table.T])) == (
        _reference(table[::2, 1:4]) + _reference(table.T))


def test_scaled_significand_is_within_the_stated_bound():
    # the module docstring's bound: floor(y) + frac is within 5e-15 of
    # y = |v| 10^(16 - E), checked in exact rational arithmetic
    rng = np.random.default_rng(3)
    a = np.abs(np.concatenate([
        rng.integers(0, 2**63, 20000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-280, 280, 20000),
    ]))
    a = a[(a >= 1e-280) & (a <= 1e280)]
    inside, exp_index, floor_y, frac = csvtext._scaled(a)
    assert np.array_equal(inside, a)
    checked = 0
    for x, i, whole, part in zip(a.tolist(), exp_index.tolist(), floor_y.tolist(), frac.tolist()):
        y = Fraction(x) * Fraction(10) ** (16 - (i + csvtext._EMIN))
        if 10**16 <= y < 10**17:
            assert abs(whole + Fraction(part) - y) <= Fraction(5, 10**15)
            checked += 1
    assert checked >= 0.99 * len(a)
