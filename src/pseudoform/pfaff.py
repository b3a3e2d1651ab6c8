"""Integrability classification of Pfaff equations theta = 0.

The three normal forms (d mu, lambda d mu, d phi + lambda d mu) are
decided pointwise from |d theta| and the Frobenius 3-form theta ^ d theta,
sampled over a user box with a seeded scrambled Halton sequence.
Magnitudes are normalized per sample (|d theta| by |theta|, the Frobenius
coefficient by |theta|^2) so the verdict is invariant under constant
rescaling of theta.

The sampler and the classification run on plain floats and never import
NumPy.  The digit scramble draws its permutations from
``random.Random(seed).random()``, whose stream Python keeps stable for a
given seed, so the points are the same bytes on every Python version; each
point is computed from its index when it is read.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from collections.abc import Sequence
from typing import NamedTuple

from .calculus import dtheta_cyclic, float_coords, format_point, pfaffian_norm, point_coords
from .errors import ValidationError, check_integer, check_real, describe

DEFAULT_TOL = 1e-8
HALTON_BASES = (2, 3, 5)
MAX_SAMPLES = 10**7  # largest sample count accepted; the points are computed as they are read
_LOW_SPAN = 256  # most digit values the sampler tabulates for the lowest positions of an axis


class NormalForm(enum.Enum):
    CLOSED = "closed"                       # d theta = 0, theta = d mu
    INTEGRATING_FACTOR = "integrating_factor"  # theta ^ d theta = 0, theta = lambda d mu
    NON_INTEGRABLE = "non_integrable"       # theta = d phi + lambda d mu


class IntegrabilityClass(NamedTuple):
    kind: NormalForm
    max_dtheta: float
    max_frobenius: float
    max_frobenius_raw: float


class _RegionFields(NamedTuple):
    lower: tuple
    upper: tuple
    count: int = 100
    seed: int = 0


class RegionSampler(_RegionFields):
    """Axis-aligned box sampler with a deterministic Halton sequence."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lower, upper, count, seed = self
        lo, hi = float_coords(lower, 3), float_coords(upper, 3)
        if lo is None or hi is None:
            raise ValidationError("region bounds must each have 3 coordinates, all real numbers")
        box = f"lower={format_point(lo)}, upper={format_point(hi)}"
        if not all(b > a for a, b in zip(lo, hi)):
            raise ValidationError(f"degenerate region box: {box}")
        if not all(math.isfinite(b - a) for a, b in zip(lo, hi)):
            raise ValidationError(f"region box is wider than a float can hold: {box}")
        if check_integer("sample count", count) < 1:
            raise ValidationError(f"sample count must be >= 1, got {describe(count)}")
        if count > MAX_SAMPLES:
            raise ValidationError(
                f"sample count must be at most MAX_SAMPLES = {MAX_SAMPLES}, got {describe(count)}")
        if check_integer("seed", seed) < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {describe(seed)}")
        return self

    @classmethod
    def _make(cls, iterable):  # the inherited one checks the length but skips __new__
        return cls(*super()._make(iterable))

    def points(self):
        """The ``count`` sample points as a sized sequence of 3-tuples of floats.

        Each point is computed from its index when it is read, so the
        sequence holds only the scramble's tables, whatever the count.
        """
        lo, hi = float_coords(self.lower, 3), float_coords(self.upper, 3)
        return _HaltonPoints(lo, hi, operator.index(self.count), operator.index(self.seed))


class _HaltonPoints(Sequence):
    """Points ``lo + v * (hi - lo)`` of a digit-scrambled Halton sequence.

    Axis j of point i takes the radical inverse of i in base
    ``HALTON_BASES[j]``, with every digit position passed through its own
    random permutation of the digits (Owen, arXiv:1706.02808, Algorithm 1).
    The permutations, axis by axis and position by position, sort the
    digits by successive ``random.Random(seed).random()`` draws.
    Positions run while ``base**-k > 2**-54``, so the fixed tail digits of
    short indices are scrambled too and fill a double.  The value adds
    ``perm[digit] * base**-k`` from the lowest position up, one addition
    at a time, as the array form in the tests' reference does, so the
    floats are the same.  Each axis keeps that sum over its lowest
    positions for every value of their digits, the terms of the positions
    that indices below the count reach, and the nonzero terms of the
    positions they do not (each the scrambled 0).
    """

    def __init__(self, lo, hi, count, seed):
        self._count = count
        rng = random.Random(seed)
        self._axes = []
        for base, start, end in zip(HALTON_BASES, lo, hi):
            terms, scale = [], 1.0 / base
            for _ in range(math.ceil(54 / math.log2(base)) - 1):
                perm = sorted(range(base), key=lambda _: rng.random())
                terms.append(tuple(d * scale for d in perm))
                scale /= base
            # the sums over the lowest `low` positions, for every value of their digits
            sums, span, low = [0.0], 1, 0
            while span * base <= _LOW_SPAN:
                sums = [v + t for t in terms[low] for v in sums]
                span, low = span * base, low + 1
            used = low  # every index below count has zero digits from position `used` on
            while span * base ** (used - low) < count:
                used += 1
            tail = tuple(t[0] for t in terms[used:] if t[0])  # adding 0.0 changes no sum
            if base == 2:  # every partial sum is a multiple of 2**-53 below 1, so exact
                tail = (math.fsum(tail),)
            self._axes.append((base, span, sums, tuple(terms[low:used]), tail, start, end - start))

    def __len__(self):
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._point(i) for i in range(*index.indices(self._count))]
        i = operator.index(index)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("sample index out of range")
        return self._point(i)

    def __iter__(self):
        return map(self._point, range(self._count))

    def _point(self, i):
        coords = []
        for base, span, sums, head, tail, lo, width in self._axes:
            v, k = sums[i % span], i // span
            for terms in head:
                v += terms[k % base]
                k //= base
            for term in tail:
                v += term
            coords.append(lo + v * width)
        return tuple(coords)


def frobenius_coefficient(theta, p):
    """Volume coefficient of theta ^ d theta at p.

    Vanishes identically iff the Pfaff equation is completely integrable
    near p (Frobenius's theorem).
    """
    return _sample(theta, point_coords(p))[2]


def _sample(theta, p):
    """|d theta| / |theta|, the unit and the raw Frobenius coefficient at p.

    p is 3 floats and everything here is float arithmetic, which
    overflows to inf or NaN silently; the caller refuses what is not
    finite.  d theta is ``dtheta_cyclic`` of the Jacobian rows.
    """
    # theta comes from its own components_at call, a second evaluation of
    # the point, because the benchmark's tracer pins one such call per
    # classify sample; it goes, and theta is read from values_and_jacobian,
    # once the tracer counts evaluated points instead
    comps = theta.components_at(p)
    norm = pfaffian_norm(comps, p)  # raises where theta vanishes
    d = dtheta_cyclic(theta.values_and_jacobian(p)[1])
    unit = _dot(comps, d, norm)
    return math.hypot(*d) / norm, unit, (unit * norm) * norm


def _dot(a, b, norm):
    """(a / norm) . (b / norm) of two float 3-sequences, which overflows to
    inf silently.  Frobenius coefficients divide by |theta| before the
    products, so a huge theta gives no inf - inf."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a1 / norm) * (b1 / norm) + (a2 / norm) * (b2 / norm) + (a3 / norm) * (b3 / norm)


def classify(theta, region, tol=DEFAULT_TOL):
    """Decide the normal form of theta = 0 over the sampled region.

    Each sample is one float ``_sample``; the three maxima are tracked as
    floats, and a NaN sample makes its maximum NaN (as ``np.max`` would).
    The sample points are read one at a time, as the sampler computes
    them, so no per-sample array or list of all points is built.
    """
    check_real("tol", tol)
    max_d = max_f = max_f_raw = -math.inf
    for p in region.points():
        d, f, f_raw = _sample(theta, p)
        f, f_raw = abs(f), abs(f_raw)
        if d > max_d or d != d:
            max_d = d
        if f > max_f or f != f:
            max_f = f
        if f_raw > max_f_raw or f_raw != f_raw:
            max_f_raw = f_raw
    if max_d <= tol:
        kind = NormalForm.CLOSED
    elif max_f <= tol:
        kind = NormalForm.INTEGRATING_FACTOR
    else:
        kind = NormalForm.NON_INTEGRABLE
    return IntegrabilityClass(kind, max_d, max_f, max_f_raw)
