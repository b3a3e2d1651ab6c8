"""Integrability classification of Pfaff equations theta = 0.

The three normal forms (d mu, lambda d mu, d phi + lambda d mu) are
decided pointwise from |d theta| and the Frobenius 3-form theta ^ d theta,
sampled over a user box with a seeded scrambled Halton sequence.
Magnitudes are normalized per sample (|d theta| by |theta|, the Frobenius
coefficient by |theta|^2), so the verdict is invariant under a constant
rescaling of theta that keeps |theta| > ``DEGENERACY_TOL`` = 1e-12 at every
sample.  That threshold is absolute: a sample where the rescaled |theta| is
at or below it raises ``DegeneratePfaffianError``, whatever the unscaled
form gives there.

The sampler and the classification run on plain floats and never import
NumPy.  The digit scramble draws its permutations from
``random.Random(seed).random()``, whose stream Python keeps stable for a
given seed, so the points are the same bytes on every Python version.  The
points are computed one range of indices at a time as they are read, at
most 256 of them while a loop walks the sequence.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from collections.abc import Sequence
from typing import NamedTuple

from .calculus import dtheta_cyclic, format_point, pfaffian_norm, point_coords
from .errors import ValidationError, check_integer, check_real, check_vector, describe

DEFAULT_TOL = 1e-8
HALTON_BASES = (2, 3, 5)
MAX_SAMPLES = 10**7  # largest sample count accepted; the points are computed as they are read
_LOW_SPAN = 256  # most digit values the sampler tabulates for the lowest positions of an axis
_CHUNK = 256  # most points an iteration over the sampler computes at once


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
        lo, hi = self._box()
        count, seed = self.count, self.seed
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

    def _box(self):
        """The corners as two tuples of 3 floats, each checked to be finite."""
        return (check_vector("lower region bound", self.lower, 3),
                check_vector("upper region bound", self.upper, 3))

    def points(self):
        """The ``count`` sample points as a sized sequence of 3-tuples of floats.

        The points are computed one range of indices at a time as they
        are read, so the sequence holds only the scramble's tables,
        whatever the count.
        """
        return _HaltonPoints(*self._box(), operator.index(self.count), operator.index(self.seed))


class _HaltonPoints(Sequence):
    """Points ``lo + v * (hi - lo)`` of a digit-scrambled Halton sequence.

    Axis j of point i takes the radical inverse of i in base
    b = ``HALTON_BASES[j]``, with every digit position passed through its
    own random permutation of the digits (Owen, arXiv:1706.02808,
    Algorithm 1).  The permutations, axis by axis and position by
    position, sort the digits by successive ``random.Random(seed).random()``
    draws.  Positions k = 0 .. K - 1 run while ``b**-(k + 1) > 2**-54``, so
    the fixed tail digits of short indices are scrambled too and fill a
    double.  The unit coordinate is exact up to one rounding: the integer
    V = sum of ``perm_k[d_k(i)] * b**(K - 1 - k)`` and v = V / b**K, Python's
    correctly rounded int division, as in the tests' reference.  V is at
    most b**K - 1, and b**-K > 2**-54 rounds 1 - b**-K down, so v < 1.
    Each axis keeps V's sum over its lowest positions for every value of
    their digits.  Indexing, slicing and iteration (in chunks of at most
    ``_CHUNK`` indices) all compute their points with ``_points``.
    """

    def __init__(self, lo, hi, count, seed):
        self._count = count
        rng = random.Random(seed)
        self._axes = []
        for base, start, end in zip(HALTON_BASES, lo, hi):
            places = math.ceil(54 / math.log2(base)) - 1
            terms = []
            for k in range(places):
                perm = sorted(range(base), key=lambda _: rng.random())
                terms.append(tuple(d * base ** (places - 1 - k) for d in perm))
            # V's sums over the lowest `low` positions, for every value of their digits
            sums, span, low = [0], 1, 0
            while span * base <= _LOW_SPAN:
                sums = [v + t for t in terms[low] for v in sums]
                span, low = span * base, low + 1
            self._axes.append((base, span, sums, terms[low:], base**places, start, end - start))

    def __len__(self):
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._points(range(self._count)[index])
        i = operator.index(index)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("sample index out of range")
        return self._points(range(i, i + 1))[0]

    def __iter__(self):
        for start in range(0, self._count, _CHUNK):
            yield from self._points(range(start, min(start + _CHUNK, self._count)))

    def _points(self, indices):
        """The points of a range of indices, in its order, as a list of 3-tuples.

        Each axis splits the range where ``i // span`` changes.  A segment
        sums V's terms over the higher positions once, into ``c``, and each
        of its points adds ``c`` to its tabulated low sum.
        """
        if indices.step < 0:
            return self._points(indices[::-1])[::-1]
        step, stop = indices.step, indices.stop
        columns = []
        for base, span, sums, high, scale, lo, width in self._axes:
            column, i = [], indices.start
            while i < stop:
                k, low = divmod(i, span)
                values = sums[low:min(low + stop - i, span):step]
                i += len(values) * step
                c = 0
                for terms in high:
                    k, digit = divmod(k, base)
                    c += terms[digit]
                column += [lo + (s + c) / scale * width for s in values]
            columns.append(column)
        return list(zip(*columns))


def frobenius_coefficient(theta, p):
    """Volume coefficient of theta ^ d theta at p.

    Vanishes identically iff the Pfaff equation is completely integrable
    near p (Frobenius's theorem).  theta and its Jacobian come from one
    evaluation of theta at p.
    """
    p = point_coords(p)
    return _sample(*theta.values_and_jacobian(p), p)[2]


def _sample(comps, jac, p):
    """|d theta| / |theta|, the unit and the raw Frobenius coefficient at p,
    from theta's components and Jacobian rows there.

    Everything here is float arithmetic, which overflows to inf or NaN
    silently; the caller refuses what is not finite.  d theta is
    ``dtheta_cyclic`` of the Jacobian rows.
    """
    norm = pfaffian_norm(comps, p)  # raises where theta vanishes
    d = dtheta_cyclic(jac)
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
    The sample points are read as the sampler computes them, at most 256
    at a time, so no per-sample array or list of all points is built.  ``tol``
    must be a finite number >= 0.
    """
    if check_real("tol", tol) < 0:
        raise ValidationError(f"tol must be >= 0, got {describe(tol)}")
    max_d = max_f = max_f_raw = -math.inf
    for p in region.points():
        # theta comes from its own components_at call, a second evaluation of
        # the point, because the benchmark's tracer pins one such call per
        # classify sample; it goes, and theta is read from values_and_jacobian,
        # once the tracer counts evaluated points instead
        d, f, f_raw = _sample(theta.components_at(p), theta.values_and_jacobian(p)[1], p)
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
