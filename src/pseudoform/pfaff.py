"""Integrability classification of Pfaff equations theta = 0.

The three normal forms (d mu, lambda d mu, d phi + lambda d mu) are
decided pointwise from |d theta| and the Frobenius 3-form theta ^ d theta,
sampled over a user box with a seeded scrambled Halton sequence.
Magnitudes are normalized per sample (|d theta| by |theta|, the Frobenius
coefficient by |theta|^2) so the verdict is invariant under constant
rescaling of theta.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .calculus import as_point, exterior_derivative, pfaffian_norm
from .errors import ValidationError

DEFAULT_TOL = 1e-8
HALTON_BASES = (2, 3, 5)


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
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValidationError("region bounds must each have 3 coordinates")
        if not np.all(hi > lo):
            raise ValidationError(f"degenerate region box: lower={lo}, upper={hi}")
        if self.count < 1:
            raise ValidationError(f"sample count must be >= 1, got {self.count}")

    def points(self):
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
    p = as_point(p)
    comps = theta.components_at(p)
    pfaffian_norm(comps, p)  # raises where theta vanishes
    return _dot(comps, exterior_derivative(theta, p).components)


def _dot(a, b):
    """a . b of two 3-vectors in float arithmetic, which overflows to inf silently."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return a1 * b1 + a2 * b2 + a3 * b3


def classify(theta, region, tol=DEFAULT_TOL):
    """Decide the normal form of theta = 0 over the sampled region."""
    points = region.points()
    dtheta_mag = np.empty(len(points))
    frobenius = np.empty(len(points))
    frobenius_raw = np.empty(len(points))
    for k, p in enumerate(points):
        comps = theta.components_at(p)
        norm = pfaffian_norm(comps, p)
        d = exterior_derivative(theta, p).components
        dtheta_mag[k] = math.hypot(*d) / norm
        frobenius_raw[k] = _dot(comps, d)
        frobenius[k] = (frobenius_raw[k] / norm) / norm
    max_d = float(np.max(dtheta_mag))
    max_f = float(np.max(np.abs(frobenius)))
    max_f_raw = float(np.max(np.abs(frobenius_raw)))
    if max_d <= tol:
        kind = NormalForm.CLOSED
    elif max_f <= tol:
        kind = NormalForm.INTEGRATING_FACTOR
    else:
        kind = NormalForm.NON_INTEGRABLE
    return IntegrabilityClass(kind, max_d, max_f, max_f_raw)


def constraint_residual(theta, curve):
    """Max normalized |theta(tangent)| over the samples of a path.

    ``curve`` provides ``points`` (n, 3) and ``velocities`` (n, 3); an
    integral curve of theta = 0 returns a residual at the integration
    tolerance.
    """
    points = np.asarray(curve.points, dtype=float)
    velocities = np.asarray(curve.velocities, dtype=float)
    if len(points) < 2:
        raise ValidationError("constraint residual needs >= 2 path samples")
    if not np.all(np.isfinite(velocities)):
        raise ValidationError("path velocities must be finite")
    worst = 0.0
    for p, v in zip(points, velocities):
        comps = theta.components_at(p)
        denom = math.hypot(*comps) * math.hypot(*v) + 1e-30
        worst = max(worst, abs(_dot(comps, v)) / denom)
    return worst
