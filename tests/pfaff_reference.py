"""The array forms of ``pfaff.classify`` and its sampler, kept as references.

``points`` builds a sampler's points on arrays, with the digit
permutations drawn from its own ``random.Random(seed)``:
``RegionSampler.points()`` must give the same floats bit for bit.

``classify`` reads those points.  Each sample takes theta from
``components_at`` and d theta from its own array ``j - j.T`` of the
``values_and_jacobian`` rows, not from the library's cyclic helper, so
the check stays independent of it.  The per-sample magnitudes go into
arrays, and the maxima are ``np.max`` over those arrays, so a NaN sample
makes its maximum NaN.  ``classify`` in ``src`` must give the same three
maxima bit for bit.
"""

import math
import random

import numpy as np

from pseudoform.calculus import pfaffian_norm
from pseudoform.pfaff import DEFAULT_TOL, HALTON_BASES, IntegrabilityClass, NormalForm


def scrambled_halton(count, seed):
    """First ``count`` points of a digit-scrambled Halton sequence in [0, 1)^3.

    Axis j takes the radical inverse of the point index in base
    b = ``HALTON_BASES[j]``, with every digit position passed through its
    own permutation of the digits, the digits sorted by successive
    ``random.Random(seed).random()`` draws (Owen, arXiv:1706.02808,
    Algorithm 1).  Positions k = 0 .. K - 1 run while
    ``b**-(k + 1) > 2**-54``, so the fixed tail digits of short indices are
    scrambled too and fill a double.  The integer
    V = sum of ``perm_k[d_k(i)] * b**(K - 1 - k)`` is summed digit by digit
    on int64 arrays (3**34 < 2**63), and the coordinate is V / b**K,
    Python's correctly rounded int division; NumPy's would round V to a
    float first.  V is at most b**K - 1, and b**-K > 2**-54 rounds
    1 - b**-K down, so every coordinate is below 1.
    """
    rng = random.Random(seed)
    unit = np.empty((count, len(HALTON_BASES)))
    for axis, base in enumerate(HALTON_BASES):
        places = math.ceil(54 / math.log2(base)) - 1
        index = np.arange(count)
        total = np.zeros(count, dtype=np.int64)
        for k in range(places):
            perm = np.array(sorted(range(base), key=lambda _: rng.random()), dtype=np.int64)
            total += perm[index % base] * base ** (places - 1 - k)
            index //= base
        unit[:, axis] = [v / base**places for v in total.tolist()]
    return unit


def points(region):
    """The sampler's (count, 3) points, ``lo + unit * (hi - lo)`` on arrays."""
    lo = np.asarray(region.lower, dtype=float)
    hi = np.asarray(region.upper, dtype=float)
    return lo + scrambled_halton(region.count, region.seed) * (hi - lo)


def _dot(a, b, norm):
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return (a1 / norm) * (b1 / norm) + (a2 / norm) * (b2 / norm) + (a3 / norm) * (b3 / norm)


def classify(theta, region, tol=DEFAULT_TOL):
    pts = points(region)
    dtheta_mag = np.empty(len(pts))
    frobenius = np.empty(len(pts))
    frobenius_raw = np.empty(len(pts))
    for k, p in enumerate(pts):
        comps = np.array(theta.components_at(p))
        norm = pfaffian_norm(comps, p)
        j = np.array(theta.values_and_jacobian(p)[1])  # j[i, m] = d_i theta_m
        a = j - j.T
        d = np.array([a[1, 2], a[2, 0], a[0, 1]])
        dtheta_mag[k] = math.hypot(*d) / norm
        unit = _dot(comps, d, norm)
        frobenius[k] = unit
        frobenius_raw[k] = (unit * norm) * norm
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
