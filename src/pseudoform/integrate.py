"""Fixed-step integrators (deterministic, no adaptivity).

``rk4_step`` is the classical RK4 step of the geodesic's 6-float state,
written out entry by entry; ``flow_matrix`` is the exact one-step flow
exp(hA) of a linear y' = A y, whose powers the linear-orbit helpers apply.
Only the linear-orbit helpers import NumPy, when they are called.
"""

from __future__ import annotations

import math
from operator import add, mul

from .errors import ValidationError, check_integer, check_real, describe

BLOCK = 1024  # rows advanced per flat product of powers in linear_flow_blocks


def rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y) for a state of 6 floats.

    Floats in and floats out: ``y`` and what ``f`` returns are 6 floats,
    and the step returns a 6-tuple, written out entry by entry.  Each
    entry is computed in the order of the NumPy-array form, y + (h / 6)
    (k1 + 2 k2 + 2 k3 + k4) with stage points y + (h / 2) k, so for the
    same ``f`` it equals that form bit for bit.
    """
    y1, y2, y3, y4, y5, y6 = y
    half = 0.5 * h
    a1, a2, a3, a4, a5, a6 = f(t, y)
    b1, b2, b3, b4, b5, b6 = f(t + half, (y1 + half * a1, y2 + half * a2, y3 + half * a3,
                                          y4 + half * a4, y5 + half * a5, y6 + half * a6))
    c1, c2, c3, c4, c5, c6 = f(t + half, (y1 + half * b1, y2 + half * b2, y3 + half * b3,
                                          y4 + half * b4, y5 + half * b5, y6 + half * b6))
    d1, d2, d3, d4, d5, d6 = f(t + h, (y1 + h * c1, y2 + h * c2, y3 + h * c3,
                                       y4 + h * c4, y5 + h * c5, y6 + h * c6))
    sixth = h / 6.0
    return (y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
            y6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6))


def validate_steps(steps, h):
    """Refuse a step count that is not a positive integer (a bool is not one)
    and a step size that is not a finite, non-zero real number."""
    if check_integer("step count", steps) < 1:
        raise ValidationError(f"step count must be a positive integer, got {describe(steps)}")
    check_step_size(h)


def check_step_size(h, name="step size"):
    """``h``, refused unless it is a finite, non-zero real number."""
    if check_real(name, h) == 0.0:
        raise ValidationError(f"{name} must be finite and non-zero, got {h!r}")
    return h


def matmul(a, b):
    """a b for matrices of float rows, each entry summed left to right from 0.0."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col), 0.0) for col in cols) for row in a)


def matadd(a, b):
    return tuple(tuple(map(add, x, y)) for x, y in zip(a, b))


def identity(n):
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def _balanced_norm(a):
    """The row-sum norm of |D^-1 A D|, D a diagonal of powers of two that
    balances each row's and column's off-diagonal sums in one sweep (Parlett
    & Reinsch): the pendulum's rows of 1 and omega0^2 become about omega0."""
    b = [list(map(abs, row)) for row in a]
    for i in range(len(b)):
        c = sum(row[i] for j, row in enumerate(b) if j != i)
        r = sum(v for j, v in enumerate(b[i]) if j != i)
        k = (math.frexp(r)[1] - math.frexp(c)[1]) // 2 if c and r else 0
        if math.ldexp(c, k) + math.ldexp(r, -k) < 0.95 * (c + r):
            for row in b:
                row[i] = math.ldexp(row[i], k)
            b[i] = [math.ldexp(v, -k) for v in b[i]]
    return max(map(sum, b))


def flow_matrix(a, h):
    """exp(hA), the exact flow over a step ``h`` of y' = A y, as float rows,
    ``a`` any real matrix: the degree-16 Taylor sum of X = hA / 2^s, term
    k = (h / 2^s k) A (term k - 1), squared s times (Moler & Van Loan, SIAM
    Review 45, 2003, method 3).  s is the least count of halvings that brings
    X's balanced row-sum norm to at most 1/2, so the first neglected term is
    below 1e-19 of the sum; the squarings carry about 2^s ulps of rounding.
    """
    a = tuple(tuple(map(float, row)) for row in a)
    s = max(0, math.frexp(abs(h) * _balanced_norm(a))[1] + 1)  # norm < 2^(s-1)
    h = math.ldexp(h, -s)
    m = term = tuple(tuple(h * v for v in row) for row in a)
    for k in range(2, 17):
        term = tuple(tuple(h / k * v for v in row) for row in matmul(a, term))
        m = matadd(m, term)
    m = matadd(m, identity(len(a)))  # last, so that the sum keeps the terms' bits
    for _ in range(s):
        m = matmul(m, m)
    return m


def linear_flow_blocks(a, y0, h, steps):
    """The orbit y_k = exp(k h A) y0 of y' = A y, yielded in row blocks.

    The first block is row 0, ``y0`` exactly, as a (1, n) array; then come
    blocks of at most B = ``BLOCK`` rows.  With M = ``flow_matrix(a, h)``,
    the powers M^1 ... M^B (B at most ``steps``) are formed once, and each
    block is one product of the powers, flattened to a (B n, n) matrix, with
    the last row before it: row s + j is M^j applied to row s, which is
    stepping ``y = M @ y`` in another rounding order.  Between blocks only
    the powers and the last row are kept.  A row that overflows grows to inf
    and NaN without a NumPy warning; the caller decides what it means.
    """
    import numpy as np

    validate_steps(steps, h)
    y = np.asarray(y0, dtype=float)
    n = y.size
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((min(BLOCK, steps), n, n))
        powers[0] = flow_matrix(a, h)
        for j in range(1, len(powers)):
            powers[j] = powers[j - 1] @ powers[0]
    flat = powers.reshape(-1, n)
    yield y.reshape(1, -1).copy()
    for s in range(0, steps, len(powers)):
        with np.errstate(over="ignore", invalid="ignore"):
            block = (flat[: min(len(powers), steps - s) * n] @ y).reshape(-1, n)
        yield block
        y = block[-1].copy()


def linear_rk4_orbit(a, y0, h, steps):
    """The whole orbit of y' = A y as one (steps + 1, n) array, filled with
    the blocks of ``linear_flow_blocks``, bit for bit, so row 0 is ``y0``.
    The name stays because the benchmark's tracer wraps it by name."""
    import numpy as np

    validate_steps(steps, h)
    out = np.empty((steps + 1, np.size(y0)))
    row = 0
    for block in linear_flow_blocks(a, y0, h, steps):
        out[row : row + len(block)] = block
        row += len(block)
    return out
