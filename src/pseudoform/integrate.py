"""Fixed-step classical RK4 helpers (deterministic, no adaptivity).

``rk4_step``, ``validate_steps`` and ``rk4_transition_matrix`` run on
plain Python numbers; ``rk4_step`` is the step of the geodesic's 6-float
state, its only caller, written out entry by entry.  The linear-orbit
helpers import NumPy when they are called.
"""

from __future__ import annotations

from operator import add, mul

from .errors import ValidationError, check_integer, check_real, describe

BLOCK = 1024  # rows advanced per flat product of powers in linear_rk4_blocks


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


def identity(n):
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def rk4_transition_matrix(a, h):
    """One-step RK4 matrix I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 of y' = A y
    as float rows, ``a`` any real matrix.  Term k is (h / k) A (term k - 1),
    added entry by entry: for the pendulum and transport generators, the bits
    of the same sum formed with NumPy arrays."""
    a = tuple(tuple(map(float, row)) for row in a)
    m = term = identity(len(a))
    for k in range(1, 5):
        term = tuple(tuple(h / k * v for v in row) for row in matmul(a, term))
        m = tuple(tuple(map(add, x, y)) for x, y in zip(m, term))
    return m


def linear_rk4_blocks(a, y0, h, steps):
    """The RK4 iterates of y' = A y, yielded in row blocks.

    The first block is row 0, ``y0`` exactly, as a (1, n) array; then come
    blocks of at most B = ``BLOCK`` rows.  With M the one-step matrix, the
    powers M^1 ... M^B (B at most ``steps``) are formed once, and each block
    is one product of the powers, flattened to a (B n, n) matrix, with the
    last row before it: row s + j is M^j applied to row s.  The tests hold
    it to one ulp of each row's largest entry of the stacked (B, n, n)
    product.  This is the scheme of stepping ``y = M @ y`` with a different
    rounding order; the tests bound its deviation from explicit stepping
    (at most 1e-12 of the largest state component over 2e5 steps of the
    Paris pendulum).  Between blocks the generator keeps only the powers
    and the last row.  A step past RK4's stability limit grows to inf and
    NaN without a NumPy warning; the caller decides what such a row means.
    """
    import numpy as np

    validate_steps(steps, h)
    y = np.asarray(y0, dtype=float)
    n = y.size
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((min(BLOCK, steps), n, n))
        powers[0] = rk4_transition_matrix(a, h)
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
    """All RK4 iterates of y' = A y as one (steps + 1, n) array, filled with
    the blocks of ``linear_rk4_blocks``, bit for bit, so row 0 is ``y0``."""
    import numpy as np

    validate_steps(steps, h)
    out = np.empty((steps + 1, np.size(y0)))
    row = 0
    for block in linear_rk4_blocks(a, y0, h, steps):
        out[row : row + len(block)] = block
        row += len(block)
    return out
