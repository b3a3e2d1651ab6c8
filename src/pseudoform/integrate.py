"""Fixed-step classical RK4 helpers (deterministic, no adaptivity)."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def validate_steps(steps, h):
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValidationError(f"step count must be a positive integer, got {steps!r}")
    if not np.isfinite(h) or h == 0.0:
        raise ValidationError(f"step size must be finite and non-zero, got {h!r}")


def rk4_transition_matrix(a, h):
    """One-step RK4 update matrix for the linear system y' = A y."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    m = np.eye(n)
    term = np.eye(n)
    for k in range(1, 5):
        term = (h / k) * (a @ term)
        m = m + term
    return m


def linear_rk4_orbit(a, y0, h, steps):
    """All RK4 iterates of y' = A y, via powers of the one-step matrix.

    Identical scheme to stepping with ``rk4_step``, evaluated through an
    eigendecomposition so multi-million-step runs stay fast.  Falls back
    to explicit stepping if the eigenbasis is ill-conditioned.
    """
    validate_steps(steps, h)
    m = rk4_transition_matrix(a, h)
    y0 = np.asarray(y0, dtype=float)
    try:
        lam, vecs = np.linalg.eig(m)
        if np.linalg.cond(vecs) > 1e8:
            raise np.linalg.LinAlgError("ill-conditioned eigenbasis")
        coeff = np.linalg.solve(vecs, y0.astype(complex))
    except np.linalg.LinAlgError:
        out = np.empty((steps + 1, y0.size))
        out[0] = y0
        y = y0
        for k in range(steps):
            y = m @ y
            out[k + 1] = y
        return out
    loglam = np.log(lam)
    out = np.empty((steps + 1, y0.size))
    chunk = 1_000_000
    for start in range(0, steps + 1, chunk):
        stop = min(start + chunk, steps + 1)
        n = np.arange(start, stop)[:, None]
        powers = np.exp(n * loglam[None, :])
        out[start:stop] = ((powers * coeff[None, :]) @ vecs.T).real
    out[0] = y0  # the power path reproduces y0 only up to rounding
    return out
