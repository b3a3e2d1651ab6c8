"""Block-power RK4 orbits against explicit one-step stepping."""

import math

import numpy as np
import pytest

from pseudoform import foucault as fc
from pseudoform.integrate import BLOCK, linear_rk4_orbit, rk4_transition_matrix

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
