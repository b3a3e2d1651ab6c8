"""Parallel transport in the rotating constraint plane.

Transports a spatial unit vector along the time axis for 10^4 steps and
shows that its chart components rotate at exactly the plane rate
phi_dot while its length stays fixed -- the holonomy that drives the
pendulum's apparent precession.
"""

import math

import numpy as np

from pseudoform import FoucaultConfig, parallel_transport

cfg = FoucaultConfig(latitude=math.radians(48.85))
rate = cfg.phi_dot
span = 1e4 * 0.1

result = parallel_transport(cfg, "vector", (0.0, 1.0, 0.0), 0.0, span, 0.1)
expected = np.column_stack(
    [np.zeros_like(result.times), np.cos(rate * result.times), np.sin(rate * result.times)]
)
norms = np.linalg.norm(result.states, axis=1)

print(f"steps              {len(result.times) - 1}")
print(f"rotation rate      {rate:.4e} rad/s")
print(f"final angle        {math.degrees(rate * span):.3f} deg")
print(f"tracking error     {np.max(np.abs(result.states - expected)):.3e}")
print(f"norm drift         {np.max(np.abs(norms - 1.0)):.3e}")

covector = parallel_transport(cfg, "covector", (0.0, 1.0, 0.0), 0.0, span, 0.1)
pairing = np.einsum("ij,ij->i", covector.states, result.states)
print(f"pairing drift      {np.max(np.abs(pairing - 1.0)):.3e}  (<alpha, v> is invariant)")
