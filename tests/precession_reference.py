"""The streamed, windowed precession measurement, kept as a reference.

This is how ``foucault.measure_precession`` measured before it took each
window's moments from its start state: the rows are read block by block,
cut into windows held in one reused buffer, and each window's second
moments are the NumPy means of its sampled x^2, y^2 and xy.  It reads an
``Orbit`` through its blocks, or a ``Trajectory`` (a synthetic one too) as
one block, its step read from the first two times.  The centre state is
the window's row floor((n - 1) / 2), as in the library.
"""

import math

import numpy as np

from pseudoform import foucault as fc
from pseudoform.errors import ValidationError


def _windows(blocks, size, count):
    """The first ``count`` windows of ``size`` rows from (times, states) blocks,
    each copied into one reused buffer."""
    times = np.empty(size)
    states = np.empty((size, 4))
    fill = 0
    for block_times, block_states in blocks:
        start = 0
        while start < len(block_times):
            take = min(size - fill, len(block_times) - start)
            times[fill : fill + take] = block_times[start : start + take]
            states[fill : fill + take] = block_states[start : start + take]
            fill += take
            start += take
            if fill == size:
                yield times, states
                count -= 1
                if count == 0:
                    return
                fill = 0


def measure_precession(traj, window_seconds=None):
    """A ``PrecessionEstimate`` of NumPy arrays from the rows of ``traj``."""
    if isinstance(traj, fc.Orbit):
        blocks, rows, dt = traj.blocks(), traj.rows, traj.dt
    else:
        blocks, rows, dt = [(traj.times, traj.states)], len(traj.times), traj.times[1] - traj.times[0]
    cfg = traj.config
    if window_seconds is None:
        window_seconds = 2.0 * cfg.period
    if window_seconds < 2.0 * cfg.period:
        raise ValidationError("window shorter than two pendulum periods")
    per_window = max(2, int(round(window_seconds / dt)))
    n_windows = rows // per_window
    centers = np.empty(n_windows)
    angles = np.empty(n_windows)
    center_states = np.empty((n_windows, 4))
    for k, (times, states) in enumerate(_windows(blocks, per_window, n_windows)):
        centers[k] = center = float(np.mean(times))
        x, y = states[:, 0], states[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            moments = [float(np.mean(x * x)), float(np.mean(y * y)), float(np.mean(x * y))]
        angles[k] = fc._window_angle(*moments, k, center)
        center_states[k] = states[(per_window - 1) // 2]
    for k in range(1, n_windows):
        while angles[k] - angles[k - 1] > math.pi / 2:
            angles[k] -= math.pi
        while angles[k] - angles[k - 1] < -math.pi / 2:
            angles[k] += math.pi
    slope = np.polyfit(centers, angles, 1)[0]
    return fc.PrecessionEstimate(float(slope), centers, angles, center_states)
