"""A day of the Paris pendulum: simulate, measure, and compare.

Runs the small-angle pendulum in the co-rotating frame for two hours,
measures the swing-plane precession from the orbit's step matrix and
start state alone (each window's second moments are exact quadratic
forms of its start state), and compares it with the latitude oracle
omega_E * sin(latitude).  The trajectory is written as CSV next to this
script, one sample per second.  The orbit is read one block of rows at a
time, so the 7.2e6 steps are never held at once.
"""

import csv
import math
import pathlib

from pseudoform import FoucaultConfig, measure_precession, pendulum_orbit, precession_per_day

cfg = FoucaultConfig(latitude=math.radians(48.85), length=67.0)
print(f"latitude 48.85 deg, L = {cfg.length} m, period {cfg.period:.2f} s")
print(f"constraint-plane rotation rate phi_dot = {cfg.phi_dot:.4e} rad/s")

orbit = pendulum_orbit(cfg, (0.1, 0.0, 0.0, 0.0), dt=1e-3, duration=7200.0)
estimate = measure_precession(orbit)

oracle = cfg.precession_rate
print(f"measured plane precession  {estimate.rate:.6e} rad/s")
print(f"latitude oracle            {oracle:.6e} rad/s")
print(f"relative error             {abs(estimate.rate - oracle) / oracle:.2e}")
print(f"plane rotation per day     {math.degrees(precession_per_day(cfg)):.1f} deg")

out = pathlib.Path(__file__).with_name("foucault_run.csv")
stride = 1000  # one sample per second is plenty for plotting
rows = 0
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["t", "x", "y", "vx", "vy"])
    start = 0  # orbit row index of the block's first row
    for times, states in orbit.blocks():
        for k in range(-start % stride, len(times), stride):
            writer.writerow(["%.17g" % v for v in (times[k], *states[k])])
            rows += 1
        start += len(times)
print(f"wrote {out} ({rows} rows)")
