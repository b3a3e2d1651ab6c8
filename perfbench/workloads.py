"""Benchmark workloads: generated configs, CLI calls and output checks.

Every input is derived from the workload seed.  The program sees the seed
only as ``--seed`` and as the generated config values.  Input sizes are
chosen so that one pass over a workload takes about ten seconds on one
core, which leaves room for several passes in a run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

OMEGA_EARTH = 7.292e-5  # rad/s
GRAVITY = 9.81
PARIS = {
    "latitude": math.radians(48.85),
    "length": 67.0,
    "gravity": GRAVITY,
    "omega_earth": OMEGA_EARTH,
}
PENDULUM_DT = 1e-3
SIM_SECONDS = 120.0
PRECESSION_SECONDS = 1800.0
TRANSPORT_DT = 0.1
TRANSPORT_SECONDS = 1e4
CLASSIFY_SAMPLES = 2500
SURFACE_POINTS = 500
GEODESIC_STEPS = 1000
CONTACT_DS = 2e-3
GREAT_CIRCLE_TILT = 0.7  # rad; the path crosses frame seed switches
EQUATOR_PHASE = 0.3  # rad; acceptance criterion 6, no seed switch on the path

SPHERE = "x^2+y^2+z^2"
CONTACT = ["0", "x", "1"]
FORMS = (  # name, components, expected verdict
    ("closed", ["0", "0", "1"], "closed"),
    ("factor", ["y", "0", "0"], "integrating_factor"),
    ("contact", CONTACT, "non_integrable"),
    # third component stays >= 1, so the form never vanishes in any box
    ("transcendental", ["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"], "non_integrable"),
)

PRECESSION_BOUND = 0.02  # acceptance criterion 8
TRANSPORT_BOUND = 1e-8  # acceptance criterion 10
ORACLE_TOL = 1e-9  # sphere curvature, contact Frobenius and second form
CONSTRAINT_TOL = 1e-9  # |theta(v)| / (|theta| |v|) along a contact geodesic


class CheckError(Exception):
    """An output that is not the correct answer to its call."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``--config <file> --out <file> --seed <seed> *args``."""

    name: str
    args: tuple
    config: dict
    rate: str  # throughput metric its work counts towards
    work: int  # RK4 steps, classify samples or surface points it performs
    check: Callable  # bytes -> dict of accuracy readings; raises CheckError


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


# -- output parsing ----------------------------------------------------------


def read_csv(data, header, rows):
    """Parse CSV bytes, demanding the exact header, row count and finite values."""
    first, _, body = data.decode().partition("\n")
    if first != ",".join(header):
        raise CheckError(f"CSV header {first!r}, expected {','.join(header)!r}")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if table.shape != (rows, len(header)):
        raise CheckError(f"CSV holds {table.shape}, expected {(rows, len(header))}")
    if not np.all(np.isfinite(table)):
        raise CheckError("CSV holds non-finite values")
    return table


def read_json(data):
    doc = json.loads(data)
    if doc.get("schema_version") != 1:
        raise CheckError(f"schema_version {doc.get('schema_version')!r}, expected 1")
    return doc["result"]


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# -- pendulum-stream -----------------------------------------------------------


def _check_sim(initial, steps):
    def check(data):
        table = read_csv(data, ["t", "x", "y", "vx", "vy"], steps + 1)
        # the eigen-power orbit reproduces the initial state only to rounding
        start_err = np.max(np.abs(table[0] - [0.0, *initial]))
        _require(start_err <= 1e-12, f"first row off the initial state by {start_err:.3g}")
        t_err = np.max(np.abs(table[:, 0] - PENDULUM_DT * np.arange(steps + 1)))
        _require(t_err <= 1e-9, f"time column off the dt grid by {t_err:.3g} s")
        return {}

    return check


def _check_precession(steps):
    period = 2.0 * math.pi * math.sqrt(PARIS["length"] / GRAVITY)
    windows = (steps + 1) // max(2, round(2.0 * period / PENDULUM_DT))
    oracle = OMEGA_EARTH * math.sin(PARIS["latitude"])

    def check(data):
        table = read_csv(data, ["t", "x", "y", "vx", "vy", "plane_angle_rad"], windows)
        slope = np.polyfit(table[:, 0], table[:, 5], 1)[0]
        rel_err = abs(slope - oracle) / abs(oracle)
        _require(rel_err <= PRECESSION_BOUND, f"precession off the oracle by {rel_err:.3g}")
        return {"precession_rel_err": float(rel_err)}

    return check


def _check_transport(initial, steps):
    rate = 2.0 * OMEGA_EARTH * math.sin(PARIS["latitude"])
    c0, cx, cy = initial

    def check(data):
        table = read_csv(data, ["t", "ct", "cx", "cy"], steps + 1)
        angle = rate * table[:, 0]
        exact = np.column_stack(
            [
                np.full(len(angle), c0),
                cx * np.cos(angle) - cy * np.sin(angle),
                cx * np.sin(angle) + cy * np.cos(angle),
            ]
        )
        err = float(np.max(np.abs(table[:, 1:] - exact)))
        _require(err <= TRANSPORT_BOUND, f"transport off the exact rotation by {err:.3g}")
        return {}

    return check


def pendulum_stream(seed):
    rng = _rng(seed, 1)
    amplitude = rng.uniform(0.05, 0.15)
    direction = rng.uniform(0.0, math.pi)
    initial = [amplitude * math.cos(direction), amplitude * math.sin(direction), 0.0, 0.0]
    turn = rng.uniform(0.0, 2.0 * math.pi)
    carried = [float(rng.uniform(-1.0, 1.0)), math.cos(turn), math.sin(turn)]
    sim_steps = round(SIM_SECONDS / PENDULUM_DT)
    prec_steps = round(PRECESSION_SECONDS / PENDULUM_DT)
    tr_steps = round(TRANSPORT_SECONDS / TRANSPORT_DT)
    pendulum = {**PARIS, "initial": initial, "dt": PENDULUM_DT}
    return [
        Call("foucault-sim", ("foucault", "sim"), {**pendulum, "duration": SIM_SECONDS},
             "rk4_steps_per_s", sim_steps, _check_sim(initial, sim_steps)),
        Call("foucault-precession", ("foucault", "precession"),
             {**pendulum, "duration": PRECESSION_SECONDS},
             "rk4_steps_per_s", prec_steps, _check_precession(prec_steps)),
        Call("transport", ("transport",),
             {**PARIS, "kind": "vector", "initial": carried, "t0": 0.0,
              "t1": TRANSPORT_SECONDS, "dt": TRANSPORT_DT},
             "rk4_steps_per_s", tr_steps, _check_transport(carried, tr_steps)),
    ]


# -- field-sample ----------------------------------------------------------------


def _check_classify(expected, contact):
    def check(data):
        result = read_json(data)
        _require(result["class"] == expected, f"verdict {result['class']!r}, expected {expected!r}")
        if contact:
            raw = result["max_frobenius_raw"]
            _require(abs(raw - 1.0) <= ORACLE_TOL, f"contact max_frobenius_raw {raw!r}, expected 1")
        return {}

    return check


def _check_surface(points, oracle):
    def check(data):
        result = read_json(data)
        _require(len(result) == len(points),
                 f"{len(result)} surface entries for {len(points)} points")
        for entry, p in zip(result, points):
            _require(entry["point"] == p, f"entry for {entry['point']} where {p} was asked")
            _require(np.all(np.isfinite(entry["g"])) and np.all(np.isfinite(entry["h"])),
                     f"non-finite forms at {p}")
            oracle(entry)
        return {}

    return check


def _sphere_oracle(entry):
    curv = entry["curvatures"]
    gauss = complex(curv["gaussian"]["re"], curv["gaussian"]["im"])
    mean = complex(curv["mean"]["re"], curv["mean"]["im"])
    _require(abs(gauss - 1.0) <= ORACLE_TOL, f"sphere K = {gauss} at {entry['point']}")
    _require(abs(abs(mean) - 1.0) <= ORACLE_TOL, f"sphere |H| = {abs(mean)} at {entry['point']}")


def _contact_oracle(entry):
    # x dy + dz has unit Frobenius coefficient 1 / (1 + x^2); the off-diagonal
    # second-form entry is minus half of it (README sign convention).
    expect = -0.5 / (1.0 + entry["point"][0] ** 2)
    h = entry["h"]
    _require(abs(h[0][1] - expect) <= ORACLE_TOL and abs(h[1][0] - expect) <= ORACLE_TOL,
             f"contact h offdiagonal {h[0][1]}, {h[1][0]}, expected {expect}")


def field_sample(seed):
    rng = _rng(seed, 2)
    lower = (np.array([0.2, 0.5, 0.2]) + rng.uniform(-0.1, 0.1, 3)).tolist()
    upper = (np.array(lower) + [0.8, 1.0, 0.8]).tolist()
    calls = [
        Call(f"classify-{name}", ("classify",),
             {"theta": theta, "lower": lower, "upper": upper, "count": CLASSIFY_SAMPLES},
             "classify_samples_per_s", CLASSIFY_SAMPLES, _check_classify(verdict, theta == CONTACT))
        for name, theta, verdict in FORMS
    ]
    directions = rng.normal(size=(SURFACE_POINTS, 3))
    on_sphere = (directions / np.linalg.norm(directions, axis=1)[:, None]).tolist()
    in_box = rng.uniform(-1.0, 1.0, size=(SURFACE_POINTS, 3)).tolist()
    calls += [
        Call("surface-sphere", ("surface",), {"levelset": SPHERE, "points": on_sphere},
             "surface_points_per_s", SURFACE_POINTS, _check_surface(on_sphere, _sphere_oracle)),
        Call("surface-contact", ("surface",),
             {"pfaffian": CONTACT, "metric": "minkowski", "points": in_box},
             "surface_points_per_s", SURFACE_POINTS, _check_surface(in_box, _contact_oracle)),
    ]
    return calls


# -- geodesic-march ----------------------------------------------------------------


def sphere_frame(p):
    """Adapted frame of the unit sphere at p, by the convention in README.md.

    e3 is the unit normal; e1 comes from Gram-Schmidt on the axis least
    aligned with it (ties to the lowest index); e2 = e3 x e1.
    """
    u = np.asarray(p, dtype=float) / np.linalg.norm(p)
    k = int(np.argmin(np.abs(u)))
    e1 = np.eye(3)[k] - u[k] * u
    e1 /= np.linalg.norm(e1)
    return np.column_stack([e1, np.cross(u, e1), u])


GEODESIC_HEADER = ["t", "x", "y", "z", "vx", "vy", "vz"]


def _check_great_circle(p0, v0, steps):
    normal = np.cross(p0, v0)
    normal /= np.linalg.norm(normal)

    def check(data):
        table = read_csv(data, GEODESIC_HEADER, steps + 1)
        start_err = np.max(np.abs(table[0, 4:] - v0))
        _require(start_err <= 1e-12,
                 f"initial velocity off the requested direction by {start_err:.3g}")
        points = table[:, 1:4]
        return {
            "geodesic_closure_err": float(np.linalg.norm(points[-1] - points[0])),
            "geodesic_offplane_err": float(np.max(np.abs(points @ normal))),
        }

    return check


def _check_contact_geodesic(steps):
    def check(data):
        table = read_csv(data, GEODESIC_HEADER, steps + 1)
        x, v = table[:, 1], table[:, 4:]
        theta_v = x * v[:, 1] + v[:, 2]
        residual = np.max(np.abs(theta_v) / (np.hypot(x, 1.0) * np.linalg.norm(v, axis=1)))
        _require(residual <= CONSTRAINT_TOL,
                 f"geodesic leaves the contact planes by {residual:.3g}")
        return {}

    return check


def _sphere_geodesic(name, p0, v0):
    nu = np.linalg.solve(sphere_frame(p0), v0)[:2]
    config = {"levelset": SPHERE, "point": p0.tolist(), "nu": nu.tolist(),
              "ds": 2.0 * math.pi / GEODESIC_STEPS, "steps": GEODESIC_STEPS}
    return Call(name, ("geodesic",), config, "geodesic_steps_per_s", GEODESIC_STEPS,
                _check_great_circle(p0, v0, GEODESIC_STEPS))


def geodesic_march(seed):
    rng = _rng(seed, 3)
    # p -> -p maps the frame construction onto itself, so both signs give the
    # same closure and off-plane errors; other reflections do not.
    sign = float(rng.choice([-1.0, 1.0]))
    a = GREAT_CIRCLE_TILT
    tilted = _sphere_geodesic(
        "geodesic-tilted", sign * np.array([1.0, 0.0, 0.0]),
        sign * np.array([0.0, math.cos(a), math.sin(a)]),
    )
    sx, sy = rng.choice([-1.0, 1.0], size=2)
    b = EQUATOR_PHASE
    equator = _sphere_geodesic(
        "geodesic-equator", np.array([sx * math.cos(b), sy * math.sin(b), 0.0]),
        np.array([-sx * math.sin(b), sy * math.cos(b), 0.0]),
    )
    turn = rng.uniform(0.0, 2.0 * math.pi)
    contact = Call(
        "geodesic-contact", ("geodesic",),
        {"pfaffian": CONTACT, "point": rng.uniform(-0.5, 0.5, 3).tolist(),
         "nu": [math.cos(turn), math.sin(turn)], "ds": CONTACT_DS, "steps": GEODESIC_STEPS},
        "geodesic_steps_per_s", GEODESIC_STEPS, _check_contact_geodesic(GEODESIC_STEPS),
    )
    return [tilted, equator, contact]


WORKLOADS = {
    "pendulum-stream": pendulum_stream,
    "field-sample": field_sample,
    "geodesic-march": geodesic_march,
}
