"""Command-line front door: JSON configs in, JSON/CSV results out.

Exit codes: 0 success, 1 usage error, 2 parse/config error, 3 numerical
failure.  All output is deterministic for a fixed config and seed; JSON
documents carry ``schema_version`` 1 and echo every defaulted config
field, CSV uses a mandatory header and %.17g formatting.

Trajectory CSV columns are ``t,x,y,vx,vy`` (plus ``plane_angle_rad`` for
precession output).  Three-dimensional curves (geodesics, transported
components) extend the same layout with a z / time-component column.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import foucault as fc
from . import geometry, pfaff
from .curves import integrate_geodesic
from .errors import FormSyntaxError, PseudoformError, ValidationError
from .formlang import parse_oneform, parse_scalar
from .geometry import EUCLIDEAN, GALILEAN, MINKOWSKI, MetricKind, MetricSignature

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path!r} is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return cfg


def _merge(config, defaults, required=()):
    """Apply defaults, reject unknown keys, demand required fields."""
    known = set(defaults) | set(required)
    for key in config:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r} (known: {sorted(known)})")
    merged = dict(defaults)
    merged.update(config)
    for key in required:
        if key not in merged:
            raise ConfigError(f"missing required config field {key!r}")
    return merged


def _number(cfg, key):
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config field {key!r} must be a number, got {v!r}")
    return float(v)


def _vector(cfg, key, size):
    v = cfg[key]
    if not isinstance(v, (list, tuple)) or len(v) != size:
        raise ConfigError(f"config field {key!r} must be a list of {size} numbers")
    return [float(c) for c in v]


_METRICS = {
    "euclidean": MetricKind.EUCLIDEAN,
    "galilean": MetricKind.GALILEAN,
    "minkowski": MetricKind.MINKOWSKI,
}


def _metric(cfg):
    name = cfg["metric"]
    if name not in _METRICS:
        raise ConfigError(
            f"config field 'metric' must be one of {sorted(_METRICS)}, got {name!r}"
        )
    if name == "euclidean":
        return EUCLIDEAN
    if name == "galilean":
        return GALILEAN
    return MetricSignature(MetricKind.MINKOWSKI, _number(cfg, "light_speed"))


def _complex_json(z):
    if isinstance(z, complex):
        return {"re": z.real, "im": z.imag}
    return {"re": float(z), "im": 0.0}


def _report_json(report):
    if report is None:
        return None
    return {
        "kappa1": _complex_json(report.kappa1),
        "kappa2": _complex_json(report.kappa2),
        "gaussian": _complex_json(report.gaussian),
        "mean": _complex_json(report.mean),
        "degenerate": report.degenerate,
    }


def _write_json(document, out):
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    _write_text(text, out)


def _write_csv(header, rows, out):
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [fmt % tuple(row) for row in np.asarray(rows, dtype=float).tolist()]
    _write_text("\n".join(lines) + "\n", out)


def _write_text(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _document(subcommand, config, seed, result):
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "result": result,
    }


def _surface_from_config(cfg):
    has_level = cfg["levelset"] is not None
    has_pfaff = cfg["pfaffian"] is not None
    if has_level == has_pfaff:
        raise ConfigError("exactly one of config fields 'levelset', 'pfaffian' is required")
    metric = _metric(cfg)
    if has_level:
        return geometry.PseudoSurface.from_levelset(
            parse_scalar(cfg["levelset"], cfg["chart"]), metric
        )
    theta = parse_oneform(_oneform_texts(cfg, "pfaffian"), cfg["chart"])
    return geometry.PseudoSurface.from_pfaffian(theta, metric)


def _oneform_texts(cfg, key):
    v = cfg[key]
    if not isinstance(v, (list, tuple)) or len(v) != 3 or not all(isinstance(s, str) for s in v):
        raise ConfigError(f"config field {key!r} must be a list of 3 component strings")
    return list(v)


# -- subcommand handlers --------------------------------------------------


def _cmd_classify(config, args):
    cfg = _merge(
        config,
        defaults={"chart": "spatial", "count": 100, "tol": 1e-8},
        required=("theta", "lower", "upper"),
    )
    theta = parse_oneform(_oneform_texts(cfg, "theta"), cfg["chart"])
    region = pfaff.RegionSampler(
        tuple(_vector(cfg, "lower", 3)),
        tuple(_vector(cfg, "upper", 3)),
        count=int(cfg["count"]),
        seed=args.seed,
    )
    verdict = pfaff.classify(theta, region, tol=_number(cfg, "tol"))
    result = {
        "class": verdict.kind.value,
        "max_dtheta": verdict.max_dtheta,
        "max_frobenius": verdict.max_frobenius,
        "max_frobenius_raw": verdict.max_frobenius_raw,
    }
    _write_json(_document("classify", cfg, args.seed, result), args.out)
    return EXIT_OK


def _cmd_surface(config, args):
    cfg = _merge(
        config,
        defaults={
            "chart": "spatial",
            "metric": "euclidean",
            "light_speed": geometry.LIGHT_SPEED,
            "levelset": None,
            "pfaffian": None,
        },
        required=("points",),
    )
    surface = _surface_from_config(cfg)
    points = cfg["points"]
    if not isinstance(points, list) or not points:
        raise ConfigError("config field 'points' must be a non-empty list of 3-vectors")
    result = []
    for raw in points:
        p = _vector({"points": raw}, "points", 3)
        forms = surface.fundamental_forms(p)
        report = geometry.shape_and_curvatures(forms)
        result.append(
            {
                "point": p,
                "g": forms.g.tolist(),
                "h": forms.h.tolist(),
                "curvatures": _report_json(report),
            }
        )
    _write_json(_document("surface", cfg, args.seed, result), args.out)
    return EXIT_OK


def _cmd_geodesic(config, args):
    cfg = _merge(
        config,
        defaults={
            "chart": "spatial",
            "metric": "euclidean",
            "light_speed": geometry.LIGHT_SPEED,
            "levelset": None,
            "pfaffian": None,
        },
        required=("point", "nu", "ds", "steps"),
    )
    surface = _surface_from_config(cfg)
    curve = integrate_geodesic(
        surface,
        _vector(cfg, "point", 3),
        _vector(cfg, "nu", 2),
        _number(cfg, "ds"),
        int(cfg["steps"]),
    )
    if args.format == "json":
        result = {
            "s": curve.s.tolist(),
            "points": curve.points.tolist(),
            "velocities": curve.velocities.tolist(),
            "aborted": curve.aborted,
            "abort_reason": curve.abort_reason,
        }
        _write_json(_document("geodesic", cfg, args.seed, result), args.out)
    else:
        rows = np.column_stack([curve.s, curve.points, curve.velocities])
        _write_csv(["t", "x", "y", "z", "vx", "vy", "vz"], rows, args.out)
    return EXIT_OK


_FOUCAULT_DEFAULTS = {
    "length": 67.0,
    "gravity": 9.81,
    "omega_earth": fc.OMEGA_EARTH,
    "frame_rate": None,
}


def _foucault_config(cfg):
    rate = cfg["frame_rate"]
    return fc.FoucaultConfig(
        latitude=_number(cfg, "latitude"),
        length=_number(cfg, "length"),
        gravity=_number(cfg, "gravity"),
        omega_earth=_number(cfg, "omega_earth"),
        frame_rate=None if rate is None else float(rate),
    )


def _cmd_foucault_geometry(config, args):
    cfg = _merge(
        config,
        defaults={
            **_FOUCAULT_DEFAULTS,
            "metric": "euclidean",
            "light_speed": geometry.LIGHT_SPEED,
            "time": 0.0,
        },
        required=("latitude",),
    )
    geo = fc.foucault_geometry(_foucault_config(cfg), _metric(cfg), t=_number(cfg, "time"))
    result = {
        "frobenius": geo.frobenius,
        "phi_dot": _foucault_config(cfg).phi_dot,
        "g": geo.g.tolist(),
        "h": geo.h.tolist(),
        "curvatures": _report_json(geo.report),
        "metric_degenerate": geo.metric.degenerate,
    }
    _write_json(_document("foucault-geometry", cfg, args.seed, result), args.out)
    return EXIT_OK


def _cmd_foucault_sim(config, args):
    cfg = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "initial": None},
        required=("latitude", "dt", "duration"),
    )
    if cfg["initial"] is None:
        raise ConfigError("missing required config field 'initial'")
    pendulum = _foucault_config(cfg)
    traj = fc.simulate_pendulum(
        pendulum, _vector(cfg, "initial", 4), _number(cfg, "dt"), _number(cfg, "duration")
    )
    if args.format == "json":
        result = {"times": traj.times.tolist(), "states": traj.states.tolist()}
        _write_json(_document("foucault-sim", cfg, args.seed, result), args.out)
    else:
        rows = np.column_stack([traj.times, traj.states])
        _write_csv(["t", "x", "y", "vx", "vy"], rows, args.out)
    return EXIT_OK


def _nearest_index(times, t):
    """Index of the uniformly spaced sample time nearest t, the earlier on a tie.

    Scans the rounded guess and both its neighbours, so the result equals
    ``argmin(|times - t|)`` over the whole array.
    """
    guess = int(round((t - times[0]) / (times[1] - times[0])))
    lo = max(guess - 1, 0)
    return lo + int(np.argmin(np.abs(times[lo : guess + 2] - t)))


def _cmd_foucault_precession(config, args):
    cfg = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "initial": None, "window": None},
        required=("latitude", "dt", "duration"),
    )
    if cfg["initial"] is None:
        raise ConfigError("missing required config field 'initial'")
    pendulum = _foucault_config(cfg)
    traj = fc.simulate_pendulum(
        pendulum, _vector(cfg, "initial", 4), _number(cfg, "dt"), _number(cfg, "duration")
    )
    window = None if cfg["window"] is None else float(cfg["window"])
    estimate = fc.measure_precession(traj, window_seconds=window)
    if args.format == "json":
        result = {
            "rate": estimate.rate,
            "oracle_rate": pendulum.precession_rate,
            "plane_frame_rate": pendulum.phi_dot,
            "window_centers": estimate.window_centers.tolist(),
            "angles": estimate.angles.tolist(),
        }
        _write_json(_document("foucault-precession", cfg, args.seed, result), args.out)
    else:
        rows = []
        for center, angle in zip(estimate.window_centers, estimate.angles):
            idx = _nearest_index(traj.times, center)
            rows.append([center, *traj.states[idx], angle])
        _write_csv(["t", "x", "y", "vx", "vy", "plane_angle_rad"], rows, args.out)
    return EXIT_OK


def _cmd_transport(config, args):
    cfg = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "kind": "vector", "t0": 0.0},
        required=("latitude", "initial", "t1", "dt"),
    )
    if cfg["kind"] not in ("vector", "covector"):
        raise ConfigError(f"config field 'kind' must be 'vector' or 'covector', got {cfg['kind']!r}")
    result_obj = fc.parallel_transport(
        _foucault_config(cfg),
        cfg["kind"],
        _vector(cfg, "initial", 3),
        _number(cfg, "t0"),
        _number(cfg, "t1"),
        _number(cfg, "dt"),
    )
    if args.format == "json":
        result = {"times": result_obj.times.tolist(), "components": result_obj.components.tolist()}
        _write_json(_document("transport", cfg, args.seed, result), args.out)
    else:
        rows = np.column_stack([result_obj.times, result_obj.components])
        _write_csv(["t", "ct", "cx", "cy"], rows, args.out)
    return EXIT_OK


# -- driver ----------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="pseudoform", description=__doc__)
    parser.add_argument("--config", default=None, help="path to a JSON config document")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=int, default=0, help="sampler seed (u64)")
    sub = parser.add_subparsers(dest="subcommand")
    sub.add_parser("classify")
    sub.add_parser("surface")
    sub.add_parser("geodesic")
    foucault = sub.add_parser("foucault")
    fsub = foucault.add_subparsers(dest="foucault_subcommand")
    fsub.add_parser("geometry")
    fsub.add_parser("sim")
    fsub.add_parser("precession")
    sub.add_parser("transport")
    return parser


_DEFAULT_FORMATS = {
    "classify": "json",
    "surface": "json",
    "geodesic": "csv",
    ("foucault", "geometry"): "json",
    ("foucault", "sim"): "csv",
    ("foucault", "precession"): "csv",
    "transport": "csv",
}

_HANDLERS = {
    "classify": _cmd_classify,
    "surface": _cmd_surface,
    "geodesic": _cmd_geodesic,
    ("foucault", "geometry"): _cmd_foucault_geometry,
    ("foucault", "sim"): _cmd_foucault_sim,
    ("foucault", "precession"): _cmd_foucault_precession,
    "transport": _cmd_transport,
}


def run(argv):
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required")
        key = args.subcommand
        if key == "foucault":
            if args.foucault_subcommand is None:
                raise UsageError("foucault requires one of: geometry, sim, precession")
            key = ("foucault", args.foucault_subcommand)
        if args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.format is None:
        args.format = _DEFAULT_FORMATS[key]
    try:
        config = _load_config(args.config)
        return _HANDLERS[key](config, args)
    except (ConfigError, FormSyntaxError, ValidationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except PseudoformError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
