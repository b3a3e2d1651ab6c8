"""Command-line front door: JSON configs in, JSON/CSV results out.

Exit codes: 0 success, 1 usage error (including a ``--format`` the
subcommand does not write), 2 parse/config error or an unwritable output,
3 numerical failure, 141 (128 + SIGPIPE) when the reader closes stdout
early.  All output is deterministic for a fixed config and seed; JSON
documents carry ``schema_version`` 1, echo every defaulted config field
and hold no NaN or infinity (RFC 8259), CSV uses a mandatory header and
%.17g formatting.

Trajectory CSV columns are ``t,x,y,vx,vy`` (plus ``plane_angle_rad`` for
precession output).  Three-dimensional curves (geodesics, transported
components) extend the same layout with a z / time-component column.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import foucault as fc
from . import geometry, pfaff
from .curves import integrate_geodesic
from .errors import EvaluationDomainError, FormSyntaxError, PseudoformError, ValidationError
from .formlang import CHARTS, parse_oneform, parse_scalar
from .geometry import MetricKind, MetricSignature

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by SIGPIPE


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
    except ValueError as err:  # bad syntax or encoding, or an integer past the digit limit
        raise ConfigError(f"config file {path!r} is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return cfg


def _merge(config, defaults, required=()):
    """Apply defaults, reject unknown keys, demand required fields, check types.

    Returns the merged config, which the JSON output echoes as given, and
    the checked values.  A field whose default is None may be null.
    """
    known = set(defaults) | set(required)
    for key in config:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r} (known: {sorted(known)})")
    merged = dict(defaults)
    merged.update(config)
    for key in required:
        if key not in merged:
            raise ConfigError(f"missing required config field {key!r}")
    checked = {}
    for key, value in merged.items():
        nullable = key in defaults and defaults[key] is None
        checked[key] = None if value is None and nullable else _FIELDS[key](key, value)
    return merged, checked


# -- config field types ----------------------------------------------------


def _is_finite(v):
    # NaN fails the comparison, and so does an integer too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(key, v):
    if not _is_finite(v):
        raise ConfigError(f"config field {key!r} must be a finite number, got {v!r}")
    return float(v)


def _integer(key, v):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"config field {key!r} must be an integer, got {v!r}")
    return v


def _vector(size=None):
    """Check for a list of ``size`` finite numbers, of any length if None."""
    what = "finite numbers" if size is None else f"{size} finite numbers"

    def check(key, v):
        sized = isinstance(v, list) and (size is None or len(v) == size)
        if not sized or not all(map(_is_finite, v)):
            raise ConfigError(f"config field {key!r} must be a list of {what}")
        return [float(c) for c in v]

    return check


def _choice(*names):
    def check(key, v):
        if v not in names:
            raise ConfigError(f"config field {key!r} must be one of {sorted(names)}, got {v!r}")
        return v

    return check


def _string(key, v):
    if not isinstance(v, str):
        raise ConfigError(f"config field {key!r} must be a string, got {v!r}")
    return v


def _texts(key, v):
    if not isinstance(v, list) or len(v) != 3 or not all(isinstance(s, str) for s in v):
        raise ConfigError(f"config field {key!r} must be a list of 3 component strings")
    return v


def _points(key, v):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"config field {key!r} must be a non-empty list of 3-vectors")
    return [_vector(3)(key, p) for p in v]


_NUMBERS = ("tol", "light_speed", "ds", "latitude", "length", "gravity", "omega_earth",
            "frame_rate", "time", "dt", "duration", "window", "t0", "t1")

_FIELDS = {
    **dict.fromkeys(_NUMBERS, _number),
    "count": _integer,
    "steps": _integer,
    "lower": _vector(3),
    "upper": _vector(3),
    "point": _vector(3),
    "nu": _vector(2),
    "initial": _vector(),  # 4 numbers for the pendulum, 3 for transport
    "chart": _choice(*CHARTS),
    "metric": _choice(*(k.value for k in MetricKind)),
    "kind": _choice("vector", "covector"),
    "levelset": _string,
    "theta": _texts,
    "pfaffian": _texts,
    "points": _points,
}


def _initial(c, size):
    if len(c["initial"]) != size:
        raise ConfigError(f"config field 'initial' must be a list of {size} numbers")
    return c["initial"]


def _metric(c):
    return MetricSignature(MetricKind(c["metric"]), c["light_speed"])


# -- output ----------------------------------------------------------------


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
    }


def _write_json(args, config, result):
    document = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "config": config,
        "seed": args.seed,
        "result": result,
    }
    try:  # serialized before the output is opened, so a refusal writes nothing
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise EvaluationDomainError(f"non-finite value in the {args.command} result") from err
    with _output(args.out) as fh:
        fh.write(text + "\n")


def _write_csv(header, blocks, out):
    """Write the header, then each block of rows as it arrives.

    ``blocks`` is an iterable of 2-D arrays.  Each block is formatted by one
    ``%`` over its flattened values, ``%.17g`` each, so only one block's text
    is held at a time.
    """
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with _output(out) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=float)
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def _write_table(args, config, header, key, blocks):
    """(times, values) blocks as streamed CSV rows, or one JSON table under ``key``."""
    rows = (np.column_stack(block) for block in blocks)
    if args.format == "csv":
        _write_csv(header, rows, args.out)
        return
    table = np.concatenate(list(rows))
    _write_json(args, config, {"times": table[:, 0].tolist(), key: table[:, 1:].tolist()})


@contextlib.contextmanager
def _output(out):
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


# -- subcommand handlers --------------------------------------------------

_METRIC_DEFAULTS = {"metric": "euclidean", "light_speed": geometry.LIGHT_SPEED}

_SURFACE_DEFAULTS = {**_METRIC_DEFAULTS, "chart": "spatial", "levelset": None, "pfaffian": None}

_FOUCAULT_DEFAULTS = {
    "length": 67.0,
    "gravity": 9.81,
    "omega_earth": fc.OMEGA_EARTH,
    "frame_rate": None,
}


def _surface(c):
    if (c["levelset"] is None) == (c["pfaffian"] is None):
        raise ConfigError("exactly one of config fields 'levelset', 'pfaffian' is required")
    metric = _metric(c)
    if c["levelset"] is not None:
        return geometry.PseudoSurface.from_levelset(parse_scalar(c["levelset"], c["chart"]), metric)
    return geometry.PseudoSurface.from_pfaffian(parse_oneform(c["pfaffian"], c["chart"]), metric)


def _foucault_config(c):
    return fc.FoucaultConfig(
        latitude=c["latitude"],
        length=c["length"],
        gravity=c["gravity"],
        omega_earth=c["omega_earth"],
        frame_rate=c["frame_rate"],
    )


def _pendulum_orbit(c):
    return fc.pendulum_orbit(_foucault_config(c), _initial(c, 4), c["dt"], c["duration"])


def _cmd_classify(config, args):
    cfg, c = _merge(
        config,
        defaults={"chart": "spatial", "count": 100, "tol": 1e-8},
        required=("theta", "lower", "upper"),
    )
    theta = parse_oneform(c["theta"], c["chart"])
    region = pfaff.RegionSampler(
        tuple(c["lower"]), tuple(c["upper"]), count=c["count"], seed=args.seed
    )
    verdict = pfaff.classify(theta, region, tol=c["tol"])
    raw = verdict.max_frobenius_raw  # f |theta|^2 overflows where |theta|^2 does
    result = {
        "class": verdict.kind.value,
        "max_dtheta": verdict.max_dtheta,
        "max_frobenius": verdict.max_frobenius,
        "max_frobenius_raw": raw if math.isfinite(raw) else None,
    }
    _write_json(args, cfg, result)


def _cmd_surface(config, args):
    cfg, c = _merge(config, _SURFACE_DEFAULTS, required=("points",))
    surface = _surface(c)
    result = []
    for p in c["points"]:
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
    _write_json(args, cfg, result)


def _cmd_geodesic(config, args):
    cfg, c = _merge(config, _SURFACE_DEFAULTS, required=("point", "nu", "ds", "steps"))
    curve = integrate_geodesic(_surface(c), c["point"], c["nu"], c["ds"], c["steps"])
    if args.format == "json":
        result = {
            "s": curve.s.tolist(),
            "points": curve.points.tolist(),
            "velocities": curve.velocities.tolist(),
            "aborted": curve.aborted,
            "abort_reason": curve.abort_reason,
        }
        _write_json(args, cfg, result)
    else:
        rows = np.column_stack([curve.s, curve.points, curve.velocities])
        _write_csv(["t", "x", "y", "z", "vx", "vy", "vz"], [rows], args.out)
    if curve.aborted:
        raise PseudoformError(
            f"geodesic aborted after {len(curve.s) - 1} of {c['steps']} steps: "
            f"{curve.abort_reason}"
        )


def _cmd_foucault_geometry(config, args):
    cfg, c = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, **_METRIC_DEFAULTS, "time": 0.0},
        required=("latitude",),
    )
    pendulum = _foucault_config(c)
    geo = fc.foucault_geometry(pendulum, _metric(c), t=c["time"])
    result = {
        "frobenius": geo.frobenius,
        "phi_dot": pendulum.phi_dot,
        "g": geo.g.tolist(),
        "h": geo.h.tolist(),
        "curvatures": _report_json(geo.report),
        "metric_degenerate": geo.metric.degenerate,
    }
    _write_json(args, cfg, result)


def _cmd_foucault_sim(config, args):
    cfg, c = _merge(config, _FOUCAULT_DEFAULTS, required=("latitude", "dt", "duration", "initial"))
    _write_table(args, cfg, ["t", "x", "y", "vx", "vy"], "states", _pendulum_orbit(c).blocks())


def _cmd_foucault_precession(config, args):
    cfg, c = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "window": None},
        required=("latitude", "dt", "duration", "initial"),
    )
    orbit = _pendulum_orbit(c)
    estimate = fc.measure_precession(orbit, window_seconds=c["window"])
    if args.format == "json":
        result = {
            "rate": estimate.rate,
            "oracle_rate": orbit.config.precession_rate,
            "plane_frame_rate": orbit.config.phi_dot,
            "window_centers": estimate.window_centers.tolist(),
            "angles": estimate.angles.tolist(),
        }
        _write_json(args, cfg, result)
    else:
        rows = np.column_stack([estimate.window_centers, estimate.center_states, estimate.angles])
        _write_csv(["t", "x", "y", "vx", "vy", "plane_angle_rad"], [rows], args.out)


def _cmd_transport(config, args):
    cfg, c = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "kind": "vector", "t0": 0.0},
        required=("latitude", "initial", "t1", "dt"),
    )
    blocks = fc.transport_blocks(
        _foucault_config(c), c["kind"], _initial(c, 3), c["t0"], c["t1"], c["dt"]
    )
    _write_table(args, cfg, ["t", "ct", "cx", "cy"], "components", blocks)


# -- driver ----------------------------------------------------------------

# argv words -> (handler, accepted formats, the first of them the default)
COMMANDS = {
    ("classify",): (_cmd_classify, ("json",)),
    ("surface",): (_cmd_surface, ("json",)),
    ("geodesic",): (_cmd_geodesic, ("csv", "json")),
    ("foucault", "geometry"): (_cmd_foucault_geometry, ("json",)),
    ("foucault", "sim"): (_cmd_foucault_sim, ("csv", "json")),
    ("foucault", "precession"): (_cmd_foucault_precession, ("csv", "json")),
    ("transport",): (_cmd_transport, ("csv", "json")),
}


def _build_parser():
    parser = _Parser(prog="pseudoform", description=__doc__)
    parser.add_argument("--config", default=None, help="path to a JSON config document")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--seed", type=int, default=0, help="sampler seed (u64)")
    subparsers = {(): parser.add_subparsers(dest="subcommand")}
    for words in COMMANDS:
        group = words[:-1]
        if group not in subparsers:
            subparsers[group] = subparsers[()].add_parser(group[0]).add_subparsers(
                dest=f"{group[0]}_subcommand"
            )
        subparsers[group].add_parser(words[-1]).set_defaults(words=words)
    return parser


def run(argv):
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required")
        words = getattr(args, "words", None)  # unset when a group word comes alone
        if words is None:
            actions = ", ".join(w[-1] for w in COMMANDS if w[0] == args.subcommand)
            raise UsageError(f"{args.subcommand} requires one of: {actions}")
        if args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        handler, formats = COMMANDS[words]
        args.format = args.format or formats[0]
        if args.format not in formats:
            raise UsageError(f"{' '.join(words)} writes {' or '.join(formats)}, not {args.format}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    args.command = "-".join(words)
    try:
        handler(_load_config(args.config), args)
    except (ConfigError, FormSyntaxError, ValidationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except PseudoformError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader is gone: stop quietly, and send what stdout still buffers to
        # devnull so the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as err:  # the config was read in _load_config, so this is a write
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
