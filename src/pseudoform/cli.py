"""Command-line front door: JSON configs in, JSON/CSV results out.

Exit codes: 0 success, 1 usage error (including a ``--format`` the
subcommand does not write), 2 parse/config error or an unwritable output,
3 numerical failure, 141 (128 + SIGPIPE) when the reader closes stdout
early.  All output is deterministic for a fixed config and seed; JSON
documents carry ``schema_version`` 1, echo every defaulted config field
and hold no NaN or infinity (RFC 8259), CSV uses a mandatory header and
%.17g formatting.

CSV text is ``'%.17g' % v`` per value, whichever path writes it.  Each
of the geodesic's and the precession's float rows is one ``%`` over its
values, written as the rows are iterated.  The ``foucault sim`` and
``transport`` tables go through ``csvtext``, which converts whole 2-D
blocks with NumPy: a value whose 17 correctly rounded digits float64
arithmetic certifies is written from those digits, and every other value
through ``%``, so the bytes are the same either way.  The ``foucault sim``
and ``transport`` tables are a ``foucault.Orbit``: CSV streams its blocks,
JSON holds its ``trajectory()``.

JSON is written by this module's own encoder, byte for byte the layout of
``json.dumps(document, indent=2, sort_keys=True)``, whose pure-Python
indenting path costs about twice as much.  The JSON forms build the whole
document before the output is opened, so a refused result (exit 3) writes
nothing.

Trajectory CSV columns are ``t,x,y,vx,vy`` (plus ``plane_angle_rad`` for
precession output).  Three-dimensional curves (geodesics, transported
components) extend the same layout with a z / time-component column.

``classify``, ``surface``, ``geodesic`` and ``foucault precession`` run on
floats from their config to their JSON or CSV, so they load no NumPy; the
other ``foucault`` commands and ``transport``, whose results are arrays,
import it where those arrays are built.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

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


_quote = json.encoder.encode_basestring_ascii


def _finite_floats(text):
    """``text``, the repr of one or more floats, refused if one is inf or NaN."""
    if "n" in text:
        raise ValueError("JSON has no inf or NaN")
    return text


def _json_parts(value, nl, parts):
    """Append the text of ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` to ``parts``, for a ``value`` whose dict keys are
    strings and which starts a line indented as ``nl`` (a newline and the
    spaces before it) says.

    As in ``json``, floats and float subclasses are written by
    ``float.__repr__``, ints by ``int.__repr__`` and tuples as lists; a list
    of floats goes in one join.  An inf or NaN raises ``ValueError``; a key
    that is not a string, or a value JSON has no form for, raises
    ``TypeError``.  The documents are trees, so there is no check for
    circular references.
    """
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _quote(key) + ": ")
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = nl + "  "
        if isinstance(value[0], float):
            try:
                text = ("," + inner).join(map(float.__repr__, value))
            except TypeError:  # not all floats
                pass
            else:
                parts.append("[" + inner + _finite_floats(text) + nl + "]")
                return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(value, float):
        parts.append(_finite_floats(float.__repr__(value)))
    elif isinstance(value, str):
        parts.append(_quote(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(args, config, result):
    document = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "config": config,
        "seed": args.seed,
        "result": result,
    }
    parts = []
    try:  # serialized before the output is opened, so a refusal writes nothing
        _json_parts(document, "\n", parts)
    except ValueError as err:
        raise EvaluationDomainError(f"non-finite value in the {args.command} result") from err
    parts.append("\n")
    with _output(args.out) as fh:
        fh.write("".join(parts))


def _write_text(header, texts, out):
    with _output(out) as fh:
        fh.write(",".join(header) + "\n")
        for text in texts:
            fh.write(text)


def _write_table(args, config, header, key, orbit):
    """An orbit as CSV rows, block by block, or as JSON ``times`` and ``key`` tables.

    Each CSV block is checked before it is written: at the first row that
    holds a value that is not finite, the rows before it are written and
    ``EvaluationDomainError`` names it (exit 3), as an aborted geodesic
    reports its last step.  Rows count from 0 after the header, so an orbit's
    row is its step.  ``csvtext`` writes the text, the same bytes as
    ``'%.17g' % v`` per value.
    """
    if args.format == "json":
        traj = orbit.trajectory()
        _write_json(args, config, {"times": traj.times.tolist(), key: traj.states.tolist()})
        return
    import numpy as np

    from .csvtext import csv_text

    def checked():
        row = 0
        for block in orbit.blocks():
            block = np.column_stack(block)
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                first = int(bad.argmax())
                yield block[:first]
                raise EvaluationDomainError(
                    f"non-finite value in the {args.command} result at row {row + first}"
                )
            yield block
            row += len(block)

    _write_text(header, csv_text(checked()), args.out)


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

_FOUCAULT_DEFAULTS = fc.FoucaultConfig._field_defaults


def _surface(c):
    if (c["levelset"] is None) == (c["pfaffian"] is None):
        raise ConfigError("exactly one of config fields 'levelset', 'pfaffian' is required")
    metric = _metric(c)
    if c["levelset"] is not None:
        return geometry.PseudoSurface.from_levelset(parse_scalar(c["levelset"], c["chart"]), metric)
    return geometry.PseudoSurface.from_pfaffian(parse_oneform(c["pfaffian"], c["chart"]), metric)


def _foucault_config(c):
    return fc.FoucaultConfig(*[c[name] for name in fc.FoucaultConfig._fields])


def _pendulum_orbit(c):
    return fc.pendulum_orbit(_foucault_config(c), _initial(c, 4), c["dt"], c["duration"])


def _cmd_classify(config, args):
    cfg, c = _merge(
        config,
        defaults={"chart": "spatial", "count": pfaff.RegionSampler._field_defaults["count"],
                  "tol": pfaff.DEFAULT_TOL},
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
                "g": forms.g_rows,
                "h": forms.h_rows,
                "curvatures": _report_json(report),
            }
        )
    _write_json(args, cfg, result)


def _cmd_geodesic(config, args):
    cfg, c = _merge(config, _SURFACE_DEFAULTS, required=("point", "nu", "ds", "steps"))
    curve = integrate_geodesic(_surface(c), c["point"], c["nu"], c["ds"], c["steps"])
    states = curve.states
    if args.format == "json":
        result = {
            "s": [k * curve.ds for k in range(len(states))],
            "points": [y[:3] for y in states],
            "velocities": [y[3:] for y in states],
            "aborted": curve.aborted,
            "abort_reason": curve.abort_reason,
        }
        _write_json(args, cfg, result)
    else:
        row, ds = ",".join(["%.17g"] * 7) + "\n", curve.ds
        _write_text(["t", "x", "y", "z", "vx", "vy", "vz"],
                    (row % (k * ds, *y) for k, y in enumerate(states)), args.out)
    if curve.aborted:
        raise PseudoformError(
            f"geodesic aborted after {len(states) - 1} of {c['steps']} steps: "
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
    _write_table(args, cfg, ["t", "x", "y", "vx", "vy"], "states", _pendulum_orbit(c))


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
            "window_centers": estimate.window_centers,
            "angles": estimate.angles,
        }
        _write_json(args, cfg, result)
    else:
        def rows():
            for k, (t, z, angle) in enumerate(zip(estimate.window_centers,
                                                  estimate.center_states, estimate.angles)):
                if not all(map(math.isfinite, (t, *z, angle))):
                    raise EvaluationDomainError(
                        f"non-finite value in the {args.command} result at row {k}")
                yield "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (t, *z, angle)

        _write_text(["t", "x", "y", "vx", "vy", "plane_angle_rad"], rows(), args.out)


def _cmd_transport(config, args):
    cfg, c = _merge(
        config,
        defaults={**_FOUCAULT_DEFAULTS, "kind": "vector", "t0": 0.0},
        required=("latitude", "initial", "t1", "dt"),
    )
    orbit = fc.transport_orbit(
        _foucault_config(c), c["kind"], _initial(c, 3), c["t0"], c["t1"], c["dt"]
    )
    _write_table(args, cfg, ["t", "ct", "cx", "cy"], "components", orbit)


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
