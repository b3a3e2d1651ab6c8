"""Command-line front door: JSON configs in, JSON/CSV results out.

The argv grammar is fixed: the options ``--config PATH``, ``--out PATH``,
``--format csv|json`` and ``--seed N``, each as ``--name value`` or
``--name=value``, then one or two command words from ``COMMANDS``.
``-h`` or ``--help`` prints the usage.  ``run`` parses argv itself, so no
argument-parsing library is loaded, and an option is spelled in full.

Exit codes: 0 success, 1 usage error (including a ``--format`` the
subcommand does not write), 2 parse/config error or an unwritable output,
3 numerical failure, 141 (128 + SIGPIPE) when the reader closes stdout
early.  Curvatures are null where g^ab does not exist (a degenerate g), in
``surface`` and ``foucault geometry`` alike, and such a point exits 0.
All output is deterministic for a fixed config and seed; JSON documents
carry ``schema_version`` 1, echo every defaulted config field and hold no
NaN or infinity (RFC 8259), CSV uses a mandatory header and %.17g
formatting.

CSV text is ``'%.17g' % v`` per value, whichever path writes it.  Each
of the geodesic's and the precession's float rows is one ``%`` over its
values, written as the rows are iterated.  The ``foucault sim`` and
``transport`` tables go through ``csvtext``, which converts whole 2-D
blocks with NumPy: a value whose 17 correctly rounded digits float64
arithmetic certifies is written from those digits, and every other value
through ``%``, so the bytes are the same either way.  The ``foucault sim``
and ``transport`` tables are a ``foucault.Orbit``: CSV streams its blocks,
JSON holds its ``trajectory()``.

A JSON document is the one line of ``json.dumps(document, sort_keys=True,
allow_nan=False)`` and a newline.  The JSON forms build the whole document
before the output is opened, so a refused result (exit 3) writes nothing.

Trajectory CSV columns are ``t,x,y,vx,vy`` (plus ``plane_angle_rad`` for
precession output).  Three-dimensional curves (geodesics, transported
components) extend the same layout with a z / time-component column.

``classify``, ``surface``, ``geodesic``, ``foucault geometry`` and ``foucault
precession`` run on floats from their config to their JSON or CSV, so they
load no NumPy; ``foucault sim`` and ``transport``, whose results are arrays,
import it where those arrays are built.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from typing import NamedTuple

from . import foucault as fc
from . import geometry, pfaff
from .curves import integrate_geodesic
from .errors import (EvaluationDomainError, FormSyntaxError, PseudoformError, ValidationError,
                     check_integer, check_real, check_vector)
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


def _load_config(path):
    if path is None:
        return {}

    def unique(pairs):  # json keeps the last of a repeated key; a config may not repeat one
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"config file {path!r} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=unique)
    except OSError as err:
        raise ValidationError(f"cannot read config file {path!r}: {err}")
    except ValueError as err:  # bad syntax or encoding, or an integer past the digit limit
        raise ValidationError(f"config file {path!r} is not valid JSON: {err}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config file {path!r} must hold a JSON object")
    return cfg


def _merge(config, defaults, required=()):
    """Apply defaults, reject unknown keys, demand required fields, check types.

    Returns the merged config, which the JSON output echoes as given, and
    the checked values.  A field whose default is None may be null.
    """
    known = set(defaults) | set(required)
    for key in config:
        if key not in known:
            raise ValidationError(f"unknown config field {key!r} (known: {sorted(known)})")
    merged = dict(defaults)
    merged.update(config)
    for key in required:
        if key not in merged:
            raise ValidationError(f"missing required config field {key!r}")
    checked = {}
    for key, value in merged.items():
        nullable = key in defaults and defaults[key] is None
        checked[key] = None if value is None and nullable else _FIELDS[key](key, value)
    return merged, checked


# -- config field types ----------------------------------------------------


def _number(key, v):
    return float(check_real(f"config field {key!r}", v))


def _integer(key, v):
    return check_integer(f"config field {key!r}", v)


def _vector(size):
    return lambda key, v: check_vector(f"config field {key!r}", v, size)


def _choice(*names):
    def check(key, v):
        if v not in names:
            raise ValidationError(f"config field {key!r} must be one of {sorted(names)}, got {v!r}")
        return v

    return check


def _string(key, v):
    if not isinstance(v, str):
        raise ValidationError(f"config field {key!r} must be a string, got {v!r}")
    return v


def _texts(key, v):
    if not isinstance(v, list) or len(v) != 3 or not all(isinstance(s, str) for s in v):
        raise ValidationError(f"config field {key!r} must be a list of 3 component strings")
    return v


def _points(key, v):
    if not isinstance(v, list) or not v:
        raise ValidationError(f"config field {key!r} must be a non-empty list of 3-vectors")
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
    # 4 numbers for the pendulum, 3 for transport: _initial checks it where the size is known
    "initial": lambda key, v: v,
    "chart": _choice(*CHARTS),
    "metric": _choice(*(k.value for k in MetricKind)),
    "kind": _choice("vector", "covector"),
    "levelset": _string,
    "theta": _texts,
    "pfaffian": _texts,
    "points": _points,
}


def _initial(c, size):
    return check_vector("config field 'initial'", c["initial"], size)


def _metric(c):
    return MetricSignature(MetricKind(c["metric"]), c["light_speed"])


# -- output ----------------------------------------------------------------


def _forms_json(forms, report):
    """A point's g and h rows and its curvatures as ``{"re": ..., "im": ...}``
    pairs, null where g^ab does not exist."""
    curvatures = None if report is None else {
        k: {"re": z.real, "im": z.imag} for k, z in report._asdict().items()}
    return {"g": forms.g_rows, "h": forms.h_rows, "curvatures": curvatures}


def _write_json(args, config, result):
    document = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "config": config,
        "seed": args.seed,
        "result": result,
    }
    try:  # serialized before the output is opened, so a refusal writes nothing
        text = json.dumps(document, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        raise EvaluationDomainError(f"non-finite value in the {args.command} result") from err
    with _output(args.out) as fh:
        fh.write(text)


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
        raise ValidationError("exactly one of config fields 'levelset', 'pfaffian' is required")
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
    region = pfaff.RegionSampler(c["lower"], c["upper"], count=c["count"], seed=args.seed)
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
        result.append({"point": p, **_forms_json(forms, geometry.curvatures_where_defined(forms))})
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
        "metric_degenerate": geo.metric.degenerate,
        **_forms_json(geo.forms, geo.report),
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


def _usage():
    width = max(len(" ".join(words)) for words in COMMANDS)
    lines = [f"  {' '.join(words):<{width}}  {', '.join(formats)}"
             for words, (_, formats) in COMMANDS.items()]
    return ("usage: pseudoform [--config PATH] [--out PATH] [--format csv|json] [--seed N] "
            "COMMAND\n\ncommands and their formats (the first is the default):\n"
            + "\n".join(lines) + "\n")


class _Args(NamedTuple):
    """One call's parsed argv: its command words and options."""

    words: tuple
    command: str  # the command words joined by "-", as the JSON "subcommand" names it
    config: str | None
    out: str | None
    format: str
    seed: int


def _parse_argv(argv):
    """The ``_Args`` of argv, or None where it asks for help (``-h``/``--help``).

    The options come first, each as ``--name value`` or ``--name=value``; a
    repeated option keeps its last value.  One or two command words from
    ``COMMANDS`` follow.  Anything else raises ``UsageError``.
    """
    if "-h" in argv or "--help" in argv:
        return None
    values = dict.fromkeys(("--config", "--out", "--format", "--seed"))
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, value = argv[i].partition("=")
        if name not in values:
            raise UsageError(f"unknown option {argv[i]!r}")
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("--"):
                raise UsageError(f"{name} needs a value")
            value = argv[i]
        values[name] = value
        i += 1
    words = tuple(argv[i:])
    if not words:
        raise UsageError("a subcommand is required")
    if words not in COMMANDS:
        actions = ", ".join(w[-1] for w in COMMANDS if len(w) == 2 and w[0] == words[0])
        if len(words) == 1 and actions:
            raise UsageError(f"{words[0]} requires one of: {actions}")
        known = ", ".join(" ".join(w) for w in COMMANDS)
        raise UsageError(f"unknown command {' '.join(words)!r} (known: {known})")
    try:
        seed = 0 if values["--seed"] is None else int(values["--seed"])
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    formats = COMMANDS[words][1]
    fmt = formats[0] if values["--format"] is None else values["--format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")
    if fmt not in formats:
        raise UsageError(f"{' '.join(words)} writes {' or '.join(formats)}, not {fmt}")
    return _Args(words, "-".join(words), values["--config"], values["--out"], fmt, seed)


def run(argv):
    """Parse argv, dispatch, and return the process exit code."""
    try:
        args = _parse_argv(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(_usage())
        return EXIT_OK
    handler = COMMANDS[args.words][0]
    try:
        handler(_load_config(args.config), args)
    except (FormSyntaxError, ValidationError) as err:
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
