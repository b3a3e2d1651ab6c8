"""Generated configs through every command of ``cli.run``, in-process.

Each call must end in exit 0, 1, 2 or 3.  A failure prints exactly one
typed line to stderr, and no call prints a traceback or a warning.  What a
call writes to stdout is strict JSON (no NaN or Infinity) or a CSV table
of finite numbers, and exit 0 always writes one of them.  Step and sample
counts are capped so the whole run takes seconds; a config that asks for
1e8 rows is a legal request, not a defect.  ``foucault precession`` steps
no rows, so its durations are long enough for several windows and its
row count is not capped.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pseudoform import cli
from pseudoform.formlang import FUNCTIONS
from pseudoform.foucault import MAX_STEPS

from test_cli import _strict_json

ROWS_CAP = 2000  # most orbit rows a generated call may ask for

_EXTREMES = [0, 0.0, -0.0, 1, -1, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
             math.nan, math.inf, -math.inf]
_WRONG = ["1", "", None, True, [], {}, [1.0, 2.0], {"x": 1}]

_TREE = st.recursive(
    st.sampled_from(["x", "y", "z", "t", "0", "1", "2.5", "pi", "e", "1e300", "1e-300"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda s: f"-{s}"),
    ),
    max_leaves=6,
)
_TEXTS = st.lists(_TREE, min_size=3, max_size=3)


def _floats(lo, hi, size=None):
    one = st.floats(lo, hi)
    return one if size is None else st.lists(one, min_size=size, max_size=size)


# a damaged field: an extreme or wrongly typed value, a vector holding
# extremes, or a malformed expression
_DAMAGE = st.one_of(
    st.sampled_from(_EXTREMES + _WRONG),
    st.lists(st.sampled_from(_EXTREMES), min_size=2, max_size=4),
    st.lists(st.sampled_from(["", "(", "x +", "sin", "x^1e300"]), min_size=3, max_size=3),
    _TREE,
)

_METRIC = {"metric": st.sampled_from(["euclidean", "minkowski", "galilean"]),
           "light_speed": st.sampled_from([1.0, 3.0, 299792458.0])}
_CHART = {"chart": st.sampled_from(["spatial", "spacetime"])}
_SOURCES = {"levelset": _TREE, "pfaffian": _TEXTS}  # a surface takes exactly one
# the pendulum's optional fields, which every foucault command and transport take
_PLACE = {"length": _floats(1, 100), "gravity": _floats(1, 20),
          "omega_earth": st.sampled_from([0.0, 7.292e-5, 1e-3]),
          "frame_rate": st.one_of(st.none(), _floats(-1e-3, 1e-3))}
# vx may also be large enough that the swing overflows (exit 3); x is not 0,
# so that an undamaged precession has a swing to measure
_VX = st.one_of(_floats(-0.2, 0.2), st.sampled_from([1e200, 1e308, -1e308]))
_PENDULUM = {"latitude": _floats(-1.5, 1.5),
             "initial": st.tuples(_floats(0.01, 0.2), _floats(-0.2, 0.2), _VX,
                                  _floats(-0.2, 0.2)).map(list),
             "dt": st.sampled_from([0.05, 0.5, 5.0, 1e3]),
             "duration": st.sampled_from([1.0, 20.0, 100.0])}
# at least three default windows (two periods, 32.8 s at the default 67 m)
_PRECESSION = {**_PENDULUM, "duration": st.sampled_from([100.0, 600.0, 3600.0])}


def _config(fields, optional=None, sources=None):
    """Configs with ``fields``, some of ``optional`` and one of ``sources``,
    and the keys a damaged one may hold: these, which are all the fields the
    command knows, and one it does not know."""
    optional, sources = optional or {}, sources or {}
    configs = st.fixed_dictionaries(fields, optional=optional)
    if sources:
        source = st.one_of([st.fixed_dictionaries({k: v}) for k, v in sources.items()])
        configs = st.tuples(configs, source).map(lambda pair: {**pair[0], **pair[1]})
    return configs, sorted({*fields, *optional, *sources, "bogus"})


# argv words -> (generated configs that are mostly valid, the keys damage may hit)
_CONFIGS = {
    ("classify",): _config(
        {"theta": _TEXTS, "lower": _floats(-2, 0, 3), "upper": _floats(0.1, 2, 3)},
        {"chart": st.just("spacetime"), "count": st.integers(1, 64),
         "tol": st.sampled_from([1e-8, 1e-3])}),
    ("surface",): _config({"points": st.lists(_floats(-2, 2, 3), min_size=1, max_size=4)},
                          {**_METRIC, **_CHART}, _SOURCES),
    ("geodesic",): _config(
        {"point": _floats(-2, 2, 3), "nu": _floats(-1, 1, 2), "ds": _floats(0.01, 0.5),
         "steps": st.integers(1, 50)}, {**_METRIC, **_CHART}, _SOURCES),
    ("foucault", "geometry"): _config({"latitude": _floats(-1.5, 1.5)},
                                      {**_METRIC, **_PLACE, "time": _floats(0, 1e5)}),
    ("foucault", "sim"): _config(_PENDULUM, _PLACE),
    ("foucault", "precession"): _config(_PRECESSION,
                                        {**_PLACE, "window": st.sampled_from([10.0, 50.0])}),
    ("transport",): _config(
        {"latitude": _floats(-1.5, 1.5), "initial": _floats(-1, 1, 3),
         "t1": st.sampled_from([1.0, 100.0, 1e3]), "dt": st.sampled_from([0.5, 10.0, 1e300])},
        {**_PLACE, "t0": st.sampled_from([0.0, 0.5]),
         "kind": st.sampled_from(["vector", "covector"])}),
}


def _call(words):
    # damage only the command's own fields, so that most damage reaches the
    # command's checks rather than the unknown-field refusal, and leave a
    # share of the calls whole, so that every command also runs to its end
    configs, keys = _CONFIGS[words]
    damage = st.one_of(st.just({}),
                       st.dictionaries(st.sampled_from(keys), _DAMAGE, min_size=1, max_size=2))
    return st.tuples(st.just(words), configs, damage,
                     st.sampled_from([None, "csv", "json"]), st.sampled_from([0, 1, 2**64 - 1, -1]))


_CALLS = st.sampled_from(sorted(_CONFIGS)).flatmap(_call)


def _real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _rows(config):
    """The orbit rows a config asks for, if it names an orbit whose sizes are numbers."""
    span = config.get("duration")
    if "t1" in config:
        t0 = config.get("t0", 0.0)
        span = config["t1"] - t0 if _real(config["t1"]) and _real(t0) else None
    dt = config.get("dt")
    if not (_real(span) and _real(dt)) or dt == 0:
        return 0
    return abs(span / dt)


def _check_table(text):
    if text.startswith("{"):
        _strict_json(text)
        return
    header, *rows = text.splitlines()
    assert header.startswith("t,")
    for row in rows:
        values = [float(v) for v in row.split(",")]
        assert len(values) == header.count(",") + 1 and all(map(math.isfinite, values))


_OVERFLOWING = {"latitude": 0.8526, "initial": [0.1, 0, 1e308, 0], "dt": 0.05, "duration": 100.0}
# this swing's window moments are subnormal from the start (exit 3)
_SUBNORMAL = {"latitude": 0.8526, "initial": [1e-160, 0, 0, 0], "dt": 1e-2, "duration": 200.0}


@settings(max_examples=400, deadline=None)
@given(_CALLS)
@example(call=(("foucault", "sim"), _OVERFLOWING, {}, "csv", 0))
@example(call=(("foucault", "sim"), _OVERFLOWING, {}, "json", 0))
@example(call=(("foucault", "precession"), _OVERFLOWING, {}, None, 0))
@example(call=(("foucault", "precession"), _SUBNORMAL, {}, "csv", 0))
@example(call=(("foucault", "precession"), _SUBNORMAL, {}, "json", 0))
def test_generated_configs_end_in_a_typed_exit(tmp_path_factory, call):
    words, config, damage, fmt, seed = call
    config = {**config, **damage}
    rows = _rows(config)
    assume(words == ("foucault", "precession") or not ROWS_CAP < rows <= MAX_STEPS)
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(config))
    argv = ["--config", str(path), "--seed", str(seed)]
    if fmt is not None:
        argv += ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.run(argv + list(words))
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    event(f"{' '.join(words)} exit {code}")
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == "" and out
    else:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("usage error: ", "config error: ", "numerical error: "))
    if out:
        _check_table(out)


def test_damage_can_hit_every_field_a_command_knows(tmp_path, capsys):
    # the unknown-field refusal lists the fields the command knows
    path = tmp_path / "unknown.json"
    path.write_text('{"bogus": 1}')
    for words, (_, keys) in _CONFIGS.items():
        assert cli.run(["--config", str(path), *words]) == 2
        assert capsys.readouterr().err.endswith(f"(known: {sorted(set(keys) - {'bogus'})})\n")
