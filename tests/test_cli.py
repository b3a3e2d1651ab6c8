"""Command-line interface: configs, formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pseudoform import cli, formlang, geometry, pfaff
from pseudoform import foucault as fc
from pseudoform.calculus import format_point
from pseudoform.curves import integrate_geodesic
from pseudoform.integrate import BLOCK


def _run(tmp_path, capsys, argv, config=None):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + argv
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_classify_contact_form(tmp_path, capsys):
    config = {"theta": ["0", "x", "1"], "lower": [-1, -1, -1], "upper": [1, 1, 1]}
    code, out, err = _run(tmp_path, capsys, ["classify"], config)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["subcommand"] == "classify"
    assert doc["seed"] == 0
    assert doc["config"]["count"] == 100  # defaults are echoed back
    assert doc["config"]["chart"] == "spatial"
    assert doc["result"]["class"] == "non_integrable"
    assert abs(doc["result"]["max_frobenius_raw"] - 1.0) < 1e-9


def test_classify_closed_form(tmp_path, capsys):
    config = {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
    code, out, _ = _run(tmp_path, capsys, ["classify"], config)
    assert code == 0
    assert json.loads(out)["result"]["class"] == "closed"


def test_classify_deterministic_bytes(tmp_path, capsys):
    config = {"theta": ["y", "x*z", "1"], "lower": [0.2, 0.2, 0.2], "upper": [1, 1, 1]}
    _, first, _ = _run(tmp_path, capsys, ["--seed", "7", "classify"], config)
    _, second, _ = _run(tmp_path, capsys, ["--seed", "7", "classify"], config)
    assert first == second
    _, other, _ = _run(tmp_path, capsys, ["--seed", "8", "classify"], config)
    assert json.loads(other)["seed"] == 8


def test_classify_out_file(tmp_path, capsys):
    config = {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
    target = tmp_path / "verdict.json"
    code, out, _ = _run(tmp_path, capsys, ["--out", str(target), "classify"], config)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["class"] == "closed"


def test_surface_sphere(tmp_path, capsys):
    config = {"levelset": "x^2+y^2+z^2", "points": [[0.0, 0.0, 1.0]]}
    code, out, _ = _run(tmp_path, capsys, ["surface"], config)
    assert code == 0
    entry = json.loads(out)["result"][0]
    assert np.allclose(entry["g"], np.eye(2), atol=1e-12)
    assert np.allclose(entry["h"], -np.eye(2), atol=1e-10)
    assert np.isclose(entry["curvatures"]["gaussian"]["re"], 1.0, atol=1e-6)
    assert np.isclose(entry["curvatures"]["kappa1"]["re"], -1.0, atol=1e-6)


def test_geodesic_csv(tmp_path, capsys):
    config = {
        "levelset": "x^2+y^2+z^2",
        "point": [1.0, 0.0, 0.0],
        "nu": [0.0, 1.0],
        "ds": 0.1,
        "steps": 10,
    }
    code, out, _ = _run(tmp_path, capsys, ["geodesic"], config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,z,vx,vy,vz"
    assert len(lines) == 12
    last = np.fromstring(lines[-1], sep=",")
    assert np.isclose(np.linalg.norm(last[1:4]), 1.0, atol=1e-8)  # stays on the sphere


def test_geodesic_output_matches_the_stacked_arrays(tmp_path, capsys):
    # the CLI writes the march's float states, the CSV one row at a time;
    # both documents equal the ones formatted from the curve's stacked
    # arrays, over more rows than two integrate.BLOCK blocks
    config = {"pfaffian": ["0", "x", "1"], "point": [0.1, -0.2, 0.3], "nu": [0.6, -0.8],
              "ds": 2e-3, "steps": 2 * BLOCK + 5}
    curve = integrate_geodesic(geometry.PseudoSurface.from_pfaffian(
        formlang.parse_oneform(config["pfaffian"])), config["point"], config["nu"],
        config["ds"], config["steps"])
    stacked = np.array(curve.states)
    points, velocities = stacked[:, :3], stacked[:, 3:]
    rows = np.column_stack([curve.s, points, velocities])
    code, out, _ = _run(tmp_path, capsys, ["geodesic"], config)
    assert code == 0
    lines = ["t,x,y,z,vx,vy,vz"] + [",".join("%.17g" % v for v in row) for row in rows]
    assert out == "\n".join(lines) + "\n"
    code, out, _ = _run(tmp_path, capsys, ["--format", "json", "geodesic"], config)
    assert code == 0
    result = json.loads(out)["result"]
    assert np.array(result["s"]).tobytes() == np.array(curve.s).tobytes()
    assert result["points"] == points.tolist()
    assert result["velocities"] == velocities.tolist()


def test_foucault_geometry_pole(tmp_path, capsys):
    config = {"latitude": math.pi / 2}
    code, out, _ = _run(tmp_path, capsys, ["foucault", "geometry"], config)
    assert code == 0
    doc = json.loads(out)
    rate = doc["result"]["phi_dot"]
    assert np.isclose(rate, 2 * 7.292e-5, rtol=1e-12)
    assert np.isclose(abs(doc["result"]["frobenius"]), rate, rtol=1e-10)
    eigs = sorted(
        [doc["result"]["curvatures"]["kappa1"]["re"], doc["result"]["curvatures"]["kappa2"]["re"]]
    )
    assert np.isclose(eigs[0], -0.5 * rate, rtol=1e-9)
    assert np.isclose(eigs[1], 0.5 * rate, rtol=1e-9)
    assert np.isclose(doc["result"]["curvatures"]["gaussian"]["re"], -0.25 * rate**2, rtol=1e-9)


def test_foucault_geometry_galilean(tmp_path, capsys):
    config = {"latitude": 0.8, "metric": "galilean"}
    code, out, _ = _run(tmp_path, capsys, ["foucault", "geometry"], config)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["curvatures"] is None
    assert doc["result"]["metric_degenerate"] is True


def test_foucault_sim_planar_csv(tmp_path, capsys):
    config = {
        "latitude": 0.0,
        "length": 10.0,
        "initial": [0.2, 0.0, 0.0, 0.0],
        "dt": 0.01,
        "duration": 5.0,
    }
    code, out, _ = _run(tmp_path, capsys, ["foucault", "sim"], config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,vx,vy"
    data = np.array([np.fromstring(ln, sep=",") for ln in lines[1:]])
    assert data.shape == (501, 5)
    assert np.max(np.abs(data[:, 2])) == 0.0  # no rotation: y stays zero
    code, out, _ = _run(tmp_path, capsys, ["--format", "json", "foucault", "sim"], config)
    result = json.loads(out)["result"]
    assert code == 0 and np.array_equal(np.column_stack([result["times"], result["states"]]), data)


def test_foucault_precession_csv_and_json(tmp_path, capsys):
    config = {
        "latitude": math.degrees(0) + 0.853,  # ~48.9 deg in radians
        "length": 10.0,
        "initial": [0.2, 0.0, 0.0, 0.0],
        "dt": 0.01,
        "duration": 600.0,
        "window": 60.0,
    }
    code, out, _ = _run(tmp_path, capsys, ["foucault", "precession"], config)
    assert code == 0
    assert out.splitlines()[0] == "t,x,y,vx,vy,plane_angle_rad"
    code, out, _ = _run(tmp_path, capsys, ["--format", "json", "foucault", "precession"], config)
    doc = json.loads(out)
    assert np.isclose(doc["result"]["rate"], doc["result"]["oracle_rate"], rtol=0.02)
    assert np.isclose(
        doc["result"]["plane_frame_rate"], 2 * doc["result"]["oracle_rate"], rtol=1e-12
    )


@pytest.mark.parametrize("window", [60.0, 60.01])  # even and odd samples per window
def test_foucault_precession_csv_rows_are_the_estimate(tmp_path, capsys, window):
    config = {
        "latitude": 0.853,
        "length": 10.0,
        "initial": [0.2, 0.05, 0.0, 0.0],
        "dt": 0.01,
        "duration": 600.0,
        "window": window,
    }
    code, out, _ = _run(tmp_path, capsys, ["foucault", "precession"], config)
    assert code == 0
    pendulum = fc.FoucaultConfig(latitude=0.853, length=10.0)
    orbit = fc.pendulum_orbit(pendulum, config["initial"], 0.01, 600.0)
    estimate = fc.measure_precession(orbit, window_seconds=window)
    lines = ["t,x,y,vx,vy,plane_angle_rad"]
    for center, state, angle in zip(estimate.window_centers, estimate.center_states,
                                    estimate.angles):
        lines.append(",".join("%.17g" % v for v in [center, *state, angle]))
    assert out == "\n".join(lines) + "\n"


_PARIS_RUN = {"latitude": math.radians(48.85), "initial": [0.1, 0.0, 0.0, 0.0]}


def _traced_peak_mb(tmp_path, argv, config):
    """Peak traced allocation of one in-process CLI call writing to a file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        code = cli.run(["--config", str(path), "--out", str(tmp_path / "out")] + argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / 2**20


def test_two_hour_precession_holds_one_window(tmp_path):
    # the whole 7.2e6-row trajectory would be 230 MB of states
    config = {**_PARIS_RUN, "dt": 1e-3, "duration": 7200.0}
    assert _traced_peak_mb(tmp_path, ["foucault", "precession"], config) <= 8.0


def test_sim_csv_memory_does_not_grow_with_duration(tmp_path):
    config = {**_PARIS_RUN, "dt": 1e-2}
    short = _traced_peak_mb(tmp_path, ["foucault", "sim"], {**config, "duration": 60.0})
    long = _traced_peak_mb(tmp_path, ["foucault", "sim"], {**config, "duration": 600.0})
    assert long <= 4.0 and long <= 2.0 * short


def test_transport_csv(tmp_path, capsys):
    config = {"latitude": 0.9, "initial": [0.0, 1.0, 0.0], "t1": 1000.0, "dt": 0.5}
    code, out, _ = _run(tmp_path, capsys, ["transport"], config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,ct,cx,cy"
    last = np.fromstring(lines[-1], sep=",")
    rate = 2 * 7.292e-5 * math.sin(0.9)
    assert np.isclose(last[2], math.cos(rate * 1000.0), atol=1e-8)
    assert np.isclose(last[3], math.sin(rate * 1000.0), atol=1e-8)
    code, out, _ = _run(tmp_path, capsys, ["--format", "json", "transport"], config)
    result = json.loads(out)["result"]
    assert code == 0 and [result["times"][-1], *result["components"][-1]] == last.tolist()


@pytest.mark.parametrize("words, config, key", [
    (["foucault", "sim"], {"latitude": 0.853, "length": 10.0, "initial": [0.2, -0.05, 0.0, 1e-6],
                           "dt": 0.01, "duration": 30.0}, "states"),
    (["transport"], {"latitude": 0.9, "initial": [0.3, 1.0, 0.0], "t1": 2000.0, "dt": 0.5},
     "components"),
], ids=["sim", "transport"])
def test_table_csv_is_the_per_value_format_of_the_json_values(tmp_path, capsys, words, config,
                                                               key):
    # more rows than one block, so the rows cross block boundaries
    code, out, _ = _run(tmp_path, capsys, ["--format", "csv", *words], config)
    assert code == 0
    code, doc, _ = _run(tmp_path, capsys, ["--format", "json", *words], config)
    result = json.loads(doc)["result"]
    rows = [[t, *values] for t, values in zip(result["times"], result[key])]
    assert code == 0 and len(rows) > BLOCK
    header = out.partition("\n")[0]
    assert out == header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                          for row in rows)


# -- error handling ---------------------------------------------------------


def test_usage_errors(tmp_path, capsys):
    assert _run(tmp_path, capsys, []) == (1, "", "usage error: a subcommand is required\n")
    assert _run(tmp_path, capsys, ["no-such-command"])[0] == 1
    assert _run(tmp_path, capsys, ["foucault"]) == (
        1, "", "usage error: foucault requires one of: geometry, sim, precession\n"
    )
    assert _run(tmp_path, capsys, ["foucault", "no-such-command"])[0] == 1
    assert _run(tmp_path, capsys, ["--seed", "-3", "classify"])[0] == 1


def test_argv_options_take_their_value_after_a_space_or_an_equals_sign(tmp_path, capsys):
    config = {"theta": ["y", "x*z", "1"], "lower": [0.2, 0.2, 0.2], "upper": [1, 1, 1]}
    spaced = _run(tmp_path, capsys, ["--seed", "7", "--format", "json", "classify"], config)
    joined = _run(tmp_path, capsys, ["--seed=7", "--format=json", "classify"], config)
    assert spaced == joined and spaced[0] == 0 and json.loads(spaced[1])["seed"] == 7
    # a repeated option keeps its last value
    assert _run(tmp_path, capsys, ["--seed", "3", "--seed=7", "classify"], config) == spaced


@pytest.mark.parametrize("argv, message", [
    (["--config"], "--config needs a value"),
    (["classify", "--seed"], "unknown command 'classify --seed'"),
    (["--out", "--seed", "3", "classify"], "--out needs a value"),
    (["--bogus", "classify"], "unknown option '--bogus'"),
    (["--conf", "c.json", "classify"], "unknown option '--conf'"),  # no prefix abbreviations
    (["-x", "classify"], "unknown option '-x'"),
    (["--format", "xml", "geodesic"], "--format must be csv or json, got 'xml'"),
    (["--format=", "geodesic"], "--format must be csv or json, got ''"),
    (["--seed", "x", "classify"], "--seed must be a non-negative integer"),
    (["--seed=-3", "classify"], "--seed must be a non-negative integer"),
    (["classify", "extra"], "unknown command 'classify extra'"),
    (["foucault", "no-such-command"], "unknown command 'foucault no-such-command'"),
])
def test_an_argv_outside_the_grammar_is_a_usage_error(tmp_path, capsys, argv, message):
    code, out, err = _run(tmp_path, capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("seed", ["1_0", " 7", "7 ", "+3", "\u0663", "\uff17", "", "0x1"])
def test_a_seed_of_anything_but_ascii_digits_is_a_usage_error(tmp_path, capsys, seed):
    code, out, err = _run(tmp_path, capsys, ["--seed", seed, "classify"], _CLASSIFY_BOX)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: --seed must be a non-negative integer")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--seed", "3", "-h"],
                                  ["classify", "--help"]])
def test_help_prints_the_usage_to_stdout_and_exits_0(tmp_path, capsys, argv):
    code, out, err = _run(tmp_path, capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: pseudoform [--config PATH] [--out PATH] [--format csv|json]")
    for words, (_, formats) in cli.COMMANDS.items():
        assert f"  {' '.join(words)} " in out and ", ".join(formats) in out


def test_help_as_an_options_value_is_that_value(tmp_path, capsys, monkeypatch):
    # "-h" after --out names the output file; it does not ask for help
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(tmp_path, capsys, ["--out", "-h", "classify"], _CLASSIFY_BOX)
    assert (code, out, err) == (0, "", "")
    assert _strict_json((tmp_path / "-h").read_text())["result"]["class"] == "closed"


def test_neither_the_cli_import_nor_a_geodesic_call_loads_argparse(tmp_path):
    # a fresh interpreter: the CLI parses its fixed grammar itself
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_MINIMAL_CONFIGS[("geodesic",)]))
    script = ("import sys; from pseudoform import cli; imported = 'argparse' in sys.modules; "
              "code = cli.run(sys.argv[1:]); print(imported, code, 'argparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "geodesic"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True)
    assert (proc.stdout, proc.stderr) == ("False 0 False\n", "")


_MINIMAL_CONFIGS = {
    ("classify",): {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]},
    ("surface",): {"levelset": "z", "points": [[0, 0, 0]]},
    ("geodesic",): {"levelset": "z", "point": [0, 0, 0], "nu": [1, 0], "ds": 0.1, "steps": 2},
    ("foucault", "geometry"): {"latitude": 0.5},
    ("foucault", "sim"): {"latitude": 0.5, "initial": [0.1, 0, 0, 0], "dt": 0.1, "duration": 1},
    ("foucault", "precession"): {
        "latitude": 0.5, "length": 1, "initial": [0.1, 0, 0, 0], "dt": 0.01, "duration": 30,
    },
    ("transport",): {"latitude": 0.5, "initial": [0, 1, 0], "t1": 1, "dt": 0.5},
}


@pytest.mark.parametrize("words", list(cli.COMMANDS), ids="-".join)
def test_every_command_dispatches_in_its_default_format(tmp_path, capsys, words):
    code, out, err = _run(tmp_path, capsys, list(words), _MINIMAL_CONFIGS[words])
    assert (code, err) == (0, "")
    if cli.COMMANDS[words][1][0] == "json":
        assert _strict_json(out)["subcommand"] == "-".join(words)
    else:
        assert out.startswith("t,") and not out.startswith("{")


@pytest.mark.parametrize("words", list(cli.COMMANDS), ids="-".join)
def test_a_format_the_command_does_not_write_is_a_usage_error(tmp_path, capsys, words):
    formats = cli.COMMANDS[words][1]
    for fmt in ("csv", "json"):
        code, out, err = _run(tmp_path, capsys, ["--format", fmt, *words], _MINIMAL_CONFIGS[words])
        if fmt in formats:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (1, "")
            accepted = " or ".join(formats)
            assert err == f"usage error: {' '.join(words)} writes {accepted}, not {fmt}\n"


def test_unwritable_output_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    code, _, err = _run(tmp_path, capsys, ["--out", str(out), "foucault", "sim"],
                        _MINIMAL_CONFIGS[("foucault", "sim")])
    assert code == 2
    assert err.startswith("output error: [Errno 2] No such file or directory")


def test_config_error_bad_expression(tmp_path, capsys):
    config = {"theta": ["0", "q", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
    code, _, err = _run(tmp_path, capsys, ["classify"], config)
    assert code == 2
    assert "component 1" in err and "unknown identifier 'q'" in err and "column 1" in err


def test_config_error_unknown_field(tmp_path, capsys):
    config = {
        "theta": ["0", "0", "1"],
        "lower": [0, 0, 0],
        "upper": [1, 1, 1],
        "bogus": 3,
    }
    code, _, err = _run(tmp_path, capsys, ["classify"], config)
    assert code == 2 and "unknown config field 'bogus'" in err


def test_config_error_missing_required(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, ["classify"], {"theta": ["0", "0", "1"]})
    assert code == 2 and "missing required config field" in err


def test_config_error_missing_file(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys, ["--config", str(tmp_path / "nope.json"), "classify"])
    assert code == 2 and "cannot read config file" in err


def test_config_error_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(tmp_path, capsys, ["--config", str(path), "classify"])
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("text", [
    '{"theta": ["0", "x", "1"], "theta": ["1", "0", "0"], "lower": [0, 0, 0], "upper": [1, 1, 1]}',
    '{"theta": ["0", "x", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1], "theta": ["0", "x", "1"]}',
], ids=["other-value", "same-value"])
def test_config_error_repeated_key(tmp_path, capsys, text):
    # json.load would keep the last value and classify that form
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = _run(tmp_path, capsys, ["--config", str(path), "classify"])
    assert (code, out) == (2, "")
    assert err == f"config error: config file {str(path)!r} repeats the key 'theta'\n"


@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b'{"count": ' + b"1" * 5000 + b"}"], ids=["not-utf8", "huge-integer"]
)
def test_config_error_unreadable_json_is_typed(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code, _, err = _run(tmp_path, capsys, ["--config", str(path), "classify"])
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("lower, upper, message", [
    ([0, 0, 0], [0, 1, 1], "config error: degenerate region box: "
                           "lower=(0.0, 0.0, 0.0), upper=(0.0, 1.0, 1.0)\n"),
    ([-1e308, 0, 0], [1e308, 1, 1], "config error: region box is wider than a float can hold: "
                                    "lower=(-1e+308, 0.0, 0.0), upper=(1e+308, 1.0, 1.0)\n"),
], ids=["degenerate", "overflowing-width"])
def test_config_error_region_box_names_the_box(tmp_path, lower, upper, message):
    proc = _run_process(tmp_path, ["classify"],
                        {"theta": ["0", "x", "1"], "lower": lower, "upper": upper})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_classify_refuses_a_negative_tol_and_keeps_zero(tmp_path, capsys):
    # a tolerance below 0 would call a closed form non_integrable
    config = {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1], "tol": -1}
    code, out, err = _run(tmp_path, capsys, ["classify"], config)
    assert (code, out, err) == (2, "", "config error: tol must be >= 0, got -1.0\n")
    code, out, _ = _run(tmp_path, capsys, ["classify"], {**config, "tol": 0})
    assert code == 0 and json.loads(out)["result"]["class"] == "closed"


def test_config_error_both_surface_sources(tmp_path, capsys):
    config = {
        "levelset": "z",
        "pfaffian": ["0", "0", "1"],
        "points": [[0.0, 0.0, 0.0]],
    }
    code, _, err = _run(tmp_path, capsys, ["surface"], config)
    assert code == 2 and "exactly one" in err


def test_config_error_bad_metric(tmp_path, capsys):
    config = {"levelset": "z", "metric": "riemann", "points": [[0.0, 0.0, 0.0]]}
    code, _, err = _run(tmp_path, capsys, ["surface"], config)
    assert code == 2 and "'metric'" in err


def test_numerical_error_exit_code(tmp_path, capsys):
    # the sphere level set has a vanishing gradient at the origin
    config = {"levelset": "x^2+y^2+z^2", "points": [[0.0, 0.0, 0.0]]}
    code, _, err = _run(tmp_path, capsys, ["surface"], config)
    assert code == 3 and err.startswith("numerical error:")
    assert "(0.0, 0.0, 0.0)" in err and "np.float64" not in err


_FIRST_SAMPLE = format_point(pfaff.RegionSampler((0, 0, 0), (1, 1, 1)).points()[0])


@pytest.mark.parametrize("text, message", [
    ("1/0", "float division by zero at point {point}"),
    ("10^400", "overflow at point {point}"),
    ("ln(0)", "ln of non-positive value 0.0"),
    ("(-8)^(1/3)", "negative base -8.0 with fractional exponent 0.3333333333333333"),
    ("1e999", "non-finite field value or derivative at point {point}"),
    ("0*1e999", "non-finite field value or derivative at point {point}"),
])
def test_a_failing_constant_component_is_a_numerical_error_at_its_first_point(
        tmp_path, capsys, text, message):
    # a constant is evaluated once when it is compiled, but a failure still
    # comes from the first evaluation, with the point where one is named
    config = {"theta": [text, "x", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
    code, out, err = _run(tmp_path, capsys, ["classify"], config)
    assert (code, out, err) == (3, "", f"numerical error: {message.format(point=_FIRST_SAMPLE)}\n")
    config = {"pfaffian": ["0", "x", text], "points": [[0.1, 0.2, 0.3]]}
    code, out, err = _run(tmp_path, capsys, ["surface"], config)
    assert (code, out, err) == (3, "", f"numerical error: {message.format(point='(0.1, 0.2, 0.3)')}\n")


_CLASSIFY_BOX = {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
_OVERFLOW_BOX = {"lower": [800, 0, 0], "upper": [900, 1, 1]}


@pytest.mark.parametrize(
    "config, code, message",
    [
        pytest.param({**_OVERFLOW_BOX, "theta": ["0", "0", "exp(x)"]}, 3,
                     "numerical error: overflow at point (", id="exp-overflow"),
        pytest.param({**_OVERFLOW_BOX, "theta": ["0", "0", "x^400"]}, 3,
                     "numerical error: overflow at point (", id="pow-overflow"),
        pytest.param({**_CLASSIFY_BOX, "lower": [0.1, 0, 0], "theta": ["0", "0", "exp(x)^1e10"]},
                     3, "numerical error: overflow at point (", id="float-power-overflow"),
        # sin of an infinite argument is NaN, which the finite check reports
        pytest.param({**_CLASSIFY_BOX, "lower": [0.1, 0, 0],
                      "theta": ["0", "sin(x*1e300*1e300)", "1"]}, 3,
                     "numerical error: non-finite field value or derivative at point (",
                     id="sin-of-infinity"),
        pytest.param({**_CLASSIFY_BOX, "theta": ["0", "0", "1/0"]}, 3, "numerical error:",
                     id="constant-division-by-zero"),
        # a constant power takes the Dual's rule instead of turning complex
        pytest.param({**_CLASSIFY_BOX, "theta": ["0", "0", "(0-8)^0.5"]}, 3,
                     "numerical error: negative base -8.0 with fractional exponent 0.5",
                     id="constant-negative-base-fractional-power"),
        pytest.param({**_CLASSIFY_BOX, "theta": ["0", "0", "1+x*(0-8)^0.5"]}, 3,
                     "numerical error: negative base -8.0 with fractional exponent 0.5",
                     id="scaled-negative-base-fractional-power"),
        # a NaN exponent is no integer: a negative base takes the fractional rule;
        # every x in the box is negative, so whichever sample comes first fails so
        pytest.param({**_CLASSIFY_BOX, "lower": [-1, 0, 0], "upper": [-0.5, 1, 1],
                      "theta": ["0", "0", "1+x^(0*1e999)"]},
                     3, "numerical error: negative base", id="nan-exponent-negative-base"),
        pytest.param({**_CLASSIFY_BOX, "lower": [0.1, 0, 0], "theta": ["0", "0", "1+x^(0*1e999)"]},
                     3, "numerical error: non-finite field value", id="nan-exponent-positive-base"),
        # one link past the tree depth limit, and far past it
        pytest.param({**_CLASSIFY_BOX, "theta": ["0", "0", "1" + "+x" * formlang._MAX_TREE_DEPTH]},
                     2, "expression too deeply nested", id="sum-past-the-depth-limit"),
        pytest.param({**_CLASSIFY_BOX, "theta": ["0", "0", "1" + "+x" * 1500]},
                     2, "expression too deeply nested", id="sum-of-1501-terms"),
        pytest.param({**_CLASSIFY_BOX, "lower": ["a", 0, 0]}, 2, "'lower'", id="string-bound"),
        pytest.param({**_CLASSIFY_BOX, "count": "many"}, 2, "'count'", id="string-count"),
        pytest.param({**_CLASSIFY_BOX, "count": None}, 2, "'count'", id="null-count"),
        pytest.param({**_CLASSIFY_BOX, "count": 2.7}, 2, "'count'", id="fractional-count"),
        pytest.param({**_CLASSIFY_BOX, "chart": ["x"]}, 2, "'chart'", id="list-chart"),
    ],
)
def test_classify_failures_are_typed(tmp_path, capsys, config, code, message):
    got, out, err = _run(tmp_path, capsys, ["classify"], config)
    assert (got, out) == (code, "")
    assert message in err and "Traceback" not in err


_SIM = _MINIMAL_CONFIGS[("foucault", "sim")]
_TRANSPORT = _MINIMAL_CONFIGS[("transport",)]
_THETA2_MINKOWSKI = {"pfaffian": ["0", "-sin(t)", "cos(t)"], "chart": "spacetime",
                     "metric": "minkowski", "points": [[0, 0, 0]]}


@pytest.mark.parametrize(
    "argv, config, field",
    [
        pytest.param(["foucault", "sim"], {**_SIM, "latitude": math.nan}, "latitude",
                     id="nan-latitude"),
        pytest.param(["classify"], {**_CLASSIFY_BOX, "tol": math.nan}, "tol", id="nan-tol"),
        pytest.param(["surface"], {**_THETA2_MINKOWSKI, "light_speed": math.nan}, "light_speed",
                     id="nan-light-speed"),
        pytest.param(["transport"], {**_TRANSPORT, "omega_earth": math.inf}, "omega_earth",
                     id="inf-omega-earth"),
        pytest.param(["foucault", "sim"], {**_SIM, "initial": [0.1, math.nan, 0, 0]}, "initial",
                     id="nan-initial-element"),
        pytest.param(["surface"], {"levelset": 5, "points": [[0, 0, 0]]}, "levelset",
                     id="number-levelset"),
    ],
)
def test_config_field_types_are_checked(tmp_path, capsys, argv, config, field):
    # Python's json reads NaN and Infinity; a non-finite number must not reach the run
    code, out, err = _run(tmp_path, capsys, argv, config)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: config field '{field}' must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("light_speed", [1e200, 0, -3])
@pytest.mark.parametrize("argv, config", [
    (["surface"], {"pfaffian": ["1", "x", "1"], "chart": "spacetime", "metric": "minkowski",
                   "points": [[0.1, 0.2, 0.3]]}),
    (["foucault", "geometry"], {"latitude": 0.8, "metric": "minkowski"}),
], ids=["surface", "foucault-geometry"])
def test_light_speed_needs_a_positive_finite_square(tmp_path, capsys, argv, config, light_speed):
    # 1e200 squared overflows; 0 and -3 are no speed
    code, out, err = _run(tmp_path, capsys, argv, {**config, "light_speed": light_speed})
    assert (code, out) == (2, "")
    assert err.startswith("config error: light_speed must be positive")


def _process_env(buffered=False):
    """The environment of a fresh interpreter that imports this checkout's pseudoform.

    ``buffered`` drops ``PYTHONUNBUFFERED``, so stdout buffers its writes as
    in a user's shell and a write error can wait for the flush at exit.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_process(tmp_path, argv, config, stdout=subprocess.PIPE, buffered=False, python=()):
    """Run the CLI in a fresh interpreter, so a NumPy warning reaches stderr as for a user.

    ``python`` holds interpreter arguments that go before ``-m pseudoform.cli``.
    """
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return subprocess.run(
        [sys.executable, *python, "-m", "pseudoform.cli", "--config", str(path), *argv],
        env=_process_env(buffered), stdout=stdout, stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.parametrize("words, loaded", [(("foucault", "sim"), False), (("classify",), True)])
def test_formcode_is_loaded_by_the_first_parse_only(tmp_path, words, loaded):
    # a fresh interpreter: the code generator stays unloaded by a call that parses nothing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_MINIMAL_CONFIGS[words]))
    script = ("import sys; from pseudoform import cli; code = cli.run(sys.argv[1:]); "
              "print(code, 'pseudoform.formcode' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), *words]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True)
    assert (proc.stdout, proc.stderr) == (f"0 {loaded}\n", "")


# the lazily registered modules each command leaves unexecuted
_UNEXECUTED = {
    ("classify",): {"foucault", "geometry", "curves", "integrate"},
    ("surface",): {"foucault", "pfaff", "curves", "integrate"},
    ("geodesic",): {"foucault", "pfaff"},
    **dict.fromkeys([("foucault", "sim"), ("foucault", "precession"), ("transport",)],
                    {"formlang", "calculus", "geometry", "pfaff", "curves"}),
}


@pytest.mark.parametrize("words", list(_UNEXECUTED), ids="-".join)
def test_a_call_executes_only_the_modules_its_command_uses(tmp_path, words):
    # a fresh interpreter: a module whose body ran is a plain module, an unrun one is not
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_MINIMAL_CONFIGS[words]))
    script = ("import sys, types; from pseudoform import cli; code = cli.run(sys.argv[1:]); "
              "print(code, *(n for n in sorted(sys.modules) if n.startswith('pseudoform.') "
              "and type(sys.modules[n]) is types.ModuleType))")
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), *words]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_process_env(),
                          capture_output=True, text=True)
    code, *executed = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    assert "pseudoform.cli" in executed
    assert not {f"pseudoform.{name}" for name in _UNEXECUTED[words]} & set(executed)


def test_closed_stdout_stops_quietly_with_exit_141(tmp_path):
    # 20001 CSV rows (about 1.5 MB) overflow any pipe buffer, so the CLI's own
    # writes meet the closed read end, as under `pseudoform ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_process(tmp_path, ["foucault", "sim"], {
            "latitude": 0.85, "dt": 1e-3, "duration": 20.0, "initial": [0.1, 0, 0, 0]},
            stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_a_buffered_result_to_a_closed_stdout_stops_quietly_with_exit_141(tmp_path):
    # the small JSON document stays in stdout's buffer until the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_process(tmp_path, ["classify"], _CLASSIFY_BOX, stdout=write_end,
                            buffered=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_buffered_result_to_a_full_device_is_an_output_error(tmp_path):
    with open("/dev/full", "w") as full:
        proc = _run_process(tmp_path, ["classify"], _CLASSIFY_BOX, stdout=full, buffered=True)
    assert (proc.returncode, proc.stderr) == (
        2, "output error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("words, config", [
    (["foucault", "sim"],  # 2501 rows: three csvtext blocks
     {"latitude": 0.85, "dt": 0.01, "duration": 25.0, "initial": [0.1, 0, 0, 0]}),
    (["surface"], {"levelset": "x^2+y^2+z^2", "points": [[0, 0, 1], [0.6, 0, 0.8]]}),
], ids=["foucault-sim-csv", "surface-json"])
def test_a_process_writes_the_bytes_of_an_in_process_run(tmp_path, capsys, words, config):
    proc = _run_process(tmp_path, words, config, buffered=True)
    code, out, err = _run(tmp_path, capsys, words, config)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")
    assert out.count("\n") == (2502 if words == ["foucault", "sim"] else 1)


def test_a_table_csv_is_the_same_through_a_file_stdout_and_a_text_stream(tmp_path, capsys):
    # csvtext's ASCII bytes go to the byte buffer under the file or stdout, after
    # the header; a stream without one (io.StringIO) gets them decoded
    config = {"latitude": 0.85, "dt": 0.01, "duration": 25.0, "initial": [0.1, 0, 0, 0]}
    target = tmp_path / "sim.csv"
    assert _run(tmp_path, capsys, ["--out", str(target), "foucault", "sim"], config)[0] == 0
    _, out, _ = _run(tmp_path, capsys, ["foucault", "sim"], config)
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert cli.run(["--config", str(tmp_path / "config.json"), "foucault", "sim"]) == 0
    assert target.read_text() == out == stream.getvalue()
    assert out.startswith("t,x,y,vx,vy\n0,0.10000000000000001,0,0,0\n")


def test_a_process_runs_its_atexit_handlers_and_skips_the_teardown(tmp_path):
    # the handler runs before os._exit; the object's __del__ would print only
    # when the interpreter tears down the script's globals
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_CLASSIFY_BOX))
    script = ("import atexit, runpy\n"
              "atexit.register(print, 'atexit handler ran')\n"
              "class Teardown:\n"
              "    def __del__(self): print('torn down')\n"
              "kept = Teardown()\n"
              "runpy.run_module('pseudoform.cli', run_name='__main__')\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "--config", str(path), "--out", str(tmp_path / "out"),
         "classify"], env=_process_env(buffered=True), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "atexit handler ran\n", "")
    assert json.loads((tmp_path / "out").read_text())["subcommand"] == "classify"


def test_a_process_under_cprofile_prints_its_stats(tmp_path):
    # a profiler waits for the normal exit, so the process ends through SystemExit
    out = tmp_path / "out"
    proc = _run_process(tmp_path, ["--out", str(out), "classify"], _CLASSIFY_BOX,
                        python=("-m", "cProfile"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "function calls" in proc.stdout and "(run)" in proc.stdout
    assert json.loads(out.read_text())["subcommand"] == "classify"


def test_overflowing_gradient_prints_only_the_typed_error(tmp_path):
    # x*1e300*1e300 overflows the Dual gradient
    proc = _run_process(tmp_path, ["classify"], {**_CLASSIFY_BOX, "lower": [0.1, 0, 0],
                                                 "theta": ["0", "0", "1 + x*1e300*1e300"]})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("numerical error: non-finite")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_overflowing_dtheta_prints_only_the_typed_error(tmp_path):
    # d theta_1 = -1e308 - 1e308 overflows to -inf in the float kernel, with no NumPy warning
    proc = _run_process(tmp_path, ["classify"], {
        "theta": ["0", "1e308*z", "-1e308*y"], "lower": [0.1, 0.1, 0.1],
        "upper": [0.9, 0.9, 0.9], "count": 50})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "numerical error: non-finite value in the classify result\n"


def test_huge_finite_pfaffian_classifies_without_warnings(tmp_path):
    # |theta| = exp(1000 x) reaches 1e304: its square overflows, its norm does not
    proc = _run_process(tmp_path, ["classify"], {
        "theta": ["0", "0", "exp(x*1000)"], "lower": [0.1, 0, 0], "upper": [0.7, 1, 1]})
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert result["class"] == "integrating_factor"
    assert abs(result["max_dtheta"] - 1000.0) <= 1e-12 * 1000.0


def test_overflowing_pfaffian_prints_only_the_typed_error(tmp_path):
    proc = _run_process(tmp_path, ["classify"], {
        "theta": ["0", "0", "exp(x*1000)"], "lower": [0.1, 0, 0], "upper": [1, 1, 1]})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("numerical error: overflow at point (")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("source", [{"levelset": "exp(x*1000)"},
                                    {"pfaffian": ["exp(x*1000)", "0", "0"]}],
                         ids=["levelset", "pfaffian"])
def test_huge_normal_gives_the_flat_forms_without_warnings(tmp_path, source):
    # |N| = exp(500) (times 1000 for the level set) is about 1e217: its square overflows
    proc = _run_process(tmp_path, ["surface"], {**source, "points": [[0.5, 0.2, 0.1]]})
    assert (proc.returncode, proc.stderr) == (0, "")
    (entry,) = json.loads(proc.stdout)["result"]
    assert entry["g"] == [[1.0, 0.0], [0.0, 1.0]]
    assert entry["h"] == [[0.0, 0.0], [0.0, 0.0]]
    assert all(part == 0.0 for z in entry["curvatures"].values() for part in z.values())


@pytest.mark.parametrize("config, start", [
    # the state stays finite, but the first stage point x + (ds/2) v overflows
    ({"pfaffian": ["0", "0", "1"], "point": [0, 0, 0], "nu": [1e300, 0], "ds": 1e10, "steps": 3},
     "0,0,0,0,1.0000000000000001e+300,0,0"),
    # the first stage's acceleration overflows, so the next stage point is not finite
    ({"levelset": "x^2+y^2+z^2", "point": [1, 0, 0], "nu": [1e155, 0], "ds": 1e-156,
      "steps": 50}, "0,1,0,0,0,1e+155,0"),
], ids=["velocity", "acceleration"])
def test_a_non_finite_geodesic_stage_point_aborts_the_march(tmp_path, config, start):
    # the march ends with the start row written, as at a non-finite state;
    # only p0 is refused as a config error
    proc = _run_process(tmp_path, ["geodesic"], config)
    assert (proc.returncode, proc.stdout) == (3, f"t,x,y,z,vx,vy,vz\n{start}\n")
    assert proc.stderr == (f"numerical error: geodesic aborted after 0 of {config['steps']} "
                           "steps: non-finite state at step 1\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_geodesic_nu_of_norm_at_most_1e_15_is_a_config_error(tmp_path, capsys, fmt):
    out = tmp_path / "geodesic.out"
    code, _, err = _run(tmp_path, capsys, ["--out", str(out), "--format", fmt, "geodesic"], {
        "levelset": "x^2+y^2+z^2", "point": [1, 0, 0], "nu": [1e-300, 0], "ds": 0.01,
        "steps": 5})
    assert code == 2 and not out.exists()
    assert err == ("config error: initial frame velocity nu must have a norm above 1e-15, "
                   "got (1e-300, 0.0)\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_aborted_geodesic_writes_partial_output_and_exits_3(tmp_path, capsys, fmt):
    config = {
        "pfaffian": ["0", "0", "sqrt(1-x)"],
        "point": [0, 0, 0],
        "nu": [1, 0],
        "ds": 0.05,
        "steps": 100,
    }
    code, out, err = _run(tmp_path, capsys, ["--format", fmt, "geodesic"], config)
    assert code == 3
    if fmt == "csv":
        k = len(out.strip().splitlines()) - 2  # header and the start point
    else:
        result = json.loads(out)["result"]
        assert result["aborted"] and "np.float64" not in result["abort_reason"]
        k = len(result["s"]) - 1
    assert 0 < k < 100
    assert err.startswith(f"numerical error: geodesic aborted after {k} of 100 steps: ")


THETA2_LATITUDE = 0.8527


def _theta2_surface(metric):
    rate = repr(fc.FoucaultConfig(latitude=THETA2_LATITUDE).phi_dot)
    return {
        "pfaffian": ["0*t", f"-sin({rate}*t)", f"cos({rate}*t)"],
        "chart": "spacetime",
        "metric": metric,
        "points": [[0.0, 0.0, 0.0]],
    }


@pytest.mark.parametrize("metric", ["euclidean", "minkowski"])
def test_surface_curvatures_match_foucault_geometry(tmp_path, capsys, metric):
    code, out, _ = _run(tmp_path, capsys, ["surface"], _theta2_surface(metric))
    assert code == 0
    entry = json.loads(out)["result"][0]
    code, out, _ = _run(
        tmp_path, capsys, ["foucault", "geometry"], {"latitude": THETA2_LATITUDE, "metric": metric}
    )
    assert code == 0
    expected = json.loads(out)["result"]
    assert np.allclose(entry["g"], expected["g"], rtol=1e-12, atol=0)
    assert np.allclose(entry["h"], expected["h"], rtol=1e-12, atol=0)
    for key in ("kappa1", "kappa2", "gaussian", "mean"):
        got = complex(entry["curvatures"][key]["re"], entry["curvatures"][key]["im"])
        want = complex(expected["curvatures"][key]["re"], expected["curvatures"][key]["im"])
        assert abs(got - want) <= 1e-12 * abs(want)


def test_surface_theta2_galilean_writes_the_forms_of_foucault_geometry(tmp_path, capsys):
    # g^ab does not exist, so both commands write g, h and null curvatures
    code, out, _ = _run(tmp_path, capsys, ["surface"], _theta2_surface("galilean"))
    assert code == 0
    (entry,) = json.loads(out)["result"]
    code, out, _ = _run(tmp_path, capsys, ["foucault", "geometry"],
                        {"latitude": THETA2_LATITUDE, "metric": "galilean"})
    assert code == 0
    expected = json.loads(out)["result"]
    assert (entry["g"], entry["h"]) == (expected["g"], expected["h"])
    assert entry["g"] == [[0.0, 0.0], [0.0, 1.0]]
    assert entry["curvatures"] is None is expected["curvatures"]


def test_galilean_sphere_writes_every_point_and_curvatures_where_g_is_invertible(
        tmp_path, capsys):
    # the tangent plane at (0, 0, 1) holds the metric's null x axis, the one at (1, 0, 0) does not
    config = {"levelset": "x^2+y^2+z^2", "metric": "galilean", "points": [[1, 0, 0], [0, 0, 1]]}
    code, out, _ = _run(tmp_path, capsys, ["surface"], config)
    assert code == 0
    first, second = json.loads(out)["result"]
    assert (first["point"], second["point"]) == ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert (first["g"], second["g"]) == ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]])
    assert first["h"] == second["h"] == [[-1.0, -0.0], [-0.0, -1.0]]
    assert first["curvatures"]["gaussian"] == {"re": 1.0, "im": 0.0}
    assert second["curvatures"] is None


def test_galilean_surface_numerical_error(tmp_path, capsys):
    config = {
        "pfaffian": ["1", "0", "1"],
        "chart": "spacetime",
        "metric": "galilean",
        "points": [[0.0, 0.0, 0.0]],
    }
    code, _, err = _run(tmp_path, capsys, ["surface"], config)
    assert code == 3 and "numerical error" in err


def test_spacetime_levelset_is_refused_under_galilean_like_its_pfaffian(tmp_path, capsys):
    base = {"chart": "spacetime", "metric": "galilean", "points": [[0.0, 0.0, 0.3]]}
    level = _run(tmp_path, capsys, ["surface"], {**base, "levelset": "t+x+0.5*y^2"})
    pfaff = _run(tmp_path, capsys, ["surface"], {**base, "pfaffian": ["1", "1", "y"]})
    message = "Galilean metric cannot normalize a Pfaffian with a time component"
    assert level == pfaff == (3, "", f"numerical error: {message}\n")


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["foucault", "sim"], {**_SIM, "dt": 1e-300, "duration": 1e300}, id="sim"),
        pytest.param(["transport"], {**_TRANSPORT, "dt": 1e-300, "t1": 1e300}, id="transport"),
    ],
)
def test_overflowing_step_count_is_a_config_error(tmp_path, capsys, argv, config):
    code, out, err = _run(tmp_path, capsys, argv, config)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "dt" in err and "Traceback" not in err


@pytest.mark.parametrize("words, dt, duration", [
    (["foucault", "sim"], 1e3, 100.0),
    (["foucault", "precession"], 1e3, 100.0),
    (["foucault", "sim"], 0.1, 0.0),
    (["foucault", "sim"], -0.1, 10.0),
], ids=["sim-step-past-duration", "precession-step-past-duration", "zero-duration", "negative-dt"])
def test_a_duration_that_holds_no_step_is_a_config_error(tmp_path, capsys, words, dt, duration):
    # round(duration / dt) < 1: the refusal names both fields, not the step count alone
    code, out, err = _run(tmp_path, capsys, words, {**_SIM, "dt": dt, "duration": duration})
    assert (code, out) == (2, "")
    assert err == (f"config error: duration={duration!r} holds no step of dt={dt!r}: "
                   f"round(duration / dt) is {round(duration / dt)}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_geodesic_arc_parameter_is_a_config_error(tmp_path, capsys, fmt):
    # every state stays finite, but k * ds overflows: the CSV used to write inf
    # in its t column and exit 0, and the JSON document was refused with exit 3
    config = {"levelset": "z", "point": [0, 0, 0], "nu": [1e-10, 0], "ds": 1e308, "steps": 3}
    code, out, err = _run(tmp_path, capsys, ["--format", fmt, "geodesic"], config)
    assert (code, out) == (2, "")
    assert err.startswith("config error: steps * ds must be finite")
    assert "steps=3" in err and "ds=1e+308" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["foucault", "sim"], {**_SIM, "dt": 1e-3, "duration": 1e6 + 1}, id="sim"),
        # used to stream rows without end
        pytest.param(["transport"], {**_TRANSPORT, "dt": 1e-300}, id="transport"),
    ],
)
def test_step_count_above_max_steps_is_a_config_error(tmp_path, capsys, argv, config):
    code, out, err = _run(tmp_path, capsys, argv, config)
    assert (code, out) == (2, "")
    assert err.startswith("config error: step size dt=") and "MAX_STEPS" in err


def test_sample_count_above_max_samples_is_a_config_error(tmp_path, capsys):
    # refused before any sample array is allocated (it would take 22 TiB)
    code, out, err = _run(tmp_path, capsys, ["classify"], {**_CLASSIFY_BOX, "count": 10**12})
    assert (code, out) == (2, "")
    assert err.startswith("config error: sample count") and "MAX_SAMPLES" in err


def test_overflowing_raw_frobenius_is_written_as_null(tmp_path, capsys):
    # f |theta|^2 overflows, while f itself and the verdict stay finite
    config = {"theta": ["0", "x*exp(400*x)", "exp(400*x)"], "lower": [0.9, 0.5, 0],
              "upper": [1, 1, 1], "count": 16}
    code, out, err = _run(tmp_path, capsys, ["classify"], config)
    assert (code, err) == (0, "")
    result = _strict_json(out)["result"]
    assert result["class"] == "non_integrable" and result["max_frobenius_raw"] is None
    assert 0.5 < result["max_frobenius"] < 0.6


def test_a_non_finite_json_result_is_a_numerical_error_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    verdict = pfaff.IntegrabilityClass(pfaff.NormalForm.CLOSED, math.nan, 0.0, 0.0)
    monkeypatch.setattr(pfaff, "classify", lambda *args, **kwargs: verdict)
    target = tmp_path / "verdict.json"
    code, out, err = _run(tmp_path, capsys, ["--out", str(target), "classify"], _CLASSIFY_BOX)
    assert (code, out) == (3, "")
    assert err == "numerical error: non-finite value in the classify result\n"
    assert not target.exists()


# long steps: 10 s and 1e3 s for this pendulum, whose period is 16.4 s, and
# one step of 3e8 s (3.3e4 rad) for this transport
_DT10_PENDULUM = {"latitude": 0.8526, "dt": 10, "duration": 300, "initial": [0.1, 0, 0, 0]}
_DT1000_PENDULUM = {"latitude": 0.8526, "dt": 1e3, "duration": 1e5, "initial": [0.1, 0, 0, 0]}
_ONE_STEP_TRANSPORT = {"latitude": 0.8526, "initial": [1e-9, 3, 1e300], "t0": 0.5,
                       "t1": 299792458, "dt": 1e300}
# steps whose rows overflow: the swing's x passes the largest float at
# row 199, the transported cx at row 206
_OVERFLOWING_PENDULUM = {"latitude": 0.8526, "dt": 1e-2, "duration": 10,
                         "initial": [0.1, 0, 1e308, 0]}
_OVERFLOWING_TRANSPORT = {"latitude": 0.8526, "initial": [0, 1.5e308, 1.5e308], "t1": 1e5,
                          "dt": 10}


@pytest.mark.parametrize("words, config, rows", [
    (["foucault", "sim"], _DT10_PENDULUM, 31),
    (["foucault", "sim"], _DT1000_PENDULUM, 101),
    (["foucault", "precession"], _DT1000_PENDULUM, 50),
    (["transport"], _ONE_STEP_TRANSPORT, 2),
], ids=["sim-dt10", "sim", "precession", "transport"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_long_step_runs(tmp_path, capsys, fmt, words, config, rows):
    # each row is the exact flow of the one before, so a step is refused only
    # where its turn passes MAX_PHASE
    code, out, err = _run(tmp_path, capsys, ["--format", fmt, *words], config)
    assert (code, err) == (0, "")
    if fmt == "csv":
        assert len(out.splitlines()) == rows + 1
    else:
        result = _strict_json(out)["result"]
        assert len(result["times" if "times" in result else "angles"]) == rows


_FAR_PENDULUM = {**_DT10_PENDULUM, "dt": 1e18, "duration": 1e20}


@pytest.mark.parametrize("words, config, longest", [
    (["foucault", "sim"], _FAR_PENDULUM, "10959745.83346651"),
    (["foucault", "precession"], _FAR_PENDULUM, "10959745.83346651"),
    (["transport"], {"latitude": 0.8526, "initial": [0, 1, 0], "t0": 0, "t1": 1e20, "dt": 1e20},
     "38193709194.30788"),
    (["transport"], {"latitude": 0.8526, "initial": [0, 1, 0], "t0": 0, "t1": 1e300,
                     "dt": 1e300}, "38193709194.30788"),
], ids=["sim", "precession", "transport-1e20", "transport-1e300"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_step_that_turns_past_max_phase_is_a_config_error(tmp_path, capsys, fmt, words,
                                                            config, longest):
    # a step whose turn passes MAX_PHASE is refused before any row is written;
    # one step of 1e20 s turns the transported vector by 1.1e16 rad
    code, out, err = _run(tmp_path, capsys, ["--format", fmt, *words], config)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: step size dt={float(config['dt'])!r} turns the orbit "
                          "by more than MAX_PHASE = 2^22 rad")
    assert err.endswith(f"the longest step is {longest} s\n")


@pytest.mark.parametrize("words, config, row", [
    (["foucault", "sim"], _OVERFLOWING_PENDULUM, 199),
    (["transport"], _OVERFLOWING_TRANSPORT, 206),
    # past the first 1024-row block: each block is checked whole, and only a
    # block that fails is searched for its row, counted from the table's start
    (["foucault", "sim"], {**_OVERFLOWING_PENDULUM, "dt": 1e-3}, 1983),
    (["transport"], {**_OVERFLOWING_TRANSPORT, "dt": 1}, 2056),
], ids=["sim", "transport", "sim-past-block-0", "transport-past-block-0"])
def test_a_non_finite_csv_row_stops_the_output_with_exit_3(tmp_path, capsys, words, config,
                                                           row):
    # the rows before the first non-finite one are written, and the error names
    # that row; a NumPy warning would fail the test, as warnings are errors here
    code, out, err = _run(tmp_path, capsys, ["--format", "csv", *words], config)
    lines = out.splitlines()
    assert (code, len(lines)) == (3, row + 1)
    assert err == (f"numerical error: non-finite value in the {'-'.join(words)} result "
                   f"at row {row}\n")
    assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))


@pytest.mark.parametrize("words, config", [
    (["foucault", "sim"], _OVERFLOWING_PENDULUM),
    (["transport"], _OVERFLOWING_TRANSPORT),
], ids=["sim", "transport"])
@pytest.mark.parametrize("out", ["stdout", "file"])
def test_a_non_finite_json_table_writes_nothing(tmp_path, capsys, words, config, out):
    target = tmp_path / "table.json"
    argv = ["--format", "json", *words] if out == "stdout" else [
        "--out", str(target), "--format", "json", *words]
    code, stdout, err = _run(tmp_path, capsys, argv, config)
    assert (code, stdout) == (3, "")
    assert err == f"numerical error: non-finite value in the {'-'.join(words)} result\n"
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_overflowing_precession_window_is_a_numerical_error(tmp_path, capsys, fmt):
    # the first window's second moments overflow, so no plane angle exists
    config = {**_OVERFLOWING_PENDULUM, "initial": [0.1, 0, 1e200, 0], "duration": 200}
    code, out, err = _run(tmp_path, capsys, ["--format", fmt, "foucault", "precession"], config)
    assert (code, out) == (3, "")
    assert err == ("numerical error: the swing's second moments overflow in precession "
                   "window 0 (centre t = 16.415 s)\n")


def test_a_non_finite_precession_row_stops_the_csv_with_exit_3(tmp_path, capsys, monkeypatch):
    # measure_precession refuses overflowing windows, so the estimate is
    # damaged here to reach the writer's own check
    def damaged(orbit, window_seconds):
        estimate = measure(orbit, window_seconds)
        states = list(estimate.center_states)
        states[2] = (math.inf, *states[2][1:])
        return estimate._replace(center_states=tuple(states))

    measure = fc.measure_precession
    monkeypatch.setattr(fc, "measure_precession", damaged)
    config = {**_PARIS_RUN, "dt": 1e-2, "duration": 200.0}
    code, out, err = _run(tmp_path, capsys, ["foucault", "precession"], config)
    assert code == 3 and len(out.splitlines()) == 3
    assert err == "numerical error: non-finite value in the foucault-precession result at row 2\n"


def test_a_non_finite_surface_result_writes_nothing(tmp_path, capsys, monkeypatch):
    report = geometry.CurvatureReport(1.0, math.inf, 0.0, 0.0)
    monkeypatch.setattr(geometry, "shape_and_curvatures", lambda forms: report)
    target = tmp_path / "surface.json"
    code, out, err = _run(tmp_path, capsys, ["--out", str(target), "surface"],
                          {"levelset": "x^2+y^2+z^2", "points": [[0, 0, 1], [1, 0, 0]]})
    assert (code, out) == (3, "")
    assert err == "numerical error: non-finite value in the surface result\n"
    assert not target.exists()


def test_json_keys_sorted(tmp_path, capsys):
    config = {"theta": ["0", "0", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}
    _, out, _ = _run(tmp_path, capsys, ["classify"], config)
    doc = json.loads(out)
    assert list(doc) == sorted(doc)


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["pseudoform"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    capsys.readouterr()