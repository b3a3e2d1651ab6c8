"""Command-line interface: configs, formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from pseudoform import cli
from pseudoform import foucault as fc


def _run(tmp_path, capsys, argv, config=None):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + argv
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_csv_rows_match_per_value_format(tmp_path):
    rows = np.array(
        [
            [-0.0, 5e-324, 1e-310, 1e300, -1e300],
            [3.0, -7.0, 0.1, 1.0 / 3.0, 2.0**53],
            [math.inf, -math.inf, math.nan, 0.0, -5e-324],
        ]
    )
    out = tmp_path / "rows.csv"
    cli._write_csv(["a", "b", "c", "d", "e"], rows, str(out))
    lines = ["a,b,c,d,e"] + [",".join("%.17g" % v for v in row) for row in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("window", [60.0, 60.01])  # even and odd samples per window
def test_foucault_precession_csv_rows_match_full_scan(tmp_path, capsys, window):
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
    traj = fc.simulate_pendulum(pendulum, config["initial"], 0.01, 600.0)
    estimate = fc.measure_precession(traj, window_seconds=window)
    lines = ["t,x,y,vx,vy,plane_angle_rad"]
    for center, angle in zip(estimate.window_centers, estimate.angles):
        idx = int(np.argmin(np.abs(traj.times - center)))
        row = [center, *traj.states[idx], angle]
        lines.append(",".join("%.17g" % v for v in row))
    assert out == "\n".join(lines) + "\n"


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


# -- error handling ---------------------------------------------------------


def test_usage_errors(tmp_path, capsys):
    assert _run(tmp_path, capsys, [])[0] == 1
    assert _run(tmp_path, capsys, ["no-such-command"])[0] == 1
    assert _run(tmp_path, capsys, ["foucault"])[0] == 1
    assert _run(tmp_path, capsys, ["--seed", "-3", "classify"])[0] == 1


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


def test_galilean_surface_numerical_error(tmp_path, capsys):
    config = {
        "pfaffian": ["1", "0", "1"],
        "chart": "spacetime",
        "metric": "galilean",
        "points": [[0.0, 0.0, 0.0]],
    }
    code, _, err = _run(tmp_path, capsys, ["surface"], config)
    assert code == 3 and "numerical error" in err


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