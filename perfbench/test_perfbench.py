"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, CheckError


def _span(name, start, end, parent, duals=0, extra=None):
    return [name, start, end, parent, 1, duals, extra]


def test_self_time_subtracts_child_cover():
    tree = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("pfaff.classify", 1.0, 4.0, 0),
        _span("calculus.components_at", 2.0, 3.0, 1),
        _span("formlang.parse", 5.0, 6.0, 0),
        # a child reaching past its parent only counts inside the parent
        _span("pfaff.points", 9.5, 10.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 1.0, 1.0, 1.0])


def test_nested_spans_of_one_name_count_once():
    tree = [
        _span("cli.run", 0.0, 4.0, -1),
        _span("formlang.parse", 1.0, 3.0, 0),
        _span("formlang.parse", 1.5, 2.0, 1),
        _span("formlang.parse", 2.0, 2.5, 1),
    ]
    metrics = spans.layer_metrics(tree, duals=0, output_bytes=10, csv_rows=2)
    assert metrics["formlang.parse_calls"] == 1
    assert metrics["formlang.parse_s"] == pytest.approx(2.0)
    assert metrics["cli.self_s"] == pytest.approx(2.0)


def test_per_unit_counts_follow_their_spans():
    tree = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("curves.integrate_geodesic", 0.0, 8.0, 0, duals=500, extra={"steps": 10}),
        _span("geometry.frame", 1.0, 2.0, 1),
        _span("geometry.frame", 2.0, 3.0, 1),
        _span("geometry.frame", 9.0, 9.5, 0),  # outside the geodesic
    ]
    metrics = spans.layer_metrics(tree, duals=700, output_bytes=0, csv_rows=0)
    assert metrics["curves.steps"] == 10
    assert metrics["autodiff.duals_per_step"] == pytest.approx(50.0)
    assert metrics["curves.frame_calls_per_step"] == pytest.approx(0.2)
    assert metrics["geometry.frame_calls"] == 3
    assert metrics["pfaff.us_per_sample"] == 0.0


def test_recorder_wraps_the_program_and_restores_it(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from pseudoform import autodiff, cli, pfaff

    before = (cli.run, pfaff.classify, pfaff.RegionSampler.points, autodiff.Dual.__init__)
    config = tmp_path / "classify.json"
    config.write_text(json.dumps({"theta": ["0", "x", "1"], "lower": [0, 0, 0],
                                  "upper": [1, 1, 1], "count": 8}))
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.run(["--config", str(config), "--out", str(tmp_path / "out"), "classify"]) == 0
    finally:
        recorder.restore()
    assert (cli.run, pfaff.classify, pfaff.RegionSampler.points, autodiff.Dual.__init__) == before
    metrics = spans.layer_metrics(recorder.spans, recorder.duals, output_bytes=0, csv_rows=0)
    assert metrics["pfaff.samples"] == 8
    assert metrics["calculus.components_at_calls"] == 8
    assert metrics["formlang.parse_calls"] == 1
    assert metrics["autodiff.dual_allocs"] > 0
    assert 0.0 < metrics["cli.self_s"] < metrics["cli.run_s"]


def test_speed_meter_scales_child_cpu_time(tmp_path):
    meter = run.SpeedMeter()
    meter.start()
    argv = [sys.executable, "-c", "sum(range(3 * 10**7))"]
    wall_s, cpu_s, rss_mb, code = run.spawn(argv, tmp_path / "log", meter)
    assert code == 0 and rss_mb > 0 and wall_s > 0
    assert meter.scale > 0
    # the child's CPU seconds, scaled by the meter's reading of the CPU speed
    assert cpu_s > 0.1 * meter.scale


def test_import_breakdown_sums_self_time_by_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |       2000 |     numpy.core",
        "import time:       500 |       2500 |   numpy",
        "import time:      9000 |       9000 |       scipy.stats",
        "import time:        40 |      11540 |   pseudoform.pfaff",
    ])
    got = spans.import_breakdown(text)
    assert got["import.total_s"] == pytest.approx(0.01164)
    assert got["import.numpy_s"] == pytest.approx(0.0025)
    assert got["import.scipy_s"] == pytest.approx(0.009)
    assert got["import.pseudoform_s"] == pytest.approx(0.00004)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_generated_configs(workload):
    make = WORKLOADS[workload]
    first = [(c.name, c.args, json.dumps(c.config)) for c in make(7)]
    again = [(c.name, c.args, json.dumps(c.config)) for c in make(7)]
    other = [(c.name, c.args, json.dumps(c.config)) for c in make(8)]
    assert first == again
    assert first != other


def _classify_doc(kind, raw=1.0):
    result = {"class": kind, "max_dtheta": 1.0, "max_frobenius": 0.5, "max_frobenius_raw": raw}
    return json.dumps({"schema_version": 1, "result": result}).encode()


def _call(workload, name):
    return next(c for c in WORKLOADS[workload](0) if c.name == name)


def test_flipped_verdict_counts_as_failure(tmp_path):
    call = _call("field-sample", "classify-contact")
    out = tmp_path / "out"
    ledger = run.Ledger()
    out.write_bytes(_classify_doc("non_integrable"))
    ledger.record(call, 0, out)
    assert (ledger.attempted, ledger.failed) == (1, 0)

    flipped = run.Ledger()
    out.write_bytes(_classify_doc("integrating_factor"))
    flipped.record(call, 0, out)
    assert (flipped.attempted, flipped.failed) == (1, 1)

    with pytest.raises(CheckError):
        call.check(_classify_doc("non_integrable", raw=1.0 + 1e-6))


def test_exit_code_and_changed_bytes_count_as_failures(tmp_path):
    call = _call("field-sample", "classify-closed")
    out = tmp_path / "out"
    out.write_bytes(_classify_doc("closed"))
    ledger = run.Ledger()
    ledger.record(call, 0, out)
    ledger.record(call, 3, out)
    out.write_bytes(_classify_doc("closed", raw=0.0))  # right verdict, different bytes
    ledger.record(call, 0, out)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_corrupted_csv_fails_its_check():
    call = _call("geodesic-march", "geodesic-contact")
    rows = ["t,x,y,z,vx,vy,vz"] + ["0,0,0,0,1,0,0"] * 1001
    assert call.check(("\n".join(rows) + "\n").encode()) == {}
    for bad in (rows[:-1], rows[:1] + ["0,0,0,0,nan,0,0"] + rows[2:], ["t,x,y,z"] + rows[1:]):
        with pytest.raises(CheckError):
            call.check(("\n".join(bad) + "\n").encode())


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
