"""pseudoform benchmark: real CLI calls on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field-sample --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each call runs as a fresh ``python -m pseudoform.cli``
process with ``src`` on the path, one call at a time from a single client
(a closed loop on one core), and the end-to-end metrics are reported.  The
run is pinned to one CPU, and every timed child's CPU time is scaled by the
speed a low-priority meter thread reads on that CPU while the child runs
(see ``SpeedMeter``), so the bounded times are in seconds of a core of the
reference speed.  With
``--trace 1`` the same calls are replayed in-process through
``pseudoform.cli.run``, alternating untraced and traced passes, and the
per-module metrics are reported.  Every output is checked in both modes.

Summary lines go to stdout first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
SETUP_REPEATS = 5  # fresh-interpreter imports per run; setup_s is their median
IMPORTTIME_REPEATS = 3  # -X importtime runs per traced run

METER_NICE = 10  # the meter takes about a tenth of the pinned CPU while a child runs
METER_RATE = 20000.0  # meter chunks per CPU second that define the reference speed

END_TO_END = {"setup_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

PER_LAYER = {
    "cli.run_s": "s", "cli.self_s": "s", "cli.output_bytes": "B", "cli.rows": "count",
    "formlang.parse_s": "s", "formlang.parse_calls": "count",
    "pfaff.points_s": "s", "pfaff.classify_s": "s", "pfaff.samples": "count",
    "pfaff.us_per_sample": "us",
    "calculus.components_at_calls": "count", "calculus.components_at_s": "s",
    "calculus.jacobian_calls": "count", "calculus.jacobian_s": "s",
    "calculus.exterior_derivative_s": "s",
    "autodiff.dual_allocs": "count", "autodiff.duals_per_sample": "count",
    "autodiff.duals_per_step": "count",
    "geometry.frame_calls": "count", "geometry.frame_s": "s",
    "geometry.connection_form_calls": "count", "geometry.fundamental_forms_s": "s",
    "geometry.curvatures_s": "s",
    "curves.integrate_geodesic_s": "s", "curves.steps": "count", "curves.rk4_step_us": "us",
    "curves.frame_calls_per_step": "count",
    "integrate.linear_rk4_orbit_s": "s", "integrate.orbit_steps": "count",
    "integrate.ns_per_step": "ns", "integrate.orbit_bytes": "B",
    "foucault.simulate_s": "s", "foucault.measure_precession_s": "s",
    "foucault.windows": "count", "foucault.transport_s": "s",
    "import.total_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "import.pseudoform_s": "s",
    "trace.overhead_frac": "ratio",
    "accuracy.precession_rel_err": "ratio", "accuracy.geodesic_closure_err": "radius",
    "accuracy.geodesic_offplane_err": "radius",
}

ACCURACY_UNITS = {name[len("accuracy."):]: unit for name, unit in PER_LAYER.items()
                  if name.startswith("accuracy.")}


class Ledger:
    """Checks every call's output and counts attempts and failures.

    A call fails on a non-zero exit code, on an output its check rejects, or
    on output bytes that differ from an earlier call with the same name and
    seed in this run.  Outputs are hashed and checked outside the timed
    interval; a check result is reused for identical bytes.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.readings = {}
        self._hashes = {}
        self._verdicts = {}

    def record(self, call, code, out_path):
        """Judge one finished call; returns its output bytes, or None."""
        self.attempted += 1
        data = None
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            data = out_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self._hashes.setdefault(call.name, digest) != digest:
                raise CheckError("output bytes differ from an earlier pass with this seed")
            if digest not in self._verdicts:
                try:
                    self._verdicts[digest] = call.check(data)
                except (CheckError, ValueError, KeyError, TypeError, IndexError) as err:
                    self._verdicts[digest] = CheckError(f"{type(err).__name__}: {err}")
            verdict = self._verdicts[digest]
            if isinstance(verdict, CheckError):
                raise verdict
            self.readings[call.name] = verdict
        except (CheckError, OSError) as err:
            self.failed += 1
            print(f"perfbench: {call.name} failed: {err}", file=sys.stderr)
        return data

    def accuracy(self):
        """Worst reading of each accuracy quantity over the checked outputs."""
        worst = {}
        for reading in self.readings.values():
            for key, value in reading.items():
                worst[key] = max(worst.get(key, 0.0), value)
        return worst


class Workdir:
    """Config files, outputs and logs of one run, inside the checkout."""

    def __init__(self, workload, seed, trace, calls):
        self.path = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        for call in calls:
            (self.path / f"{call.name}.json").write_text(json.dumps(call.config))

    def argv(self, call):
        config = self.path / f"{call.name}.json"
        return ["--config", str(config), "--out", str(self.out(call)), "--seed", str(self.seed),
                *call.args]

    def out(self, call):
        return self.path / f"{call.name}.out"

    def log(self, name):
        return self.path / f"{name}.log"


def _meter_chunk(eye=np.eye(3)):
    """A fixed slice of interpreter work: float arithmetic, small NumPy, formatting."""
    a, b, m = 1.0, 0.0, eye
    for i in range(300):
        a, b = a * 0.999 + 0.5, b * 0.999 + a
        if i % 50 == 0:
            m = m @ m
            a = math.sin(a) + len("%.17g" % b)
    return a + m[0, 0]


class SpeedMeter(threading.Thread):
    """Reads how fast the pinned CPU runs while a child runs on it.

    The CPU's speed on a shared host swings by up to twice within seconds
    and drifts over minutes, as other tenants load the physical core, and
    a child's own CPU time swings with it.  This thread repeats
    ``_meter_chunk`` at nice ``METER_NICE`` on the same CPU as the child, so
    the scheduler interleaves the two in slices of a few milliseconds and
    both see the same slow-downs.  ``scale`` turns the child's CPU seconds
    into seconds at the reference speed of ``METER_RATE`` chunks per CPU
    second: the chunks the meter finished per CPU second of its own over
    that interval, divided by ``METER_RATE``.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self._active = threading.Event()
        self._chunks = 0

    def run(self):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), METER_NICE)
        while True:
            self._active.wait()
            _meter_chunk()
            self._chunks += 1

    def _reading(self):
        return self._chunks, time.clock_gettime(time.pthread_getcpuclockid(self.ident))

    def __enter__(self):
        self._start = self._reading()
        self._active.set()
        return self

    def __exit__(self, exc_type, *_):
        end = self._reading()
        self._active.clear()
        if exc_type is not None:
            return
        chunks, seconds = end[0] - self._start[0], end[1] - self._start[1]
        if chunks < 20:
            raise RuntimeError(f"speed meter ran only {chunks} chunks in {seconds:.3g} CPU s")
        self.scale = chunks / seconds / METER_RATE


def pin_to_one_cpu():
    """Pin this thread, the threads it starts and its children to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log, meter):
    """Run one child to completion under the speed meter.

    Returns (wall seconds, CPU seconds at the reference speed, peak RSS in
    MB, exit code).
    """
    with open(log, "wb") as err, meter:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = (usage.ru_utime + usage.ru_stime) * meter.scale
    return elapsed, cpu_s, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(work, meter):
    """Median CPU time, at the reference speed, of a fresh ``import pseudoform.cli``."""
    times = []
    for k in range(SETUP_REPEATS):
        log = work.log(f"setup{k}")
        _, cpu_s, _, code = spawn([sys.executable, "-c", "import pseudoform.cli"], log, meter)
        if code != 0:
            sys.exit(f"perfbench: importing pseudoform.cli failed:\n{log.read_text()}")
        times.append(cpu_s)
    return statistics.median(times)


def untraced(calls, work, ledger, seconds):
    """Closed loop over fresh CLI processes; returns (metrics, info, passes)."""
    meter = SpeedMeter()
    meter.start()
    setup_s = measure_setup(work, meter)
    walls = {call.name: [] for call in calls}
    cpus = {call.name: [] for call in calls}
    scales, peaks = [], []
    start = time.perf_counter()
    while not peaks or time.perf_counter() - start < seconds:
        peak = 0.0
        for call in calls:
            work.out(call).unlink(missing_ok=True)
            argv = [sys.executable, "-m", "pseudoform.cli", *work.argv(call)]
            elapsed, cpu_s, rss, code = spawn(argv, work.log(call.name), meter)
            walls[call.name].append(elapsed)
            cpus[call.name].append(cpu_s)
            scales.append(meter.scale)
            peak = max(peak, rss)
            ledger.record(call, code, work.out(call))
        peaks.append(peak)
    call_s = {name: statistics.median(t) for name, t in cpus.items()}
    pass_cpu_s = sum(call_s.values())
    metrics = {
        "setup_s": setup_s,
        "pass_cpu_s": pass_cpu_s,
        "peak_rss_mb": statistics.median(peaks),
        "work_per_s": sum(call.work for call in calls) / pass_cpu_s,
    }
    info = {}
    for call in calls:
        done, spent = info.get(call.rate, (0, 0.0))
        info[call.rate] = (done + call.work, spent + call_s[call.name])
    info = {rate: (done / spent, "1/s") for rate, (done, spent) in info.items()}
    info.update({f"{name}_cpu_s": (t, "s") for name, t in call_s.items()})
    info["wall_s"] = (sum(statistics.median(t) for t in walls.values()), "s")
    info["meter_scale"] = (statistics.median(scales), "ratio")
    return metrics, info, len(peaks)


def import_metrics(work):
    """Median import-time breakdown of a fresh ``import pseudoform.cli``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pseudoform.cli"],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: importing pseudoform.cli failed:\n{proc.stderr}")
        runs.append(spans.import_breakdown(proc.stderr))
    return spans.median_metrics(runs)


def traced(calls, work, ledger, seconds, spans_path):
    """In-process replay, alternating untraced and traced passes."""
    sys.path.insert(0, str(SRC))
    import pseudoform.cli as cli

    imports = import_metrics(work)

    def run_pass(recorder=None):
        elapsed, nbytes, rows = 0.0, 0, 0
        for call in calls:
            work.out(call).unlink(missing_ok=True)
            if recorder is not None:
                recorder.call_id += 1
            start = time.perf_counter()
            try:
                code = cli.run(work.argv(call))
            except Exception:  # a crash fails this call, as it would a CLI process
                traceback.print_exc()
                code = 1
            elapsed += time.perf_counter() - start
            data = ledger.record(call, code, work.out(call))
            if data is not None:
                nbytes += len(data)
                rows += 0 if data.startswith(b"{") else data.count(b"\n") - 1
        return elapsed, nbytes, rows

    def traced_pass():
        recorder = spans.Recorder()
        recorder.install()
        try:
            elapsed, nbytes, rows = run_pass(recorder)
        finally:
            recorder.restore()
        walls.append(elapsed)
        passes.append(spans.layer_metrics(recorder.spans, recorder.duals, nbytes, rows))
        return recorder

    start = time.perf_counter()
    run_pass()  # warm-up: first-call caches and lazily built objects
    plain, walls, passes = [], [], []
    while not passes or time.perf_counter() - start < seconds:
        # alternate which side goes first, so an order effect cancels out
        if len(passes) % 2:
            recorder = traced_pass()
            plain.append(run_pass()[0])
        else:
            plain.append(run_pass()[0])
            recorder = traced_pass()
    recorder.write(spans_path)
    metrics = spans.median_metrics(passes)
    metrics.update(imports)
    metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    return metrics, len(passes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pseudoform" / "cli.py").is_file():
        sys.exit(f"perfbench: no pseudoform sources under {SRC}")

    # a terminated run unwinds like an interrupted one, so spawn() kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    calls = WORKLOADS[args.workload](args.seed)
    work = Workdir(args.workload, args.seed, args.trace, calls)
    ledger = Ledger()
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, passes = traced(calls, work, ledger, args.seconds, spans_path)
            accuracy = ledger.accuracy()
            values.update({f"accuracy.{key}": accuracy.get(key, 0.0) for key in ACCURACY_UNITS})
            units, info = PER_LAYER, {}
        else:
            values, info, passes = untraced(calls, work, ledger, args.seconds)
            units = END_TO_END
            info["failed_frac"] = (ledger.failed / ledger.attempted, "ratio")
            accuracy = ledger.accuracy()
            info.update({key: (value, ACCURACY_UNITS[key]) for key, value in accuracy.items()})
    finally:
        shutil.rmtree(work.path, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"attempted={ledger.attempted} failed={ledger.failed}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"  {name:34s} {value:.6g} {unit}  (not compared)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
