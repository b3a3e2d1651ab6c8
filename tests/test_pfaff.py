"""Integrability classification of Pfaff equations."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pfaff_reference
import pseudoform
from pseudoform.calculus import OneForm, gradient_oneform
from pseudoform.errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.pfaff import (
    NormalForm,
    RegionSampler,
    classify,
    frobenius_coefficient,
)

BOX = RegionSampler((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), count=100, seed=0)


def test_frobenius_of_closed_form_is_zero():
    theta = parse_oneform(["0", "0", "1"])
    for p in BOX.points()[:20]:
        assert abs(frobenius_coefficient(theta, p)) < 1e-14


def test_frobenius_of_contact_form_is_one():
    theta = parse_oneform(["0", "x", "1"])
    for p in BOX.points()[:20]:
        assert np.isclose(frobenius_coefficient(theta, p), 1.0, atol=1e-12)


def test_frobenius_foucault_constant():
    rate = 2 * 7.292e-5 * math.sin(math.radians(45))
    theta = parse_oneform(
        [f"0*t", f"-sin({rate}*t)", f"cos({rate}*t)"], chart="spacetime"
    )
    sampler = RegionSampler((0.0, -1.0, -1.0), (1000.0, 1.0, 1.0), count=20, seed=3)
    vals = [frobenius_coefficient(theta, p) for p in sampler.points()]
    assert np.allclose(np.abs(vals), rate, rtol=1e-12)
    assert np.ptp(vals) < 1e-12  # constant in (t, x, y)


def test_degenerate_pfaffian_error():
    theta = parse_oneform(["x", "y", "z"])
    with pytest.raises(DegeneratePfaffianError):
        frobenius_coefficient(theta, (0.0, 0.0, 0.0))


def test_classify_closed():
    verdict = classify(parse_oneform(["0", "0", "1"]), BOX)
    assert verdict.kind is NormalForm.CLOSED


def test_classify_integrating_factor():
    region = RegionSampler((-1.0, 0.5, -1.0), (1.0, 1.5, 1.0), count=100, seed=0)
    verdict = classify(parse_oneform(["y", "0", "0"]), region)
    assert verdict.kind is NormalForm.INTEGRATING_FACTOR
    assert verdict.max_dtheta > 1e-8
    assert verdict.max_frobenius <= 1e-8


def test_classify_non_integrable():
    verdict = classify(parse_oneform(["0", "x", "1"]), BOX)
    assert verdict.kind is NormalForm.NON_INTEGRABLE
    assert np.isclose(verdict.max_frobenius_raw, 1.0, atol=1e-9)


def test_classify_scaling_invariance():
    for c in (3.0, -0.25, 1e4):
        theta = parse_oneform([f"{c}*y", "0", "0"])
        region = RegionSampler((-1.0, 0.5, -1.0), (1.0, 1.5, 1.0), count=50, seed=1)
        assert classify(theta, region).kind is NormalForm.INTEGRATING_FACTOR


def test_classify_exact_forms_are_closed():
    for texts in (["2*x", "2*y", "2*z"], ["y*z", "x*z", "x*y"]):
        region = RegionSampler((0.5, 0.5, 0.5), (1.5, 1.5, 1.5), count=50, seed=2)
        assert classify(parse_oneform(texts), region).kind is NormalForm.CLOSED


def test_classify_lambda_dmu_never_non_integrable():
    # lambda = exp(x) > 0, mu = z
    theta = parse_oneform(["0", "0", "exp(x)"])
    verdict = classify(theta, BOX)
    assert verdict.kind in (NormalForm.CLOSED, NormalForm.INTEGRATING_FACTOR)
    assert verdict.kind is NormalForm.INTEGRATING_FACTOR


def test_classify_degenerate_sample_error():
    with pytest.raises(DegeneratePfaffianError):
        classify(parse_oneform(["0", "0", "0"]), BOX)


def test_classify_deterministic():
    a = classify(parse_oneform(["0", "x", "1"]), BOX)
    b = classify(parse_oneform(["0", "x", "1"]), BOX)
    assert a.kind is b.kind
    assert a.max_dtheta == b.max_dtheta
    assert a.max_frobenius == b.max_frobenius
    assert a.max_frobenius_raw == b.max_frobenius_raw


def test_region_sampler_validation():
    with pytest.raises(ValidationError):
        RegionSampler((0, 0, 0), (0, 1, 1))
    with pytest.raises(ValidationError):
        RegionSampler((0, 0, 0), (1, 1, 1), count=0)


@pytest.mark.parametrize(
    "bound", [("a", 0, 0), (None, 0, 0), (1j, 0, 0), ([0, 1], 0, 0), "abc"],
    ids=["string", "none", "complex", "nested", "whole-string"])
def test_bounds_and_points_that_are_not_real_numbers_are_refused(bound):
    with pytest.raises(ValidationError, match="lower region bound must be 3 finite real numbers"):
        RegionSampler(bound, (1, 1, 1))
    with pytest.raises(ValidationError, match="chart point must be 3 finite real numbers"):
        frobenius_coefficient(parse_oneform(["0", "x", "1"]), bound)


def test_region_sampler_seeded_determinism():
    a = np.array(RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=7).points())
    b = np.array(RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=7).points())
    c = np.array(RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=8).points())
    assert a.tobytes() == b.tobytes()
    assert not np.any(np.all(a == c, axis=1))


def test_region_sampler_reference_points():
    # the same bytes on every Python: three points by value, and a digest of
    # 2500 that cross every axis's tabulated span many times
    got = RegionSampler((0, 0, 0), (1, 1, 1), count=2500, seed=0).points()
    expected = [
        [0.9574043918304858, 0.3683589730966486, 0.39551773915378957],
        [0.45740439183048576, 0.03502563976331526, 0.5955177391537896],
        [0.7074043918304858, 0.7016923064299819, 0.19551773915378956],
    ]
    assert [list(p) for p in got[:3]] == expected
    digest = hashlib.sha256(struct.pack("<7500d", *(c for p in got for c in p))).hexdigest()
    assert digest == "f0c0c8598bf71dc50c6cdd4560dff9849d6d2284563efcd22ef70f7eb8c4e510"


TWIN_SEEDS = [*range(300), 2**64 - 1, 2**70 + 3]
EDGE_SEEDS = (5, 2**64 - 1)


@pytest.mark.parametrize("count", [1, 7, 124, 125, 126, 242, 243, 244, 255, 256, 257, 513, 2500])
def test_region_sampler_points_equal_the_array_reference(count):
    # the base-5, base-3 and base-2 spans are 125, 243 and 256, and iteration
    # computes chunks of 256 points
    lower, upper = (-2.0, 0.5, 10.0), (-1.5, 3.0, 10.25)
    for seed in TWIN_SEEDS if count in (1, 7, 2500) else EDGE_SEEDS:
        region = RegionSampler(lower, upper, count=count, seed=seed)
        got = np.array(region.points())
        assert got.tobytes() == pfaff_reference.points(region).tobytes(), seed
    for seed in EDGE_SEEDS:  # items, negative items and slices read the same points
        region = RegionSampler(lower, upper, count=count, seed=seed)
        points, want = region.points(), [tuple(p) for p in pfaff_reference.points(region).tolist()]
        assert list(points) == want
        assert [points[k] for k in range(count)] == want
        assert [points[k] for k in range(-count, 0)] == want
        for start in (None, 0, 3, 120, 250, -7):
            for stop in (None, 130, 260, -2):
                for step in (None, 1, 2, 3, 7, 250, -1, -3):
                    cut = slice(start, stop, step)
                    assert points[cut] == want[cut], (seed, cut)


def test_region_sampler_points_past_two_to_the_sixteen_equal_the_array_reference():
    # indices past 2**16, 3**10 and 5**6 carry digits at positions that no
    # count above reaches; the slice crosses 2**16
    lower, upper = (-2.0, 0.5, 10.0), (-1.5, 3.0, 10.25)
    for seed in EDGE_SEEDS:
        region = RegionSampler(lower, upper, count=70_000, seed=seed)
        points, want = region.points(), pfaff_reference.points(region)
        assert np.array(points).tobytes() == want.tobytes(), seed
        assert points[65530:65540] == [tuple(p) for p in want[65530:65540].tolist()], seed


def test_region_sampler_points_are_a_sized_sequence():
    points = RegionSampler((0, 0, 0), (1, 1, 1), count=10, seed=4).points()
    every = list(points)
    assert len(points) == 10 and len(every) == 10
    assert [points[k] for k in range(10)] == every and points[-1] == every[9]
    assert points[2:5] == every[2:5]
    assert all(type(p) is tuple and all(type(c) is float for c in p) for p in every)
    with pytest.raises(IndexError):
        points[10]


def test_region_sampler_points_inside_box():
    lo, hi = np.array([-2.0, 0.5, 10.0]), np.array([-1.5, 3.0, 10.25])
    for seed in (0, 1, 2**64 - 1):
        pts = np.array(RegionSampler(tuple(lo), tuple(hi), count=2000, seed=seed).points())
        assert pts.shape == (2000, 3)
        assert np.all(pts >= lo) and np.all(pts <= hi)


@pytest.mark.parametrize("seed", [0, 3, 401])
def test_region_sampler_halton_stratification(seed):
    # Scrambling permutes the digits at each position, so the first b^k
    # points of the base-b axis still fill the b^k cells of width b^-k.
    for axis, base in enumerate((2, 3, 5)):
        for k in (1, 2, 3):
            n = base**k
            points = RegionSampler((0, 0, 0), (1, 1, 1), count=n, seed=seed).points()
            cells = np.floor(np.array(points)[:, axis] * n).astype(int)
            assert sorted(cells.tolist()) == list(range(n))


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(pseudoform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import pseudoform.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_FLOAT_CONFIGS = {
    "geodesic": {"levelset": "x^2+y^2+z^2", "point": [1, 0, 0], "nu": [0.6, 0.8],
                 "ds": 0.01, "steps": 50},
    "classify": {"theta": ["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"],
                 "lower": [0.2, 0.5, 0.2], "upper": [1, 1.5, 1], "count": 50},
    "levelset": {"levelset": "x^2+y^2+z^2", "points": [[0.6, 0.8, 0.0], [0, 0, 1]]},
    "pfaffian": {"pfaffian": ["0", "x", "1"], "chart": "spacetime", "metric": "minkowski",
                 "points": [[0.1, 0.2, 0.3]]},
    "precession": {"latitude": 0.8526, "initial": [0.1, 0, 0, 0], "dt": 1e-3,
                   "duration": 1800},
    "geometry": {"latitude": 0.8526},
    "galilean": {"latitude": 0.8526, "metric": "galilean"},
}
# (config, format, command words) of each float call
_FLOAT_CALLS = [("classify", "json", "classify"), ("levelset", "json", "surface"),
                ("pfaffian", "json", "surface"), ("geodesic", "csv", "geodesic"),
                ("geodesic", "json", "geodesic"), ("precession", "csv", "foucault precession"),
                ("precession", "json", "foucault precession"),
                ("geometry", "json", "foucault geometry"), ("galilean", "json", "foucault geometry")]


def _loaded_by_float_calls(tmp_path, module):
    """Run ``import pseudoform.cli`` and then every float call in one fresh
    interpreter; its stdout says whether ``module`` was loaded after the
    import, then gives each call's exit code and whether it was loaded after it."""
    src = str(Path(pseudoform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for name, config in _FLOAT_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    script = (
        "import sys\n"
        "from pseudoform import cli\n"
        f"seen = [{module!r} in sys.modules]\n"
        f"for name, fmt, command in {_FLOAT_CALLS!r}:\n"
        "    config, out = f'{sys.argv[1]}/{name}.json', f'{sys.argv[1]}/out-{name}.{fmt}'\n"
        "    code = cli.run(['--config', config, '--out', out, '--format', fmt, *command.split()])\n"
        f"    seen += [code, {module!r} in sys.modules]\n"
        "print(*seen)\n"
    )
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True)


def test_cli_import_and_geodesic_leave_numpy_unloaded(tmp_path):
    # classify, surface, the geodesic, the precession and foucault geometry run on
    # floats from their config to their JSON or CSV, so neither the import nor a call
    # loads NumPy
    proc = _loaded_by_float_calls(tmp_path, "numpy")
    assert (proc.stdout, proc.stderr) == ("False" + " 0 False" * len(_FLOAT_CALLS) + "\n", "")
    assert (tmp_path / "out-geodesic.csv").read_text().count("\n") == 52
    assert json.loads((tmp_path / "out-geodesic.json").read_text())["result"]["aborted"] is False
    assert json.loads((tmp_path / "out-classify.json").read_text())["result"]["class"] == (
        "non_integrable")
    assert len(json.loads((tmp_path / "out-levelset.json").read_text())["result"]) == 2
    assert len(json.loads((tmp_path / "out-pfaffian.json").read_text())["result"]) == 1
    assert (tmp_path / "out-precession.csv").read_text().count("\n") == 55
    assert len(json.loads((tmp_path / "out-precession.json").read_text())["result"]["angles"]) == 54
    assert json.loads((tmp_path / "out-geometry.json").read_text())["result"]["curvatures"]
    assert json.loads((tmp_path / "out-galilean.json").read_text())["result"]["curvatures"] is None


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_import_and_float_calls_leave_dataclasses_and_inspect_unloaded(tmp_path, module):
    # the result records are named tuples, so no call pays for dataclasses,
    # or for inspect, which it imports
    proc = _loaded_by_float_calls(tmp_path, module)
    assert (proc.stdout, proc.stderr) == ("False" + " 0 False" * len(_FLOAT_CALLS) + "\n", "")


def test_cli_import_and_float_calls_leave_the_table_writer_unloaded(tmp_path):
    # only the foucault sim and transport tables are written by csvtext
    proc = _loaded_by_float_calls(tmp_path, "pseudoform.csvtext")
    assert (proc.stdout, proc.stderr) == ("False" + " 0 False" * len(_FLOAT_CALLS) + "\n", "")


def test_classify_normalizes_huge_finite_forms():
    # |theta| = exp(1000 x) up to 1e304: the norms and the Frobenius
    # normalization stay finite, and no NumPy warning is raised
    theta = parse_oneform(["0", "0", "exp(x*1000)"])
    region = RegionSampler((0.1, 0.0, 0.0), (0.7, 1.0, 1.0), count=100, seed=0)
    result = classify(theta, region)
    assert result.kind is NormalForm.INTEGRATING_FACTOR
    assert abs(result.max_dtheta - 1000.0) <= 1e-12 * 1000.0
    p = (0.7, 0.5, 0.5)
    assert frobenius_coefficient(theta, p) == 0.0


def test_classify_huge_integrable_form_keeps_its_verdict():
    # theta . d theta = E (-400 E) + E (400 E) with E = exp(400 x) up to 5e173:
    # unnormalized, both products overflow and their sum is inf - inf = NaN;
    # the same form times exp(-300) gives the same verdict and coefficients,
    # and the per-point coefficient agrees with the verdict's
    region = RegionSampler((0.9, 0.5, 0.0), (1.0, 1.0, 1.0), count=16, seed=0)
    for scale in ("", "*exp(-300)"):
        theta = parse_oneform(["0", f"exp(400*x){scale}", f"exp(400*x){scale}"])
        result = classify(theta, region)
        assert result.kind is NormalForm.INTEGRATING_FACTOR
        assert result.max_frobenius == 0.0 and result.max_frobenius_raw == 0.0
        assert frobenius_coefficient(theta, (1.0, 0.7, 0.5)) == 0.0


def test_rescaling_keeps_the_verdict_only_above_the_degeneracy_tolerance():
    # the per-sample normalization makes the verdict scale-free while |theta| stays
    # above DEGENERACY_TOL = 1e-12, an absolute threshold: |theta| is about 1e-11
    # on the box at the first scale and about 1e-13 at the second
    region = RegionSampler((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), count=100, seed=0)
    unscaled = classify(parse_oneform(["0", "x", "1"]), region)
    scaled = classify(parse_oneform(["0", "1e-11*x", "1e-11"]), region)
    assert unscaled.kind is scaled.kind is NormalForm.NON_INTEGRABLE
    assert math.isclose(scaled.max_dtheta, unscaled.max_dtheta, rel_tol=1e-12)
    assert math.isclose(scaled.max_frobenius, unscaled.max_frobenius, rel_tol=1e-12)
    with pytest.raises(DegeneratePfaffianError, match="Pfaffian vanishes"):
        classify(parse_oneform(["0", "1e-13*x", "1e-13"]), region)


def test_frobenius_coefficient_evaluates_theta_once():
    theta = parse_oneform(["y", "x*z", "1"])
    calls = []
    theta.flat_jet = lambda p, jet=theta.flat_jet: calls.append(p) or jet(p)
    frobenius_coefficient(theta, (0.3, 0.2, 0.7))
    assert len(calls) == 1  # one call of the form's flat jet


# -- the float kernel against the array reference ---------------------------------

# the four field-sample benchmark forms, on the box and count that the
# benchmark derives from its seed
BENCHMARK_FORMS = [["0", "0", "1"], ["y", "0", "0"], ["0", "x", "1"],
                   ["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"]]


def _benchmark_region(seed):
    rng = np.random.default_rng([seed, 2])
    lower = (np.array([0.2, 0.5, 0.2]) + rng.uniform(-0.1, 0.1, 3)).tolist()
    upper = (np.array(lower) + [0.8, 1.0, 0.8]).tolist()
    return RegionSampler(tuple(lower), tuple(upper), count=2500, seed=seed)


def _bits(floats):
    """Floats as their IEEE bytes, so that -0.0 differs from 0.0."""
    return struct.pack(f"<{len(floats)}d", *floats)


@pytest.mark.parametrize("texts", BENCHMARK_FORMS,
                         ids=["closed", "factor", "contact", "transcendental"])
def test_flat_jet_equals_the_per_component_path_bit_for_bit(texts):
    # the jet written from the three trees at first order against each component's
    # own compiled function, at the points of the seed-1 benchmark run
    theta = parse_oneform(texts)
    for p in _benchmark_region(1).points():
        duals = [c.fn(*p) for c in theta.components]
        want = (*(d.v for d in duals), *(d.grad[i] for i in range(3) for d in duals))
        assert _bits(theta.flat_jet(p)) == _bits(want), p


def test_gradient_jet_is_the_fields_gradient_then_its_hessian_bit_for_bit():
    f = parse_scalar("x^2+y^2+z^2")
    df = gradient_oneform(f)
    for p in _benchmark_region(1).points():
        d = f.fn(*p)
        assert _bits(df.flat_jet(p)) == _bits(d.grad + d.hess), p


def _outcome(classify_fn, texts, region):
    """The verdict and the reprs of the maxima (bit-exact, NaN matching NaN), or the error."""
    theta = parse_oneform(texts)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the reference's array d theta
            r = classify_fn(theta, region)
    except Exception as err:  # the type and message are compared
        return type(err), str(err)
    return r.kind, repr(r.max_dtheta), repr(r.max_frobenius), repr(r.max_frobenius_raw)


@pytest.mark.parametrize("seed", [1, 401])
@pytest.mark.parametrize("texts", BENCHMARK_FORMS,
                         ids=["closed", "factor", "contact", "transcendental"])
def test_classify_matches_the_array_reference_on_the_benchmark_forms(texts, seed):
    region = _benchmark_region(seed)
    assert _outcome(classify, texts, region) == _outcome(pfaff_reference.classify, texts, region)


@pytest.mark.parametrize("texts, lower, upper, count", [
    (["0", "0", "exp(x*1000)"], (0.1, 0.0, 0.0), (0.7, 1.0, 1.0), 100),
    (["0", "exp(400*x)", "exp(400*x)"], (0.9, 0.5, 0.0), (1.0, 1.0, 1.0), 16),
    (["0", "exp(400*x)*exp(-300)", "exp(400*x)*exp(-300)"], (0.9, 0.5, 0.0), (1.0, 1.0, 1.0), 16),
    (["0", "x*exp(400*x)", "exp(400*x)"], (0.9, 0.5, 0.0), (1.0, 1.0, 1.0), 16),
    (["0", "0", "exp(x*1000)"], (0.1, 0.0, 0.0), (1.0, 1.0, 1.0), 100),
    (["0", "0", "1 + x*1e300*1e300"], (0.1, 0.0, 0.0), (1.0, 1.0, 1.0), 100),
    # d theta_1 = -1e308 - 1e308 x overflows for x > 0.8 only: the Frobenius
    # terms 0 * inf there are NaN, and finite samples follow that NaN wins over
    (["0", "1e308*z*x", "-1e308*y"], (0.1, 0.1, 0.1), (0.9, 0.9, 0.9), 50),
], ids=["huge", "huge-integrable", "huge-integrable-scaled", "raw-overflow", "overflow",
        "gradient-overflow", "dtheta-overflow"])
def test_classify_matches_the_array_reference_on_huge_and_overflowing_forms(
        texts, lower, upper, count):
    region = RegionSampler(lower, upper, count=count, seed=0)
    assert _outcome(classify, texts, region) == _outcome(pfaff_reference.classify, texts, region)


class _Contact(OneForm):
    """x dy + dz from plain functions, so that tracemalloc slows little besides classify."""

    def __init__(self):
        self.chart = "spatial"

    def components_at(self, p):
        return (0.0, p[0], 1.0)

    def values_and_jacobian(self, p):
        return (0.0, p[0], 1.0), ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _classify_peak(count):
    region = RegionSampler((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), count=count, seed=1)
    result, peak = _traced_peak(lambda: classify(_Contact(), region))
    assert result.kind is NormalForm.NON_INTEGRABLE
    return peak


def test_classify_peak_memory_does_not_grow_with_the_count():
    # the points are computed as classify reads them, so a hundred times the
    # samples takes no more memory; a list of all points at 2e4 samples holds
    # more than the margin, so holding the points would fail the first assert
    margin = 64 * 1024
    assert _classify_peak(2 * 10**4) <= _classify_peak(2 * 10**2) + margin
    region = RegionSampler((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), count=2 * 10**4, seed=1)
    assert _traced_peak(lambda: list(region.points()))[1] > margin
