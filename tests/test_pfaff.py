"""Integrability classification of Pfaff equations."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pfaff_reference
import pseudoform
from pseudoform.calculus import OneForm
from pseudoform.errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError
from pseudoform.formlang import parse_oneform
from pseudoform.pfaff import (
    NormalForm,
    RegionSampler,
    classify,
    constraint_residual,
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


def test_region_sampler_seeded_determinism():
    a = RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=7).points()
    b = RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=7).points()
    c = RegionSampler((0, 0, 0), (1, 1, 1), count=500, seed=8).points()
    assert a.tobytes() == b.tobytes()
    assert not np.any(np.all(a == c, axis=1))


def test_region_sampler_reference_points():
    # scipy.stats.qmc.Halton(d=3, scramble=True, seed=0).random(3), SciPy 1.17
    got = RegionSampler((0, 0, 0), (1, 1, 1), count=3, seed=0).points()
    expected = [
        [0.0991217798843752, 0.05391376185363979, 0.30077622909743845],
        [0.5991217798843752, 0.7205804285203065, 0.7007762290974384],
        [0.3491217798843752, 0.38724709518697303, 0.1007762290974384],
    ]
    assert got.tolist() == expected


def test_region_sampler_points_inside_box():
    lo, hi = np.array([-2.0, 0.5, 10.0]), np.array([-1.5, 3.0, 10.25])
    for seed in (0, 1, 2**64 - 1):
        pts = RegionSampler(tuple(lo), tuple(hi), count=2000, seed=seed).points()
        assert pts.shape == (2000, 3)
        assert np.all(pts >= lo) and np.all(pts <= hi)


@pytest.mark.parametrize("seed", [0, 3, 401])
def test_region_sampler_halton_stratification(seed):
    # Scrambling permutes the digits at each position, so the first b^k
    # points of the base-b axis still fill the b^k cells of width b^-k.
    for axis, base in enumerate((2, 3, 5)):
        for k in (1, 2, 3):
            n = base**k
            unit = RegionSampler((0, 0, 0), (1, 1, 1), count=n, seed=seed).points()[:, axis]
            cells = np.floor(unit * n).astype(int)
            assert sorted(cells.tolist()) == list(range(n))


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(pseudoform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import pseudoform.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class _Path:
    def __init__(self, points, velocities):
        self.points = points
        self.velocities = velocities


def test_constraint_residual_spiral():
    s = np.linspace(0, 4 * np.pi, 200)
    pts = np.column_stack([np.cos(s), np.sin(s), np.ones_like(s)])
    vel = np.column_stack([-np.sin(s), np.cos(s), np.zeros_like(s)])
    theta = parse_oneform(["0", "0", "1"])
    assert constraint_residual(theta, _Path(pts, vel)) < 1e-14


def test_constraint_residual_rejects_non_finite_components():
    # every sample but x = 0 has an infinite third component
    x = np.linspace(0.0, 1.0, 11)
    pts = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    vel = np.tile([0.0, 1.0, 0.5], (len(x), 1))
    theta = parse_oneform(["0", "0", "1 + x*1e300*1e300"])
    # the dual gradient overflows first; the finite check on the evaluated
    # components is what must report it, without a NumPy warning
    with pytest.raises(EvaluationDomainError, match="non-finite"):
        constraint_residual(theta, _Path(pts, vel))


def test_constraint_residual_axis_integral_curve():
    s = np.linspace(-1, 1, 50)
    pts = np.column_stack([s, np.zeros_like(s), np.zeros_like(s)])
    vel = np.column_stack([np.ones_like(s), np.zeros_like(s), np.zeros_like(s)])
    theta = parse_oneform(["0", "x", "1"])
    assert constraint_residual(theta, _Path(pts, vel)) < 1e-14


def test_constraint_residual_transverse():
    s = np.linspace(0, 1, 10)
    pts = np.column_stack([np.zeros_like(s), np.zeros_like(s), s])
    vel = np.column_stack([np.zeros_like(s), np.zeros_like(s), np.ones_like(s)])
    theta = parse_oneform(["0", "0", "1"])
    assert np.isclose(constraint_residual(theta, _Path(pts, vel)), 1.0)


def test_constraint_residual_needs_samples():
    theta = parse_oneform(["0", "0", "1"])
    with pytest.raises(ValidationError):
        constraint_residual(theta, _Path(np.zeros((1, 3)), np.ones((1, 3))))


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
    curve = SimpleNamespace(points=[p, p], velocities=[(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    assert constraint_residual(theta, curve) == 1.0


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
        return np.array((0.0, p[0], 1.0))

    def values_and_jacobian(self, p):
        return (0.0, p[0], 1.0), ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_classify_peak_memory_is_that_of_its_points():
    # Building the points peaks at about 76 bytes a sample (15 MB at this count), and
    # the array classify peaked there too; a list of all points as floats or
    # per-sample lists would add 20 MB or more
    region = RegionSampler((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), count=2 * 10**5, seed=1)
    tracemalloc.start()
    try:
        region.points()
        points_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        result = classify(_Contact(), region)
        classify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.kind is NormalForm.NON_INTEGRABLE
    assert classify_peak <= points_peak + 64 * 1024
