"""Integrability classification of Pfaff equations."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pseudoform
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
