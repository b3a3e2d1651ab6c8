"""Adapted frames, connection, fundamental forms, curvatures."""

import math

import numpy as np
import pytest

from pseudoform import foucault as fc
from pseudoform.calculus import gradient_oneform
from pseudoform.errors import (
    DegenerateMetricError,
    DegenerateNormalizationError,
    DegeneratePfaffianError,
    FramePfaffianMismatchError,
    ValidationError,
)
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.geometry import (
    EUCLIDEAN,
    GALILEAN,
    MINKOWSKI,
    AdaptedFrame,
    MetricKind,
    MetricSignature,
    PseudoSurface,
    adapt_frame,
    connection_form,
    fundamental_forms,
    second_form_via_connection,
    shape_and_curvatures,
    unit_normal,
)

RNG = np.random.default_rng(23)


# -- second routes, kept as test references -----------------------------------


def structure_functions(frame, p):
    """Commutator coefficients of the tangent legs at p.

    Returns (c_tangent[c, a, b], c_normal[a, b]); the normal part vanishes
    for all a, b iff the plane field is involutive at p (the Frobenius
    witness, a second route to theta ^ d theta).
    """
    x, dx = frame.matrix_and_derivative(p)
    # bracket[i, a, b] = e_a x^i_b - e_b x^i_a
    directional = np.einsum("na,nib->iab", x, dx)
    bracket = directional - directional.transpose(0, 2, 1)
    c_full = np.einsum("ic,iab->cab", x, bracket)
    return c_full[:2, :2, :2], c_full[2, :2, :2]


def second_form_via_frame(frame, p):
    """H_ab from frame derivatives: N_i e_(a x^i_b) (symmetrized)."""
    x, dx = frame.matrix_and_derivative(p)
    unit = x[:, 2]
    # directional[a, i, b] = e_a x^i_b
    directional = np.einsum("na,nib->aib", x[:, :2], dx[:, :, :2])
    h = 0.5 * np.einsum("i,aib->ab", unit, directional + directional.transpose(2, 1, 0))
    return 0.5 * (h + h.T)


def eigen_curvatures(ff):
    """(eigenvalues, K, mean) of g^-1 h by NumPy's general complex eigen-solver."""
    tangent = np.array(ff.legs).T
    g = tangent.T @ np.array(ff.metric.rows(normalized=True)) @ tangent
    mixed = np.linalg.solve(0.5 * (g + g.T), ff.h)
    return np.linalg.eigvals(mixed.astype(complex)), np.linalg.det(mixed), 0.5 * np.trace(mixed)


def test_metric_matrices():
    assert np.array_equal(EUCLIDEAN.rows(), np.eye(3))
    assert np.array_equal(EUCLIDEAN.rows(normalized=True), np.eye(3))
    assert np.array_equal(GALILEAN.rows(), np.diag([0.0, 1.0, 1.0]))
    assert np.array_equal(GALILEAN.rows(normalized=True), np.diag([0.0, 1.0, 1.0]))
    c = MINKOWSKI.light_speed
    assert np.array_equal(MINKOWSKI.rows(), np.diag([c**2, -1.0, -1.0]))
    assert np.array_equal(MINKOWSKI.rows(normalized=True), np.diag([1.0, -1.0, -1.0]))
    assert GALILEAN.degenerate and not EUCLIDEAN.degenerate


@pytest.mark.parametrize("light_speed", [1e200, 1e-200, 0.0, -3.0, math.inf, math.nan])
@pytest.mark.parametrize("kind", list(MetricKind))
def test_light_speed_needs_a_positive_finite_square(kind, light_speed):
    with pytest.raises(ValidationError, match="light_speed"):
        MetricSignature(kind, light_speed)


def numpy_fundamental_forms(surface, p):
    """(g, h, tangent) at p by the array code: a NumPy Gram-Schmidt frame and
    ``tangent.T @ M @ tangent`` products, symmetrized."""
    pfaffian, metric = surface.pfaffian, surface.metric
    u = np.array(unit_normal(pfaffian, metric, p)[0])
    if pfaffian.chart == "spacetime" and abs(u[0]) < 0.9:
        k = 0
    else:
        k = int(np.argmin(np.abs(u)))
    e1 = np.eye(3)[k] - u[k] * u
    e1 /= np.linalg.norm(e1)
    tangent = np.column_stack([e1, np.cross(u, e1)])
    if surface.levelset is not None:
        _, grad, hess = surface.levelset.differentiate(p)
        h = -(tangent.T @ np.array(hess) @ tangent) / np.linalg.norm(grad)
    else:
        du = np.array(unit_normal(pfaffian, metric, p)[1])
        h = -(tangent.T @ (0.5 * (du + du.T)) @ tangent)
    g = tangent.T @ np.array(metric.rows()) @ tangent
    return 0.5 * (g + g.T), 0.5 * (h + h.T), tangent


def _float_path_cases():
    rng = np.random.default_rng(59)
    directions = rng.normal(size=(200, 3))
    on_sphere = directions / np.linalg.norm(directions, axis=1)[:, None]
    in_box = rng.uniform(-1.0, 1.0, size=(200, 3))
    spacetime = np.column_stack([rng.uniform(0.0, 1e4, 200), rng.uniform(-1.0, 1.0, (200, 2))])
    for metric in (EUCLIDEAN, GALILEAN, MINKOWSKI):
        name = metric.kind.value
        yield pytest.param(PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2"), metric),
                           on_sphere, id=f"sphere-{name}")
        yield pytest.param(PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]), metric),
                           in_box, id=f"contact-{name}")
        yield pytest.param(PseudoSurface.from_pfaffian(fc.theta2_oneform(fc.FoucaultConfig(0.8527)),
                                                       metric), spacetime, id=f"theta2-{name}")


@pytest.mark.parametrize("surface, points", _float_path_cases())
def test_float_fundamental_forms_match_the_array_code(surface, points):
    for p in points:
        ff = surface.fundamental_forms(p)
        g, h, tangent = numpy_fundamental_forms(surface, p)
        # relative to the largest entry: under Minkowski on a spatial chart the
        # entries of g are sums of terms of size c^2 that cancel
        for ours, ref in ((ff.g, g), (ff.h, h), (np.array(ff.legs).T, tangent)):
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(ours - ref)) <= 1e-14 * scale, (p, ours, ref)


def test_canonical_completion_for_dz():
    frame = adapt_frame(parse_oneform(["0", "0", "1"]))
    assert np.allclose(frame.matrix_at((0.3, -0.5, 2.0)), np.eye(3))


def test_radial_normal_on_sphere():
    f = parse_scalar("x^2+y^2+z^2")
    frame = adapt_frame(gradient_oneform(f))
    x = frame.matrix_at((0.0, 0.0, 1.0))
    assert np.allclose(x[:, 2], [0.0, 0.0, 1.0])


def test_degenerate_pfaffian_rejected():
    frame = adapt_frame(parse_oneform(["x", "y", "z"]))
    with pytest.raises(DegeneratePfaffianError):
        frame.matrix_at((0.0, 0.0, 0.0))


def test_galilean_rejects_time_normal():
    theta = parse_oneform(["1", "0", "1"], chart="spacetime")
    frame = adapt_frame(theta, GALILEAN)
    with pytest.raises(DegenerateNormalizationError):
        frame.matrix_at((0.0, 0.0, 0.0))


def test_frame_duality_randomized():
    f = parse_scalar("x^2 + 2*y^2 + 3*z^2 + x*y")
    frame = adapt_frame(gradient_oneform(f))
    for _ in range(100):
        p = RNG.uniform(0.3, 1.5, size=3)
        x = frame.matrix_at(p)
        assert np.max(np.abs(x @ frame.inverse_at(p) - np.eye(3))) < 1e-12


def test_constant_frame_has_zero_connection():
    frame = adapt_frame(parse_oneform(["0", "0", "1"]))
    omega = connection_form(frame, (0.4, 0.2, -0.9))
    assert np.max(np.abs(omega)) < 1e-14


def test_connection_antisymmetry_randomized():
    f = parse_scalar("x^2 + 0.5*y^2 + 2*z^2 + 0.3*x*z")
    frame = adapt_frame(gradient_oneform(f))
    for _ in range(100):
        p = RNG.uniform(0.4, 1.2, size=3)
        omega = connection_form(frame, p)
        assert np.max(np.abs(omega + omega.transpose(1, 0, 2))) < 1e-10


def test_frame_derivative_matches_finite_differences():
    f = parse_scalar("x^2 + 2*y^2 + 3*z^2")
    frame = adapt_frame(gradient_oneform(f))
    p = np.array([0.7, 0.5, 0.9])
    _, dx = frame.matrix_and_derivative(p)
    h = 1e-6
    for n in range(3):
        e = np.zeros(3)
        e[n] = h
        fd = (frame.matrix_at(p + e) - frame.matrix_at(p - e)) / (2 * h)
        assert np.allclose(dx[n], fd, atol=1e-8)


def test_structure_functions_natural_frame():
    frame = adapt_frame(parse_oneform(["0", "0", "1"]))
    c_tan, c_norm = structure_functions(frame, (0.1, 0.2, 0.3))
    assert np.max(np.abs(c_tan)) < 1e-14
    assert np.max(np.abs(c_norm)) < 1e-14


def test_structure_functions_contact_form_witness():
    frame = adapt_frame(parse_oneform(["0", "x", "1"]))
    _, c_norm = structure_functions(frame, (0.5, 0.1, 0.2))
    # non-integrable => normal commutator component nonzero (Frobenius)
    assert np.max(np.abs(c_norm)) > 1e-3


def test_sphere_fundamental_forms():
    f = parse_scalar("x^2+y^2+z^2")
    surface = PseudoSurface.from_levelset(f)
    ff = surface.fundamental_forms((0.0, 0.0, 1.0))
    assert np.allclose(ff.g, np.eye(2), atol=1e-12)
    assert np.allclose(ff.h, -np.eye(2), atol=1e-10)
    report = shape_and_curvatures(ff)
    assert np.isclose(report.kappa1.real, -1.0, atol=1e-6)
    assert np.isclose(report.kappa2.real, -1.0, atol=1e-6)
    assert np.isclose(report.gaussian, 1.0, atol=1e-6)


def test_sphere_h_route_agreement():
    f = parse_scalar("x^2+y^2+z^2")
    surface = PseudoSurface.from_levelset(f)
    p = np.array([0.0, 0.0, 1.0])
    h_level = surface.fundamental_forms(p).h
    h_pfaff = fundamental_forms(surface.pfaffian, surface.frame, EUCLIDEAN, p).h
    h_frame = second_form_via_frame(surface.frame, p)
    h_conn = second_form_via_connection(surface.frame, p)
    assert np.allclose(h_level, h_pfaff, atol=1e-8)
    assert np.allclose(h_level, h_frame, atol=1e-8)
    assert np.allclose(h_level, h_conn, atol=1e-8)


def test_cylinder_curvatures():
    f = parse_scalar("x^2+y^2")
    surface = PseudoSurface.from_levelset(f)
    report = surface.curvature_report((2.0, 0.0, 0.0))
    assert abs(report.gaussian) < 1e-8
    assert np.isclose(abs(report.mean), 0.25, atol=1e-6)
    eigs = sorted([report.kappa1.real, report.kappa2.real])
    assert np.isclose(eigs[0], -0.5, atol=1e-6)
    assert np.isclose(eigs[1], 0.0, atol=1e-8)


def test_h_route_agreement_randomized_ellipsoids():
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        a, b, c = rng.uniform(0.5, 2.0, size=3).tolist()
        surface = PseudoSurface.from_levelset(parse_scalar(f"{a!r}*x*x + {b!r}*y*y + {c!r}*z*z"))
        p = rng.uniform(0.3, 1.0, size=3)
        h_level = surface.fundamental_forms(p).h
        h_pfaff = fundamental_forms(surface.pfaffian, surface.frame, EUCLIDEAN, p).h
        h_conn = second_form_via_connection(surface.frame, p)
        assert np.allclose(h_level, h_pfaff, atol=1e-8)
        assert np.allclose(h_level, h_conn, atol=1e-8)
        assert np.allclose(h_level, h_level.T)


def test_spacetime_levelset_frame_matches_its_pfaffian():
    level = PseudoSurface.from_levelset(parse_scalar("t+x+0.5*y^2", "spacetime"))
    pfaff = PseudoSurface.from_pfaffian(parse_oneform(["1", "1", "y"], "spacetime"))
    assert level.pfaffian.chart == "spacetime"
    for p in [(0.0, 0.0, 0.3), (1.2, -0.4, -2.0), (-0.7, 2.5, 1.1)]:
        assert np.allclose(level.frame.matrix_at(p), pfaff.frame.matrix_at(p), rtol=0, atol=1e-12)


def test_frame_pfaffian_mismatch_error():
    f = parse_scalar("x^2+y^2+z^2")
    frame = adapt_frame(gradient_oneform(f))
    other = parse_oneform(["0", "0", "1"])
    with pytest.raises(FramePfaffianMismatchError):
        fundamental_forms(other, frame, EUCLIDEAN, (0.3, 0.4, 0.8))


def test_galilean_degenerate_metric_error():
    theta = parse_oneform(["0", "0", "1"], chart="spacetime")
    frame = adapt_frame(theta, GALILEAN)
    ff = fundamental_forms(theta, frame, GALILEAN, (0.0, 0.0, 0.0))
    assert np.allclose(ff.g, np.diag([0.0, 1.0]))
    with pytest.raises(DegenerateMetricError) as err:
        shape_and_curvatures(ff)
    assert "g^ab" in str(err.value)


def test_curvature_eigenvalues_are_complex_valued():
    theta = parse_oneform(["0", "x", "1"])
    surface = PseudoSurface.from_pfaffian(theta, EUCLIDEAN)
    report = surface.curvature_report((0.2, 0.3, 0.1))
    assert isinstance(report.kappa1, complex)


def test_scaled_levelset_same_geometry():
    # H of the unit normal is scale-invariant in the defining function
    f1 = parse_scalar("x^2+y^2+z^2")
    f2 = parse_scalar("3*(x^2+y^2+z^2)")
    p = (0.2, 0.5, 0.9)
    h1 = PseudoSurface.from_levelset(f1).fundamental_forms(p).h
    h2 = PseudoSurface.from_levelset(f2).fundamental_forms(p).h
    assert np.allclose(h1, h2, atol=1e-10)


CONTACT = ["0", "x", "1"]


@pytest.mark.parametrize("surface, conjugate", [
    (PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2")), False),
    (PseudoSurface.from_levelset(parse_scalar("x^2+y^2")), False),
    (PseudoSurface.from_levelset(parse_scalar("x*y-z")), False),
    (PseudoSurface.from_pfaffian(parse_oneform(CONTACT), EUCLIDEAN), False),
    (PseudoSurface.from_pfaffian(parse_oneform(CONTACT), MINKOWSKI), True),
], ids=["sphere", "cylinder", "saddle", "euclidean-contact", "minkowski-contact"])
def test_closed_form_curvatures_match_the_eigen_reference(surface, conjugate):
    rng = np.random.default_rng(31)
    for p in rng.uniform(-1.0, 1.0, size=(100, 3)):
        ff = surface.fundamental_forms(p)
        report = shape_and_curvatures(ff)
        eigs, gaussian, mean = eigen_curvatures(ff)
        kappas = np.array([report.kappa1, report.kappa2])
        if conjugate:  # unordered: a conjugate pair has no order to compare
            assert report.kappa1.imag > 0 and np.all(eigs.imag != 0)
            kappas, eigs = kappas[np.argsort(kappas.imag)], eigs[np.argsort(eigs.imag)]
        else:  # ordered: a real pair (up to rounding at umbilics), kappa1 >= kappa2
            assert report.kappa1.real >= report.kappa2.real
            eigs = eigs[np.lexsort((eigs.imag, eigs.real))[::-1]]
        for ours, ref in [*zip(kappas, eigs), (report.gaussian, gaussian), (report.mean, mean)]:
            assert abs(ours - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("levelset", ["x^2+y^2+z^2", "x^2+y^2", "x*y-z"],
                         ids=["sphere", "cylinder", "saddle"])
def test_a_definite_metric_gives_real_curvatures(levelset):
    # g^-1 h is self-adjoint under a Euclidean g: rounding at an umbilic must
    # not turn the real double root into a conjugate pair
    surface = PseudoSurface.from_levelset(parse_scalar(levelset))
    for p in np.random.default_rng(31).uniform(-1.0, 1.0, size=(2000, 3)):
        report = surface.curvature_report(p)
        assert report.kappa1.imag == 0.0 and report.kappa2.imag == 0.0, (p, report)


def test_minkowski_kappa1_sign_survives_a_relative_nudge():
    # the conjugate pair +-ib: which root is kappa1 must not hang on rounding noise
    surface = PseudoSurface.from_pfaffian(parse_oneform(CONTACT), MINKOWSKI)
    points = np.random.default_rng(401).uniform(-1.0, 1.0, size=(500, 3))
    flips = [p for p in points
             if np.sign(surface.curvature_report(p).kappa1.imag)
             != np.sign(surface.curvature_report(p * (1.0 + 2.0**-50)).kappa1.imag)]
    assert len(flips) == 0, f"Im kappa1 changes sign at {len(flips)} of 500 points"


# -- curvatures do not depend on the seed axis that completes the frame


def _frame_seeded_on(pfaffian, metric, k):
    """The adapted frame with its tangent pair completed from chart axis k."""

    def pair_fn(p, need_derivative):
        assert not need_derivative
        u = np.array(unit_normal(pfaffian, metric, p)[0])
        e1 = np.eye(3)[k] - u[k] * u
        e1 /= np.linalg.norm(e1)
        return np.column_stack([e1, np.cross(u, e1), u]), None

    return AdaptedFrame(pair_fn)


def _seed_surfaces():
    rng = np.random.default_rng(41)
    directions = rng.normal(size=(500, 3))
    radii = rng.uniform(0.5, 2.0, size=(500, 1))
    off_origin = directions / np.linalg.norm(directions, axis=1)[:, None] * radii
    contact = PseudoSurface.from_pfaffian(parse_oneform(["0", "x", "1"]), MINKOWSKI)
    return {
        "sphere": (PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2")), off_origin),
        "ellipsoid": (PseudoSurface.from_levelset(parse_scalar("x^2+2*y^2+3*z^2")), off_origin),
        "contact-minkowski": (contact, rng.uniform(-1.0, 1.0, size=(500, 3))),
    }


def _curvatures(surface, p):
    report = surface.curvature_report(p)
    return report.gaussian, report.mean, report.kappa1, report.kappa2


@pytest.mark.parametrize("case", ["sphere", "ellipsoid", "contact-minkowski"])
def test_curvatures_do_not_depend_on_the_seed_axis(case):
    surface, points = _seed_surfaces()[case]
    pfaffian, metric = surface.pfaffian, surface.metric
    worst, frames = 0.0, 0
    for p in points:
        want = _curvatures(surface, p)
        # K relative to the largest principal curvature squared, the rest to
        # that curvature: the contact form's mean is 0 up to rounding
        kappa = max(abs(want[2]), abs(want[3]))
        scales = (kappa * kappa, kappa, kappa, kappa)
        u = unit_normal(pfaffian, metric, p)[0]
        # every axis the frame may seed from: its normal component is at most 0.9
        for k in [k for k in range(3) if abs(u[k]) <= 0.9]:
            frame = _frame_seeded_on(pfaffian, metric, k)
            got = _curvatures(PseudoSurface(pfaffian, frame, metric, surface.levelset), p)
            worst = max(worst, *(abs(a - b) / c for a, b, c in zip(got, want, scales)))
            frames += 1
    assert frames > 2 * len(points)  # most points admit more than one seed axis
    assert worst <= 1e-12
