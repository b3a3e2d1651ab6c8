"""Fundamental forms and curvatures of classical level-set surfaces.

Builds the unit sphere and a radius-2 cylinder from their defining
functions, prints g, h, and the curvature report at a sample point, and
checks the textbook values on the way out.
"""

import numpy as np

from pseudoform import PseudoSurface, parse_scalar

SURFACES = {
    "unit sphere": ("x^2+y^2+z^2", (0.0, 0.0, 1.0)),
    "radius-2 cylinder": ("x^2+y^2", (2.0, 0.0, 0.0)),
    "saddle z = x*y (level set z - x*y)": ("z - x*y", (0.3, 0.2, 0.06)),
}

for label, (levelset, point) in SURFACES.items():
    surface = PseudoSurface.from_levelset(parse_scalar(levelset))
    forms = surface.fundamental_forms(point)
    report = surface.curvature_report(point)
    print(f"== {label} at {point}")
    print(f"   g = {np.array2string(np.array(forms.g_rows), precision=6)}")
    print(f"   h = {np.array2string(np.array(forms.h_rows), precision=6)}")
    print(
        f"   kappa1 = {report.kappa1:.6g}, kappa2 = {report.kappa2:.6g}, "
        f"K = {report.gaussian:.6g}, mean = {report.mean:.6g}"
    )

sphere = PseudoSurface.from_levelset(parse_scalar("x^2+y^2+z^2"))
assert np.isclose(sphere.curvature_report((0.0, 0.0, 1.0)).gaussian, 1.0, atol=1e-6)
print("\nsphere sanity check passed: K = 1")
