"""The array form of ``pfaff.classify``, kept as a reference for its float kernel.

Each sample takes theta from ``components_at`` and d theta from
``calculus.exterior_derivative`` (the array Jacobian minus its transpose),
the per-sample magnitudes go into arrays, and the maxima are ``np.max``
over those arrays, so a NaN sample makes its maximum NaN.  ``classify``
in ``src`` must give the same three maxima bit for bit.
"""

import math

import numpy as np

from pseudoform.calculus import exterior_derivative, pfaffian_norm
from pseudoform.pfaff import DEFAULT_TOL, IntegrabilityClass, NormalForm


def _dot(a, b, norm):
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return (a1 / norm) * (b1 / norm) + (a2 / norm) * (b2 / norm) + (a3 / norm) * (b3 / norm)


def classify(theta, region, tol=DEFAULT_TOL):
    points = region.points()
    dtheta_mag = np.empty(len(points))
    frobenius = np.empty(len(points))
    frobenius_raw = np.empty(len(points))
    for k, p in enumerate(points):
        comps = theta.components_at(p)
        norm = pfaffian_norm(comps, p)
        d = exterior_derivative(theta, p).components
        dtheta_mag[k] = math.hypot(*d) / norm
        unit = _dot(comps, d, norm)
        frobenius[k] = unit
        frobenius_raw[k] = (unit * norm) * norm
    max_d = float(np.max(dtheta_mag))
    max_f = float(np.max(np.abs(frobenius)))
    max_f_raw = float(np.max(np.abs(frobenius_raw)))
    if max_d <= tol:
        kind = NormalForm.CLOSED
    elif max_f <= tol:
        kind = NormalForm.INTEGRATING_FACTOR
    else:
        kind = NormalForm.NON_INTEGRABLE
    return IntegrabilityClass(kind, max_d, max_f, max_f_raw)
