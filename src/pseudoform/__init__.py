"""Numerical exterior calculus for Pfaff equations and pseudo-surfaces.

A pseudo-surface is a codimension-one plane field theta = 0 on a
3-dimensional chart that is not completely integrable: it admits
integral curves but no integral surfaces.  The package classifies the
Pfaff equation, builds adapted frames, computes fundamental forms and
curvatures under Euclidean / Galilean / Minkowski metrics, integrates
geodesics, and works through the rotating-plane pendulum as the
canonical example.

Importing the package runs ``errors`` and puts ``calculus``, ``curves``,
``formlang``, ``foucault``, ``geometry``, ``integrate`` and ``pfaff`` into
``sys.modules`` unrun, so a call runs only the modules it uses: each runs its
body into that module object at the first access to one of its attributes,
in one thread while the others wait.  The names in ``__all__`` are read from
their modules.
"""

import _thread
import importlib.util
import sys
import types

from . import errors

_lock = _thread.RLock()
_running = set()  # the modules whose body is running, in the thread that holds _lock


class _LazyModule(types.ModuleType):
    """A submodule whose body runs at its first attribute access, after
    which it is a plain module."""

    def __getattribute__(self, attr):
        with _lock:
            if type(self) is _LazyModule and self not in _running:
                _running.add(self)
                try:
                    self.__spec__.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(self)
        return types.ModuleType.__getattribute__(self, attr)


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


calculus, curves, formlang, foucault, geometry, integrate, pfaff = map(_lazy, (
    "calculus", "curves", "formlang", "foucault", "geometry", "integrate", "pfaff"))

_EXPORTS = {
    "calculus": ("OneForm", "ScalarField", "exterior_derivative", "gradient_oneform"),
    "curves": ("SampledCurve", "integrate_geodesic"),
    "errors": ("ConstraintViolationError", "DegenerateMetricError",
               "DegenerateNormalizationError", "DegeneratePfaffianError", "DegenerateWindowError",
               "EvaluationDomainError", "FormSyntaxError", "PseudoformError", "ValidationError"),
    "formlang": ("parse_expression", "parse_oneform", "parse_scalar"),
    "foucault": ("FoucaultConfig", "FoucaultGeometry", "Orbit", "PendulumState", "Trajectory",
                 "decompose_acceleration", "foucault_frame_field", "foucault_geometry",
                 "measure_precession", "parallel_transport", "pendulum_orbit",
                 "precession_per_day", "simulate_pendulum", "theta2_oneform", "transport_orbit"),
    "geometry": ("EUCLIDEAN", "GALILEAN", "MINKOWSKI", "AdaptedFrame", "CurvatureReport",
                 "FundamentalForms", "MetricKind", "MetricSignature", "PseudoSurface",
                 "adapt_frame", "connection_form", "fundamental_forms",
                 "second_form_via_connection", "shape_and_curvatures"),
    "pfaff": ("IntegrabilityClass", "NormalForm", "RegionSampler", "classify",
              "frobenius_coefficient"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
