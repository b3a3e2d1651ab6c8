"""Numerical exterior calculus for Pfaff equations and pseudo-surfaces.

A pseudo-surface is a codimension-one plane field theta = 0 on a
3-dimensional chart that is not completely integrable: it admits
integral curves but no integral surfaces.  The package classifies the
Pfaff equation, builds adapted frames, computes fundamental forms and
curvatures under Euclidean / Galilean / Minkowski metrics, integrates
geodesics, and works through the rotating-plane pendulum as the
canonical example.
"""

from .calculus import (
    OneForm,
    ScalarField,
    exterior_derivative,
    gradient_oneform,
)
from .curves import SampledCurve, integrate_geodesic
from .errors import (
    ConstraintViolationError,
    DegenerateMetricError,
    DegenerateNormalizationError,
    DegeneratePfaffianError,
    DegenerateWindowError,
    EvaluationDomainError,
    FormSyntaxError,
    FramePfaffianMismatchError,
    PseudoformError,
    ValidationError,
)
from .formlang import parse_expression, parse_oneform, parse_scalar
from .foucault import (
    FoucaultConfig,
    FoucaultGeometry,
    Orbit,
    PendulumState,
    Trajectory,
    decompose_acceleration,
    foucault_frame_field,
    foucault_geometry,
    measure_precession,
    parallel_transport,
    pendulum_orbit,
    precession_per_day,
    simulate_pendulum,
    theta2_oneform,
    transport_orbit,
)
from .geometry import (
    EUCLIDEAN,
    GALILEAN,
    MINKOWSKI,
    AdaptedFrame,
    CurvatureReport,
    FundamentalForms,
    MetricKind,
    MetricSignature,
    PseudoSurface,
    adapt_frame,
    connection_form,
    fundamental_forms,
    second_form_via_connection,
    shape_and_curvatures,
)
from .pfaff import (
    IntegrabilityClass,
    NormalForm,
    RegionSampler,
    classify,
    frobenius_coefficient,
)

__version__ = "0.1.0"
