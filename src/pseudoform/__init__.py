"""Numerical exterior calculus for Pfaff equations and pseudo-surfaces.

A pseudo-surface is a codimension-one plane field theta = 0 on a
3-dimensional chart that is not completely integrable: it admits
integral curves but no integral surfaces.  The package classifies the
Pfaff equation, builds adapted frames, computes fundamental forms and
curvatures under Euclidean / Galilean / Minkowski metrics, integrates
geodesics, and works through the rotating-plane pendulum as the
canonical example.
"""

from .autodiff import Dual
from .calculus import (
    ConstantField,
    OneForm,
    ScalarField,
    ThreeForm,
    TwoForm,
    differentiate,
    exterior_derivative,
    gradient_oneform,
    opaque_field,
    scalar_field,
    symmetric_part,
    wedge_1_2,
)
from .curves import (
    CurvatureSplit,
    FrenetData,
    ParamCurve,
    SampledCurve,
    curvature_split,
    frenet,
    integrate_geodesic,
)
from .errors import (
    ConstraintViolationError,
    DegenerateMetricError,
    DegenerateNormalizationError,
    DegeneratePfaffianError,
    DegenerateWindowError,
    EvaluationDomainError,
    FormSyntaxError,
    FramePfaffianMismatchError,
    FrameSingularityError,
    PseudoformError,
    StraightLineError,
    ValidationError,
)
from .formlang import parse_expression, parse_oneform, parse_scalar, pretty
from .foucault import (
    FoucaultConfig,
    FoucaultGeometry,
    PendulumState,
    Trajectory,
    TransportState,
    centripetal_acceleration,
    decompose_acceleration,
    foucault_frame,
    foucault_frame_field,
    foucault_geometry,
    measure_precession,
    parallel_transport,
    precession_per_day,
    simulate_pendulum,
    theta2_oneform,
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
    second_form_via_frame,
    shape_and_curvatures,
    structure_functions,
)
from .pfaff import (
    IntegrabilityClass,
    NormalForm,
    RegionSampler,
    classify,
    constraint_residual,
    frobenius_coefficient,
)

__version__ = "0.1.0"
