"""Radius constants, inclusion relations and numerical verification for the
starlike class whose quotient z f'/f ranges over the cardioid-bounded image
of 1 + z + z^2/2."""

from .series import (
    PowerSeries,
    LogDerivativeSeries,
    coefficient_condition,
    f_cardioid_series,
    monomial_member,
)
from .cardioid import (
    eval_phi,
    inner_outer_radii,
    min_re_on_circle,
    max_re_on_circle,
)
from .domains import Domain, Disk, make_domain
from .functions import FunctionSpec, generator, extremal
from .radii import (
    RadiusResult,
    ConstantEntry,
    constants_registry,
    janowski_radius_in_cardioid,
    radius_of_class_in_cardioid,
    radius_of_cardioid_in_class,
    ratio_class_radius,
    smallest_root_in_unit_interval,
)
from .verify import (
    VerificationReport,
    image_in_domain,
    subordination_radius,
    sharpness_touch,
    convolution_membership_check,
    verify_all_constants,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantEntry", "Disk", "Domain", "FunctionSpec",
    "LogDerivativeSeries", "PowerSeries", "RadiusResult", "VerificationReport",
    "coefficient_condition", "constants_registry", "convolution_membership_check",
    "eval_phi", "extremal", "f_cardioid_series", "generator", "image_in_domain",
    "inner_outer_radii", "janowski_radius_in_cardioid", "make_domain",
    "max_re_on_circle", "min_re_on_circle", "monomial_member",
    "radius_of_cardioid_in_class", "radius_of_class_in_cardioid",
    "ratio_class_radius", "sharpness_touch", "smallest_root_in_unit_interval",
    "subordination_radius", "verify_all_constants",
]
