"""Exact class-group and ideal arithmetic for numerical semigroups,
imaginary quadratic orders, and the graded rings built from both."""

from .domains import (
    CoefficientDomain,
    CoeffIdeal,
    QuadForm,
    class_group,
    parse_domain,
    reduced_forms,
)
from .errors import (
    CapabilityError,
    ExponentCapError,
    ExtractionError,
    MismatchError,
    ParseError,
)
from .graded import (
    GradedElement,
    HomogeneousIdeal,
    IdealPair,
    decompose_class,
    extract_pair,
    homogeneous_ideal,
    homogeneous_membership,
    inverse_content_product_check,
    parse_element,
    transfer_criterion_report,
)
from .ideals import (
    FractionalIdeal,
    canonical_generator_sets,
    ideal_from_generators,
    search_nonprincipal_t_invertible,
)
from .semigroups import MonoidDescriptor, NumericalSemigroup, from_generators, parse_monoid
from .suites import run_suites

__all__ = [
    "CapabilityError",
    "CoeffIdeal",
    "CoefficientDomain",
    "ExponentCapError",
    "ExtractionError",
    "FractionalIdeal",
    "GradedElement",
    "HomogeneousIdeal",
    "IdealPair",
    "MismatchError",
    "MonoidDescriptor",
    "NumericalSemigroup",
    "ParseError",
    "QuadForm",
    "canonical_generator_sets",
    "class_group",
    "decompose_class",
    "extract_pair",
    "from_generators",
    "homogeneous_ideal",
    "homogeneous_membership",
    "ideal_from_generators",
    "inverse_content_product_check",
    "parse_domain",
    "parse_element",
    "parse_monoid",
    "reduced_forms",
    "run_suites",
    "search_nonprincipal_t_invertible",
    "transfer_criterion_report",
]
