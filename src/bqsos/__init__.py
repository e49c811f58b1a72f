"""Exact lengths of sums of squares in orders of totally real quadratic
and biquadratic number fields, with Pythagoras-number lower bounds."""

from .fields import (
    BiquadraticField,
    Element,
    FieldError,
    ForeignRadical,
    QuadraticField,
    UsageError,
    classify_field,
)
from .orders import (
    OrderLattice,
    custom_order,
    maximal_order,
    quadratic_maximal_order,
    quadratic_order,
    quadratic_order_half,
    root_product_order,
)
from .decomposition import (
    LengthResult,
    enumerate_squares_dominated,
    enumerate_squares_traced,
    length,
    length_profile,
    pythagoras_lower_bound,
)
from .parser import parse_element
from .verification import construct_witness, expected_length, sweep, verify_table

__version__ = "1.0.0"

__all__ = [
    "BiquadraticField",
    "Element",
    "FieldError",
    "ForeignRadical",
    "LengthResult",
    "OrderLattice",
    "QuadraticField",
    "UsageError",
    "classify_field",
    "construct_witness",
    "custom_order",
    "enumerate_squares_dominated",
    "enumerate_squares_traced",
    "expected_length",
    "length",
    "length_profile",
    "maximal_order",
    "parse_element",
    "pythagoras_lower_bound",
    "quadratic_maximal_order",
    "quadratic_order",
    "quadratic_order_half",
    "root_product_order",
    "sweep",
    "verify_table",
]
