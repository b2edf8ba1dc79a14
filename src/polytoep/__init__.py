"""Fredholm theory for Toeplitz tuples with polynomial symbols on polydisc
Hardy spaces: certified boundary criteria, three independent index routes
(operator-theoretic, algebraic zero counting, perturbation/degree oracle),
product-formula shortcuts, and essential-spectrum sampling."""

__version__ = "0.5.15"

from .certify import (
    BoundaryCertificate,
    boundary_lower_bound,
    essential_spectrum_cloud,
    essential_spectrum_membership,
)
from .koszul import koszul_route, range_sum_check
from .oracle import perturbed_count_details
from .poly import (
    MultiPoly,
    NotEliminableError,
    SymbolTuple,
    exact_poly,
    symbols,
    tuple_from_json,
    tuple_to_json,
)
from .report import JobConfig, run_index, run_spectrum
from .tensor import TrigPoly, disc_tuple_index, tensor_tuple_index
from .zeros import common_zeros, gcd_reduce

__all__ = [
    "BoundaryCertificate",
    "JobConfig",
    "MultiPoly",
    "NotEliminableError",
    "SymbolTuple",
    "TrigPoly",
    "boundary_lower_bound",
    "common_zeros",
    "disc_tuple_index",
    "essential_spectrum_cloud",
    "essential_spectrum_membership",
    "exact_poly",
    "gcd_reduce",
    "koszul_route",
    "perturbed_count_details",
    "range_sum_check",
    "run_index",
    "run_spectrum",
    "symbols",
    "tensor_tuple_index",
    "tuple_from_json",
    "tuple_to_json",
    "__version__",
]
