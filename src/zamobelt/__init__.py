"""Exact engine for bipartite-belt dynamics on recurrent bigraphs.

Symbolic track: the belt recursion over integer Laurent polynomials.
Tropical track: the same recursion over (max, +), exact: stepped on
ints scaled by the LCM of the labeling's denominators.
Green track: framed mutation sequences certifying maximal green runs.
"""

from .bigraph import (
    Bigraph,
    catalog,
    catalog_names,
    catalog_version,
    decompose,
    dual_bigraph,
    exchange_matrix,
    fold,
    langlands_dual,
    load_bigraph,
    mutate,
    tensor_product,
)
from .belt import (
    BeltState,
    cluster_variable_census,
    denominator_bijection_check,
    detect_period,
    half_period,
    initial_state,
    run_belt,
)
from .dynkin import cartan_matrix, coxeter_number, positive_roots, recognize
from .errors import ClaimViolation, InputError
from .green import frozen_isomorphism_check, verify_bipartite_belt_mgs
from .laurent import Laurent, set_term_guard, variables
from .tropical import (
    colored_census,
    dual_transfer_check,
    tropical_half_period,
    tropical_period,
)

__version__ = "0.1.0"

__all__ = [
    "BeltState",
    "Bigraph",
    "ClaimViolation",
    "InputError",
    "Laurent",
    "cartan_matrix",
    "catalog",
    "catalog_names",
    "catalog_version",
    "cluster_variable_census",
    "colored_census",
    "coxeter_number",
    "decompose",
    "denominator_bijection_check",
    "detect_period",
    "dual_bigraph",
    "dual_transfer_check",
    "exchange_matrix",
    "fold",
    "frozen_isomorphism_check",
    "half_period",
    "initial_state",
    "langlands_dual",
    "load_bigraph",
    "mutate",
    "positive_roots",
    "recognize",
    "run_belt",
    "set_term_guard",
    "tensor_product",
    "tropical_half_period",
    "tropical_period",
    "variables",
    "verify_bipartite_belt_mgs",
    "__version__",
]
