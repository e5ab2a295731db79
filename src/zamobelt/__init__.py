"""Exact engine for bipartite-belt dynamics on recurrent bigraphs.

Symbolic track: the belt recursion over integer Laurent polynomials.
Tropical track: the same recursion over (max, +), exact: stepped on
ints scaled by the LCM of the labeling's denominators.
Green track: framed mutation sequences certifying maximal green runs.

Importing the package loads no track: each public name, and each track
module, is imported on its first read (PEP 562), so a process compiles
only the tracks it uses.
"""

import importlib

# each track module -> the public names it defines
_EXPORTS = {
    "bigraph": (
        "Bigraph", "catalog", "catalog_names", "catalog_version", "decompose",
        "dual_bigraph", "exchange_matrix", "fold", "langlands_dual",
        "load_bigraph", "mutate", "tensor_product",
    ),
    "belt": (
        "cluster_variable_census", "detect_period", "half_period",
        "initial_state", "run_belt",
    ),
    "dynkin": ("cartan_matrix", "coxeter_number", "positive_roots", "recognize"),
    "errors": ("ClaimViolation", "InputError", "set_term_guard"),
    "green": ("frozen_isomorphism_check", "verify_bipartite_belt_mgs"),
    "laurent": ("Laurent", "variables"),
    "tropical": (
        "colored_census", "denominator_bijection_check", "dual_transfer_check",
        "tropical_half_period", "tropical_period",
    ),
}

# each public name -> the track module that defines it
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_SOURCES), "__version__"]


def __getattr__(name):
    """A track module, or a public name read from its module, imported
    now and kept in the package's namespace for every later read."""
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _SOURCES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCES[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
