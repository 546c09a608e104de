"""Exact-arithmetic solvers for word equations on matrix algebras.

Two families of word maps are covered: products of commutators
[X1,X2]...[X_{m-1},X_m], and diagonal words d_1*X_1^{k_1} + ... +
d_m*X_m^{k_m}, over finite fields, Q, and (with tolerances) R and C.
Every witness the library emits is re-verified by direct matrix
arithmetic before it is returned.

The package loads a submodule when one of its names is first read
(PEP 562): ``_EXPORTS`` names the submodule that owns each export, and
``__getattr__`` imports it then and keeps the value in the package. So
``import wordmap`` compiles only this file, and a solver, the scalar layer
and the factorization code are each compiled by the first process that
calls them. ``factor`` is both a submodule and an exported function, and
the import system binds a submodule to its name in the package when it is
first loaded (for example by the deferred ``from .factor import factor``
in ``generalized_jordan_form``). The package's class is ``_Package``,
which declines that one binding, so ``wordmap.factor`` is the function
whatever runs first.
"""

import importlib
import sys
import types


class _Package(types.ModuleType):
    """The package module: setting ``factor`` to a module is ignored."""

    def __setattr__(self, name, value):
        if name == "factor" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

# submodule -> the names it exports; a submodule is exported too
_EXPORTS = {
    "errors": ("WordmapError", "NotFound", "Unsupported", "NonzeroTrace"),
    "fields": ("Field", "FieldElement", "GF", "parse_field_spec", "kth_roots",
               "enumerate_elements", "extend", "regular_solution_search"),
    "polynomials": ("Poly",),
    "matrices": ("Matrix", "Partition", "charpoly", "minpoly", "generalized_jordan_form",
                 "companion_lift", "nilpotent_partition"),
    "factor": ("factor",),
    "reduction": (),
    "words": ("CommutatorProduct", "DiagonalWord", "Witness", "eval_word", "parse_word"),
    "commutators": ("factor_two_trace_zero", "trace_zero_to_commutator",
                    "solve_commutator_product"),
    "diagonal": ("solve_diagonal_word", "nilpotent_power_partition"),
    "counting": ("count_solutions", "threshold", "image_enumerate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name in _EXPORTS[module]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
