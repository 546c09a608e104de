"""Exact-arithmetic solvers for word equations on matrix algebras.

Two families of word maps are covered: products of commutators
[X1,X2]...[X_{m-1},X_m], and diagonal words d_1*X_1^{k_1} + ... +
d_m*X_m^{k_m}, over finite fields, Q, and (with tolerances) R and C.
Every witness the library emits is re-verified by direct matrix
arithmetic before it is returned.
"""

from .errors import WordmapError, NotFound, Unsupported, NonzeroTrace
from .fields import Field, FieldElement, GF, parse_field_spec, kth_roots, \
    enumerate_elements, extend, regular_solution_search
from .polynomials import Poly
from .matrices import Matrix, Partition, charpoly, minpoly, \
    generalized_jordan_form, companion_lift, nilpotent_partition
from .factor import factor
from .words import CommutatorProduct, DiagonalWord, Witness, eval_word, parse_word
from .commutators import factor_two_trace_zero, trace_zero_to_commutator, \
    solve_commutator_product
from .diagonal import solve_diagonal_word, nilpotent_power_partition
from .counting import count_solutions, threshold, image_enumerate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
