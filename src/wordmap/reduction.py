"""Reduction of a matrix word equation to Jordan blocks over extensions.

Splitting a target by its generalized Jordan form, solving each block
J_{alpha,l} over K(alpha), lifting the block witnesses back through the
companion-lift homomorphism, and conjugating the assembled block-diagonal
solution by the Jordan conjugator solves the original equation.  Over R a
quadratic factor is handled through C and lifted back to real 2x2 blocks.

``plan`` / ``assemble`` / ``solve_blockwise`` serve the diagonal-word
solver.  They verify nothing: the public solve that calls them checks the
finished witness once, by evaluating its word against the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .errors import UsageError
from .fields import Field, FieldElement, extend
from .matrices import (
    GeneralizedJordanForm,
    Matrix,
    companion_lift,
    generalized_jordan_form,
)
from .polynomials import Poly, approx_roots


@dataclass(frozen=True)
class BlockPlan:
    """One Jordan block of the target, moved to its working field."""

    poly: Poly                     # irreducible factor over the base field
    size: int                      # l, number of companion copies
    field: Field                   # K(alpha), or the base field when deg = 1
    alpha: FieldElement            # the eigenvalue in the working field
    embed: Optional[Callable]      # base -> working field (None when identity)
    target: Matrix                 # J_{alpha, l} over the working field
    complex_root: Optional[complex]  # chosen root for the R -> C route


@dataclass(frozen=True)
class ReductionPlan:
    base_field: Field
    jordan: GeneralizedJordanForm
    blocks: Tuple[BlockPlan, ...]


def plan(A: Matrix, seed: int = 0) -> ReductionPlan:
    """Jordan-split A; one BlockPlan per block.  A factor's blocks are
    adjacent in the Jordan form, so its working field is built once: the
    base field for a linear factor, K(alpha) over exact kinds, and over R
    the field C with a chosen root of the quadratic factor."""
    field = A.field
    jf = generalized_jordan_form(A, seed)
    blocks = []
    for p, specs in itertools.groupby(jf.blocks, key=lambda spec: spec.poly):
        root = None
        if p.degree == 1:
            L, alpha, embed = field, -p[0], None
        elif field.is_exact:
            L, alpha, embed = extend(field, p)
        else:
            L = Field("complex", tolerance=field.tolerance)
            root = _quadratic_complex_root(p)
            alpha = L(root)
            embed = lambda x, L=L: L(complex(x.rep))
        blocks.extend(BlockPlan(p, spec.size, L, alpha, embed,
                                Matrix.jordan_block(alpha, spec.size), root)
                      for spec in specs)
    return ReductionPlan(field, jf, tuple(blocks))


def _quadratic_complex_root(p: Poly) -> complex:
    roots = approx_roots(p)
    for r in roots:
        if r.imag > 0:
            return r
    return roots[0]


def assemble(rplan: ReductionPlan,
             solutions: Sequence[Tuple[Matrix, ...]]) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """(matrices, P): lift the per-block solutions (one tuple per block, in
    ``rplan.blocks`` order), direct-sum them per word position and conjugate
    back by the Jordan conjugator P.  The result is not verified here."""
    field = rplan.base_field
    solutions = [tuple(sol) for sol in solutions]
    if len(solutions) != len(rplan.blocks) or len({len(sol) for sol in solutions}) != 1:
        raise UsageError("assemble needs one solution tuple of equal length per block")
    P = rplan.jordan.conjugator
    Pinv = P.inverse()
    mats = []
    for pos in range(len(solutions[0])):
        lifted = []
        for bp, sol in zip(rplan.blocks, solutions):
            W = sol[pos]
            if bp.field.key == field.key:
                lifted.append(W)
            else:
                lifted.append(companion_lift(W, bp.poly, bp.complex_root))
        mats.append(Pinv * Matrix.block_diag(field, lifted) * P)
    return tuple(mats), P


def solve_blockwise(A: Matrix, block_solver: Callable[[BlockPlan], tuple],
                    seed: int = 0) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """plan -> ``block_solver`` on each block -> assemble: (matrices, P)."""
    rplan = plan(A, seed)
    return assemble(rplan, [block_solver(bp) for bp in rplan.blocks])
