"""Reduction of a matrix word equation to Jordan blocks over extensions.

Splitting a target by its generalized Jordan form, solving each block
J_{alpha,l} over K(alpha), lifting the block witnesses back through the
companion-lift homomorphism, and conjugating the assembled block-diagonal
solution by the Jordan conjugator solves the original equation.  Over R a
quadratic factor is handled through C and lifted back to real 2x2 blocks.

``working_field`` is the one choice of a Jordan factor's field; it serves
both the diagonal-word solver and the commutator task planner.
``plan`` / ``assemble`` / ``solve_blockwise`` serve the diagonal-word
solver.  They verify nothing: the public solve that calls them checks the
finished witness once, by evaluating its word against the target.  A plan
holds the Jordan form (the base field is its realization's field) and,
per block, what the block solvers read: the factor, the size, the working
field, the eigenvalue, the embedding and the R -> C root.  J_{alpha,l}
itself is built only by ``diagonal._block_kth_root``, its one reader.
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
    complex_root: Optional[complex]  # chosen root for the R -> C route


@dataclass(frozen=True)
class ReductionPlan:
    """The Jordan form of the target (whose ``realization.field`` is the
    base field) and its blocks in Jordan-form order."""

    jordan: GeneralizedJordanForm
    blocks: Tuple[BlockPlan, ...]


def working_field(field: Field, p: Poly) -> tuple:
    """(L, alpha, embed, root) for the Jordan factor p: the base field for a
    linear factor, K(alpha) over exact kinds, and over R the field C with
    ``root`` a chosen root of p, which ``companion_lift`` needs to lift back."""
    if p.degree == 1:
        return field, -p[0], None, None
    if field.is_exact:
        return extend(field, p) + (None,)
    L = Field("complex", tolerance=field.tolerance)
    roots = approx_roots(p)
    root = next((r for r in roots if r.imag > 0), roots[0])
    return L, L(root), lambda x: L(complex(x.rep)), root


def plan(A: Matrix) -> ReductionPlan:
    """Jordan-split A; one BlockPlan per block.  A factor's blocks are
    adjacent in the Jordan form, so its working field is built once."""
    jf = generalized_jordan_form(A)
    blocks = []
    for p, specs in itertools.groupby(jf.blocks, key=lambda spec: spec.poly):
        L, alpha, embed, root = working_field(A.field, p)
        blocks.extend(BlockPlan(p, spec.size, L, alpha, embed, root) for spec in specs)
    return ReductionPlan(jf, tuple(blocks))


def assemble(rplan: ReductionPlan,
             solutions: Sequence[Tuple[Matrix, ...]]) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """(matrices, P): lift the per-block solutions (one tuple per block, in
    ``rplan.blocks`` order), direct-sum them per word position and conjugate
    back by the Jordan conjugator P.  The result is not verified here."""
    field = rplan.jordan.realization.field
    solutions = [tuple(sol) for sol in solutions]
    if len(solutions) != len(rplan.blocks) or len({len(sol) for sol in solutions}) != 1:
        raise UsageError("assemble needs one solution tuple of equal length per block")
    P = rplan.jordan.conjugator
    Pinv = rplan.jordan.conjugator_inverse
    if Pinv is None:  # R/C
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


def solve_blockwise(A: Matrix, block_solver: Callable[[BlockPlan], tuple]
                    ) -> Tuple[Tuple[Matrix, ...], Matrix]:
    """plan -> ``block_solver`` on each block -> assemble: (matrices, P)."""
    rplan = plan(A)
    return assemble(rplan, [block_solver(bp) for bp in rplan.blocks])
