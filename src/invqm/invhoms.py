"""Invariant homomorphisms on the commutator subgroup of a presented group.

For G = F_n / <<r_1, ..., r_m>> and N = [G, G], every G-invariant
homomorphism on N pulls back to a functional on the wedge square of Q^n
that annihilates a constraint space W assembled from the relators:

  * e_j ∧ ab(r_i) for every generator j and relator r_i.  These come from
    conjugation: g r g^-1 r^-1 represents the identity of G, and its wedge
    class is ab(g) ∧ ab(r).
  * the quadratic class of any integer combination of relators with
    vanishing total abelianization.  Cross terms between relator factors in
    an actual product word are of the form mu ∧ ab(r_i), so they already lie
    in the first span; taking the linear combination of per-relator
    quadratic classes is therefore equivalent modulo that span.

dim H^1(N)^G is C(n, 2) minus the Bareiss rank of these rows; the RREF of W
and the annihilator basis are built only for the `invhoms` report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .linalg import (VecZ, echelon, invariant_factors, kernel_basis,
                     pair_basis, rank, rref)
from .magnus import (InvariantHom, WedgeVec, abelianize, doubled_class,
                     quadratic_class)
from .quotients import relator_abelianization_matrix
from .words import FreeWord, Presentation


class NotInCommutatorSubgroupError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSpace:
    """Subspace W of the wedge square that invariant homomorphisms must
    annihilate; basis rows are linearly independent."""

    rank: int
    basis: tuple[WedgeVec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _constraint_rows(P: Presentation) -> list[VecZ]:
    """Integer rows over the pair basis spanning W, none from a relator of
    zero abelianization.  Entry (i, k) of e_j ∧ mu is d_ij mu_k - d_kj mu_i.
    Quadratic classes enter doubled, which makes them integral, and the
    relator combinations are taken over Q: Bareiss elimination of the rows
    [ab(r) | 2q(r)] leaves, past the first n pivot columns, rows [0 | 2q]
    that span the combinations with zero abelianization."""
    n = P.rank
    R = relator_abelianization_matrix(P)
    rows = [[(i == j) * mu[k - 1] - (k == j) * mu[i - 1]
             for i, k in pair_basis(n)]
            for mu in filter(any, R) for j in range(1, n + 1)]
    lifted, pivots = echelon(
        [mu + doubled_class(r) for mu, r in zip(R, P.relators)])
    return rows + [row[n:] for row, p in zip(lifted, pivots) if p >= n]


def constraint_space(P: Presentation) -> ConstraintSpace:
    """W reduced to the rows of its RREF (content 1)."""
    W, _ = rref(_constraint_rows(P))
    return ConstraintSpace(P.rank, tuple(
        WedgeVec(P.rank, tuple(Fraction(x) for x in row)) for row in W))


def inv_hom_dim(P: Presentation) -> int:
    """dim H^1(N)^G = C(n, 2) - dim W."""
    n = P.rank
    return n * (n - 1) // 2 - rank(_constraint_rows(P))


def inv_hom_basis(W: ConstraintSpace) -> tuple[InvariantHom, ...]:
    """The annihilator's RREF rows (content 1, positive pivot) over the pair
    basis: W's kernel vectors with columns reversed, each nonzero only at its
    free column and pivots before it, mapped back and taken last first."""
    n = W.rank
    rows = [v.coeffs[::-1] for v in W.basis] or [[0] * (n * (n - 1) // 2)]
    basis = []
    for v in reversed(kernel_basis(rows)):
        v = v[::-1]
        sign = 1 if next(filter(None, v)) > 0 else -1
        basis.append(InvariantHom(n, tuple(Fraction(sign * x) for x in v)))
    return tuple(basis)


def _commutator_lattice_coords(P: Presentation,
                               w: FreeWord) -> list[Fraction]:
    """Coordinates c with sum_i c_i ab(r_i) = ab(w), once w is certified to
    represent an element of [G, G].

    The certificate is integral: ab(w) lies in the Z-span of the ab(r_i)
    exactly when appending it to the relator matrix changes neither the
    rank nor the product of the invariant factors (the index of that span
    in its saturation).  The coordinates themselves may be rational: two
    solutions differ by a left-kernel vector, whose quadratic class lies in
    the constraint space.
    """
    mu = abelianize(w)
    m = len(P.relators)
    if all(x == 0 for x in mu):
        return [Fraction(0)] * m
    if not P.relators:
        raise NotInCommutatorSubgroupError(
            "word has nonzero abelianization and there are no relators")
    R = relator_abelianization_matrix(P)
    before, after = invariant_factors(R), invariant_factors(R + [mu])
    if len(after) != len(before) or prod(after) != prod(before):
        raise NotInCommutatorSubgroupError(
            "abelianization does not lie in the relator lattice")
    rows, pivots = rref([list(col) + [x] for col, x in zip(zip(*R), mu)])
    c = [Fraction(0)] * m
    for row, p in zip(rows, pivots):
        c[p] = Fraction(row[m], row[p])
    return c


def evaluate_on_quotient(phi: InvariantHom, w: FreeWord,
                         P: Presentation) -> Fraction:
    """Value of the induced homomorphism on the element of [G, G]
    represented by w.

    The wedge class of w is corrected by the relator combination matching
    its abelianization; all remaining ambiguity (choice of combination,
    ordering and conjugation of relator factors) lies in the constraint
    space, which phi annihilates, so the value is well defined.
    """
    c = _commutator_lattice_coords(P, w)
    v = quadratic_class(w)
    for ci, r in zip(c, P.relators):
        if ci != 0:
            v = v - ci * quadratic_class(r)
    return phi.pair(v)
