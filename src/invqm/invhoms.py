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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .linalg import invariant_factors, kernel_basis, pair_index, rref
from .magnus import InvariantHom, WedgeVec, abelianize, quadratic_class
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


@dataclass(frozen=True)
class InvHomSpace:
    """The annihilator of a constraint space: the pullback of the space of
    invariant homomorphisms on the commutator subgroup."""

    rank: int
    dimension: int
    basis: tuple[InvariantHom, ...]


def constraint_space(P: Presentation) -> ConstraintSpace:
    """W as integer rows over the pair basis, reduced to the rows of its
    RREF (content 1).  Quadratic classes enter doubled, which makes them
    integral, and the relator combinations are taken over Q: the left kernel
    of the relator matrix spans the same space over Q as over Z."""
    n = P.rank
    idx = pair_index(n)
    R = [abelianize(r) for r in P.relators]
    rows = []
    for mu in R:
        for j in range(1, n + 1):
            row = [0] * len(idx)
            for i, x in enumerate(mu, start=1):
                if x and i != j:  # x e_j ∧ e_i
                    if j < i:
                        row[idx[(j, i)]] = x
                    else:
                        row[idx[(i, j)]] = -x
            rows.append(row)
    doubled = [[int(2 * x) for x in quadratic_class(r).coeffs]
               for r in P.relators]
    for c in kernel_basis([list(col) for col in zip(*R)]):
        rows.append([sum(ci * x for ci, x in zip(c, col))
                     for col in zip(*doubled)])
    W, _ = rref([row for row in rows if any(row)])
    return ConstraintSpace(n, tuple(
        WedgeVec(n, tuple(Fraction(x) for x in row)) for row in W))


def inv_hom_dim(P: Presentation) -> int:
    n = P.rank
    return n * (n - 1) // 2 - constraint_space(P).dim


def inv_hom_basis(P: Presentation) -> InvHomSpace:
    """Basis of the annihilator of the constraint space, in reduced
    row-echelon order over the lexicographic pair basis."""
    n = P.rank
    W = constraint_space(P)
    npairs = n * (n - 1) // 2
    if not W.basis:
        basis = tuple(InvariantHom(n, tuple(
            Fraction(1) if k == t else Fraction(0) for k in range(npairs)))
            for t in range(npairs))
        return InvHomSpace(n, npairs, basis)
    R, _ = rref(kernel_basis([v.coeffs for v in W.basis]))
    basis = tuple(InvariantHom(n, tuple(Fraction(x) for x in row))
                  for row in R)
    return InvHomSpace(n, len(basis), basis)


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
    R = [abelianize(r) for r in P.relators]
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
