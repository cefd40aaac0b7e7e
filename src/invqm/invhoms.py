"""Invariant homomorphisms on the commutator subgroup of a presented group.

For G = F_n / <<r_1, ..., r_m>> and N = [G, G], every G-invariant
homomorphism on N pulls back to a functional on the wedge square of Q^n
that annihilates a constraint space W: the wedges e_j ∧ ab(r_i) (the class
of [a_j, r_i], which represents the identity), and the quadratic classes
of the relator combinations with zero abelianization.  The wedges span
Q^n ∧ M, M = span ab(r_i): the kernel of ∧²K for any K: Q^n -> Q^f with
kernel M, f = n - rank R.  So the functionals are (∧²K)^T psi with psi
annihilating the projected classes 2 ∧²K q(c), and dim H^1(N)^G is
C(f, 2) = dim H^2(G/[G, G]) minus their rank, as in the five-term exact
sequence 0 -> H^1(N)^G -> H^2(Γ) -> H^2(G): an m × (n + C(f, 2)) Bareiss
elimination, not one over all of ∧²Q^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import add

from .linalg import (MatZ, VecZ, annihilator, echelon, identity,
                     invariant_factors, pair_basis, primitive, rref,
                     rref_kernel)
from .magnus import InvariantHom, WedgeVec, abelianize, quadratic_class
from .quotients import relator_abelianization_matrix
from .words import FreeWord, Presentation


class NotInCommutatorSubgroupError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSpace:
    """W as its RREF rows (content 1), and the invariant homomorphisms as
    the RREF rows of its annihilator."""

    rank: int
    basis: tuple[WedgeVec, ...]
    homs: tuple[InvariantHom, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _projected_classes(P: Presentation, K: MatZ) -> list[VecZ]:
    """2 ∧²K q(r) for each relator r over the pair basis of Q^f: the sum of
    the running projected abelianization wedged with each letter's signed
    column of K.  S[b][a] accumulates running[a] k[b]."""
    f = len(K)
    column = {s * g: [s * row[g - 1] for row in K]
              for g in range(1, P.rank + 1) for s in (1, -1)}
    pairs = [(i - 1, j - 1) for i, j in pair_basis(f)]
    classes = []
    for r in P.relators:
        running = [0] * f
        S = [[0] * f for _ in range(f)]
        for x in r.letters:
            for b, c in enumerate(column[x]):
                if c:
                    S[b] = [s + c * t for s, t in zip(S[b], running)]
            running = list(map(add, running, column[x]))
        classes.append([S[j][i] - S[i][j] for i, j in pairs])
    return classes


def quotient_projection(P: Presentation,
                        reduced: bool = False) -> tuple[MatZ, MatZ]:
    """(K, Z): K is the f = n - rank R rows (content 1) past column m of
    one elimination of [R^T | I_n], an integer map Q^n -> Q^f with kernel M
    (in RREF if `reduced`).  Z is independent rows spanning the projected
    classes of the combinations with zero abelianization: eliminating the
    rows [ab(r) | 2 ∧²K q(r)] leaves them past the first n pivot columns."""
    n = P.rank
    R = relator_abelianization_matrix(P)
    m = len(R)
    rows, pivots = (rref if reduced else echelon)(
        [[mu[j] for mu in R] + e for j, e in enumerate(identity(n))])
    K = [primitive(row[m:]) for row, p in zip(rows, pivots) if p >= m]
    lifted, pivots = echelon(
        [mu + c for mu, c in zip(R, _projected_classes(P, K))])
    return K, [row[n:] for row, p in zip(lifted, pivots) if p >= n]


def inv_hom_dim(P: Presentation) -> int:
    """dim H^1(N)^G = C(f, 2) - rank Z."""
    K, Z = quotient_projection(P)
    return len(K) * (len(K) - 1) // 2 - len(Z)


def constraint_space(P: Presentation) -> ConstraintSpace:
    """The homomorphisms (∧²K)^T psi, psi over the annihilator RREF of Z, are
    already in RREF once made content 1: with K in RREF, K_a ∧ K_b has pivot
    (p_a, p_b) and 0 at the other pivot pairs.  W is eliminated from their
    kernel, which is read off with no elimination."""
    n, N = P.rank, P.rank * (P.rank - 1) // 2
    K, Z = quotient_projection(P, reduced=True)
    f = len(K)
    wedges = [[Ka[i - 1] * Kb[j - 1] - Ka[j - 1] * Kb[i - 1]
               for i, j in pair_basis(n)] for Ka, Kb in combinations(K, 2)]
    homs = []
    for psi in annihilator(f * (f - 1) // 2, Z):
        phi = [0] * N
        for c, v in zip(psi, wedges):
            if c:
                phi = [x + c * y for x, y in zip(phi, v)]
        homs.append(primitive(phi))
    W, _ = rref(rref_kernel(
        homs, [next(i for i, x in enumerate(phi) if x) for phi in homs], N))
    return ConstraintSpace(
        n, tuple(WedgeVec(n, tuple(map(Fraction, row))) for row in W),
        tuple(InvariantHom(n, tuple(map(Fraction, row))) for row in homs))


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
