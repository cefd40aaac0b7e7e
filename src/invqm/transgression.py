"""Explicit 2-cocycles on Z^n transgressed from invariant homomorphisms on
the commutator subgroup of a free group.

The section sends m in Z^n to a_1^{m_1} ... a_n^{m_n}.  An invariant
homomorphism f on the commutator subgroup lifts to F(g) = f(g * s(ab(g))^-1)
on all of the free group, and the 2-cochain

    (g1, g2) |-> F(s(g1) s(g2)) = f(s(g1) s(g2) s(g1 + g2)^-1)

is an exact (not merely bounded) cocycle on Z^n because f is a genuine
homomorphism.  Sign convention: this is the coboundary with
dF(g1, g2) = F(g1 g2) - F(g1) - F(g2), chosen so that antisymmetrizing
recovers f on commutators of section values with no extra sign.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .magnus import InvariantHom, abelianize, hom_eval
from .words import FreeWord


def standard_section(rank: int, m: Sequence[int]) -> FreeWord:
    """a_1^{m_1} ... a_n^{m_n}; the empty word at m = 0."""
    if len(m) != rank:
        raise ValueError(f"need {rank} exponents")
    letters: list[int] = []
    for i, e in enumerate(m, start=1):
        letters.extend([i if e > 0 else -i] * abs(e))
    return FreeWord(rank, tuple(letters))


def lift_F(f: InvariantHom, g: FreeWord) -> Fraction:
    """Section-normalized lift: f(g * s(ab(g))^-1).  Restricts to f on the
    commutator subgroup and vanishes on section values."""
    s = standard_section(g.rank, abelianize(g))
    return hom_eval(f, g * s.inverse())


class Transgressor:
    """Memoized evaluator of the transgressed 2-cocycle of one invariant
    homomorphism."""

    def __init__(self, f: InvariantHom):
        self.f = f
        self.rank = f.rank
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def __call__(self, g1: Sequence[int], g2: Sequence[int]) -> Fraction:
        key = (tuple(g1), tuple(g2))
        if key not in self._memo:
            s1 = standard_section(self.rank, g1)
            s2 = standard_section(self.rank, g2)
            s12 = standard_section(self.rank,
                                   [a + b for a, b in zip(g1, g2)])
            self._memo[key] = hom_eval(self.f, s1 * s2 * s12.inverse())
        return self._memo[key]


def transgress(f: InvariantHom, g1: Sequence[int], g2: Sequence[int]
               ) -> Fraction:
    return Transgressor(f)(g1, g2)


def cocycle_coboundary(f: InvariantHom, g1: Sequence[int], g2: Sequence[int],
                       g3: Sequence[int]) -> Fraction:
    """Coboundary of the transgressed cocycle at a triple; identically 0."""
    t = Transgressor(f)
    g12 = [a + b for a, b in zip(g1, g2)]
    g23 = [a + b for a, b in zip(g2, g3)]
    return t(g2, g3) - t(g12, g3) + t(g1, g23) - t(g1, g2)


def antisym_pairing(f: InvariantHom, g1: Sequence[int], g2: Sequence[int]
                    ) -> Fraction:
    """transgress(g1, g2) - transgress(g2, g1); equals
    f([s(g1), s(g2)]) exactly."""
    t = Transgressor(f)
    return t(g1, g2) - t(g2, g1)


def cup_class_matrix(f: InvariantHom) -> list[list[Fraction]]:
    """Skew matrix of antisymmetrized pairings on standard basis vectors.

    By `antisym_pairing`, entry (i, j) is f([a_i, a_j]), and [a_i, a_j] has
    wedge class e_i ^ e_j, so it is f_ij - f_ji over the pair basis (f_ij
    read as 0 unless i < j): f's dual coefficients, read off in O(n^2) with
    no section words.  A zero matrix forces f = 0, so the transgression is
    injective."""
    n = f.rank
    M = [[Fraction(0)] * n for _ in range(n)]
    for i, j, c in f.pairs():
        M[i - 1][j - 1], M[j - 1][i - 1] = c, -c
    return M
