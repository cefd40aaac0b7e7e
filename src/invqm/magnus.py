"""Wedge classes of free-group words.

The quadratic class of a word is half the antisymmetrized sum, over ordered
pairs of letter positions, of the wedges of their signed generators.  It is
the wedge part of the image of the word in the free nilpotent quotient of
class 2; on the commutator subgroup it is the wedge class, identified with
the wedge square of Q^n over the lexicographic pair basis, with [a_k, a_l]
sent to e_k wedge e_l.  One integer routine (`doubled_class`) computes it.
An invariant homomorphism is a `WedgeVec` read as a functional on wedge
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .linalg import VecZ, pair_basis
from .words import FreeWord


class NonzeroAbelianizationError(ValueError):
    pass


def abelianize(w: FreeWord) -> VecZ:
    """Signed exponent sum of each generator (the abelianization vector)."""
    sums = [0] * w.rank
    for x in w.letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


@dataclass(frozen=True)
class WedgeVec:
    """Element of the wedge square of Q^n, coefficients over the
    lexicographic pair basis."""

    rank: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.rank * (self.rank - 1) // 2
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")

    @staticmethod
    def zero(rank: int) -> "WedgeVec":
        return WedgeVec(rank, (Fraction(0),) * (rank * (rank - 1) // 2))

    @classmethod
    def basis_element(cls, rank: int, i: int, j: int) -> "WedgeVec":
        """e_i wedge e_j for i < j."""
        coeffs = [Fraction(0)] * (rank * (rank - 1) // 2)
        coeffs[pair_basis(rank).index((i, j))] = Fraction(1)
        return cls(rank, tuple(coeffs))

    def __add__(self, other: "WedgeVec") -> "WedgeVec":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return type(self)(self.rank, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "WedgeVec") -> "WedgeVec":
        return self + (-1) * other

    def __rmul__(self, c) -> "WedgeVec":
        c = Fraction(c)
        return type(self)(self.rank, tuple(c * a for a in self.coeffs))

    def pairs(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, c)
                for (i, j), c in zip(pair_basis(self.rank), self.coeffs)]


def doubled_class(w: FreeWord) -> VecZ:
    """Twice the quadratic class of w, as integers over the pair basis.

    Entry (i, j) counts, with signs, the letter pairs a_i before a_j minus
    the pairs a_j before a_i.  after[g][i] accumulates, over the letters of
    generator g, the signed count of a_i letters that came earlier.
    """
    n = w.rank
    running = [0] * n
    after = [[0] * n for _ in range(n)]
    for x in w.letters:
        if x > 0:
            after[x - 1] = list(map(add, after[x - 1], running))
            running[x - 1] += 1
        else:
            after[-x - 1] = list(map(sub, after[-x - 1], running))
            running[-x - 1] -= 1
    return [after[j - 1][i - 1] - after[i - 1][j - 1]
            for i, j in pair_basis(n)]


def quadratic_class(w: FreeWord) -> WedgeVec:
    """Half of `doubled_class`, with no precondition on w.

    On arbitrary words this is the wedge part of the image of w in the
    degree-2 free nilpotent quotient; it obeys
    q(uv) = q(u) + q(v) + (1/2) ab(u) ∧ ab(v).
    """
    return WedgeVec(w.rank, tuple(Fraction(x, 2) for x in doubled_class(w)))


def wedge_class(w: FreeWord) -> WedgeVec:
    """Image of a commutator-subgroup word in the wedge square, normalized so
    that [a_k, a_l] maps to e_k wedge e_l: the quadratic class, integral on
    the commutator subgroup."""
    if any(abelianize(w)):
        raise NonzeroAbelianizationError("word has nonzero abelianization")
    return quadratic_class(w)


class InvariantHom(WedgeVec):
    """A conjugation-invariant homomorphism on the commutator subgroup,
    given as a linear functional on wedge classes (dual coefficients over
    the lexicographic pair basis)."""

    @classmethod
    def alpha(cls, rank: int, i: int, j: int) -> "InvariantHom":
        """The basis functional sending [a_i, a_j] to 1 and every other
        basis commutator to 0."""
        if not (1 <= i < j <= rank):
            raise IndexError(f"need 1 <= i < j <= {rank}")
        return cls.basis_element(rank, i, j)

    def pair(self, v: WedgeVec) -> Fraction:
        if self.rank != v.rank:
            raise ValueError("rank mismatch")
        return sum((a * b for a, b in zip(self.coeffs, v.coeffs)), Fraction(0))


def hom_eval(phi: InvariantHom, w: FreeWord) -> Fraction:
    """Value of phi on a commutator-subgroup word."""
    return phi.pair(wedge_class(w))
