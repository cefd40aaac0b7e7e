"""Degree-2 truncated Magnus calculus on free groups.

Sends a_i to 1 + x_i in the free associative algebra truncated at degree 2
(so a_i^-1 goes to 1 - x_i + x_i^2) and extracts the wedge class of a
commutator-subgroup word in the second lower-central quotient, identified
with the wedge square of Q^n over the lexicographic pair basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import VecZ, pair_basis, pair_index
from .words import FreeWord, exponent_sums


class NonzeroAbelianizationError(ValueError):
    pass


def abelianize(w: FreeWord) -> VecZ:
    """Signed exponent-sum vector of w."""
    return exponent_sums(w)


def magnus_deg2(w: FreeWord) -> tuple[VecZ, list[VecZ]]:
    """Degree-1 vector and degree-2 coefficient matrix of the truncated
    expansion of w.  Q[i][j] is the coefficient of x_{i+1} x_{j+1}."""
    n = w.rank
    lin = [0] * n
    quad = [[0] * n for _ in range(n)]
    for x in w.letters:
        g = abs(x) - 1
        if x > 0:
            # (1 + L + Q)(1 + x_g): Q += L ⊗ x_g, L += x_g
            for i in range(n):
                if lin[i]:
                    quad[i][g] += lin[i]
            lin[g] += 1
        else:
            # (1 + L + Q)(1 - x_g + x_g^2)
            for i in range(n):
                if lin[i]:
                    quad[i][g] -= lin[i]
            quad[g][g] += 1
            lin[g] -= 1
    return lin, quad


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

    @staticmethod
    def basis_element(rank: int, i: int, j: int) -> "WedgeVec":
        """e_i wedge e_j for i < j."""
        coeffs = [Fraction(0)] * (rank * (rank - 1) // 2)
        coeffs[pair_index(rank)[(i, j)]] = Fraction(1)
        return WedgeVec(rank, tuple(coeffs))

    def __add__(self, other: "WedgeVec") -> "WedgeVec":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return WedgeVec(self.rank,
                        tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "WedgeVec") -> "WedgeVec":
        return self + (-1) * other

    def __rmul__(self, c) -> "WedgeVec":
        c = Fraction(c)
        return WedgeVec(self.rank, tuple(c * a for a in self.coeffs))

    def pairs(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, c)
                for (i, j), c in zip(pair_basis(self.rank), self.coeffs)]


def quadratic_class(w: FreeWord) -> WedgeVec:
    """Half the antisymmetrized pair sum over letter positions.

    No precondition: on arbitrary words this is the wedge part of the image
    of w in the degree-2 free nilpotent quotient; it obeys
    q(uv) = q(u) + q(v) + (1/2) ab(u) ∧ ab(v).
    """
    n = w.rank
    idx = pair_index(n)
    coeffs = [Fraction(0)] * (n * (n - 1) // 2)
    running = [0] * n  # signed counts of letters seen so far
    for x in w.letters:
        g = abs(x)
        sign = 1 if x > 0 else -1
        for i in range(1, n + 1):
            if i == g or running[i - 1] == 0:
                continue
            # pair (earlier letter i, current letter g)
            contrib = Fraction(running[i - 1] * sign, 2)
            if i < g:
                coeffs[idx[(i, g)]] += contrib
            else:
                coeffs[idx[(g, i)]] -= contrib
        running[g - 1] += sign
    return WedgeVec(n, tuple(coeffs))


def wedge_class(w: FreeWord) -> WedgeVec:
    """Image of a commutator-subgroup word in the wedge square, normalized so
    that [a_k, a_l] maps to e_k wedge e_l.  Computed from the Magnus degree-2
    coefficients; integral on the commutator subgroup."""
    if any(s != 0 for s in abelianize(w)):
        raise NonzeroAbelianizationError("word has nonzero abelianization")
    n = w.rank
    _, quad = magnus_deg2(w)
    coeffs = [Fraction(quad[i - 1][j - 1] - quad[j - 1][i - 1], 2)
              for (i, j) in pair_basis(n)]
    return WedgeVec(n, tuple(coeffs))


def pair_sum_class(w: FreeWord) -> WedgeVec:
    """Independent second route to wedge_class via direct position-pair
    enumeration; must agree with wedge_class exactly."""
    if any(s != 0 for s in abelianize(w)):
        raise NonzeroAbelianizationError("word has nonzero abelianization")
    return quadratic_class(w)


@dataclass(frozen=True)
class InvariantHom:
    """A conjugation-invariant homomorphism on the commutator subgroup,
    given as a linear functional on wedge classes (dual coefficients over
    the lexicographic pair basis)."""

    rank: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        expected = self.rank * (self.rank - 1) // 2
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")

    @staticmethod
    def alpha(rank: int, i: int, j: int) -> "InvariantHom":
        """The basis functional sending [a_i, a_j] to 1 and every other
        basis commutator to 0."""
        if not (1 <= i < j <= rank):
            raise IndexError(f"need 1 <= i < j <= {rank}")
        coeffs = [Fraction(0)] * (rank * (rank - 1) // 2)
        coeffs[pair_index(rank)[(i, j)]] = Fraction(1)
        return InvariantHom(rank, tuple(coeffs))

    def __add__(self, other: "InvariantHom") -> "InvariantHom":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return InvariantHom(self.rank,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, c) -> "InvariantHom":
        c = Fraction(c)
        return InvariantHom(self.rank, tuple(c * a for a in self.coeffs))

    def pair(self, v: WedgeVec) -> Fraction:
        if self.rank != v.rank:
            raise ValueError("rank mismatch")
        return sum((a * b for a, b in zip(self.coeffs, v.coeffs)), Fraction(0))

    def __call__(self, w: FreeWord) -> Fraction:
        return self.pair(wedge_class(w))


def hom_eval(phi: InvariantHom, w: FreeWord) -> Fraction:
    return phi(w)


def alpha_eval(i: int, j: int, w: FreeWord) -> Fraction:
    """Coefficient (i, j) of the wedge class of w."""
    if not (1 <= i < j <= w.rank):
        raise IndexError(f"need 1 <= i < j <= {w.rank}")
    return wedge_class(w).coeffs[pair_index(w.rank)[(i, j)]]
