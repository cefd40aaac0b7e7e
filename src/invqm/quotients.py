"""Quotient structure: the abelianization of a presented group and the two
semidirect-product quotient shapes, with their real cohomology dimensions in
degree two (in degree one it is the free rank).  Real dimensions are ranks;
`abelian_quotient` runs the Smith normal form only for its torsion.
`h2_dim_semidirect` finds the fixed vectors of wedge^2 A inside wedge^2 U,
U the reciprocal part of A, by one integer elimination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import dropwhile

from . import linalg
from .linalg import MatZ, exterior_square, invariant_factors, is_symplectic
from .magnus import abelianize
from .words import Presentation


@dataclass(frozen=True)
class AbelianQuotient:
    """Finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion must be a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion entries must exceed 1")


def relator_abelianization_matrix(P: Presentation) -> MatZ:
    """Row i is ab(r_i); the one place this matrix is built."""
    return [abelianize(r) for r in P.relators]


def abelian_quotient(P: Presentation) -> AbelianQuotient:
    """G/[G,G] for G given by the presentation, via Smith normal form of the
    relator abelianization matrix."""
    if not P.relators:
        return AbelianQuotient(P.rank)
    factors = invariant_factors(relator_abelianization_matrix(P))
    return AbelianQuotient(P.rank - len(factors),
                           tuple(d for d in factors if d > 1))


def h2_dim(q: AbelianQuotient) -> int:
    """dim of degree-two real cohomology: pairs of free generators."""
    r = q.free_rank
    return r * (r - 1) // 2


SURFACE = "surface"
FREE = "free"


@dataclass(frozen=True)
class SemidirectQuotient:
    """Z^n twisted by a unimodular integer matrix A over a cyclic base.

    shape 'surface' (n = 2l, A symplectic) models the fiber being a genus-l
    surface group; shape 'free' models a free-group fiber.  The
    hyperbolicity bit is a user assertion (pseudo-Anosov monodromy for the
    surface shape, atoroidal automorphism for the free shape); it is never
    verified here.
    """

    n: int
    A: tuple[tuple[int, ...], ...]
    shape: str
    genus: int = 0
    hyperbolicity_asserted: bool = False

    def __post_init__(self):
        if self.shape not in (SURFACE, FREE):
            raise ValueError(f"unknown shape {self.shape!r}")
        A = self.matrix()
        if len(A) != self.n or any(len(row) != self.n for row in A):
            raise ValueError("matrix must be n x n")
        if not all(isinstance(x, int) for row in A for x in row):
            raise ValueError("matrix entries must be integers")
        if not linalg.is_unimodular(A):
            raise ValueError("matrix must have determinant +1 or -1")
        if self.shape == SURFACE:
            if self.n != 2 * self.genus:
                raise ValueError("surface shape needs n = 2 * genus")
            if not is_symplectic(A):
                raise ValueError("surface shape needs a symplectic matrix")

    def matrix(self) -> MatZ:
        return [list(row) for row in self.A]


def surface_quotient(genus: int, A, hyperbolicity_asserted: bool = False
                     ) -> SemidirectQuotient:
    return SemidirectQuotient(2 * genus, tuple(tuple(r) for r in A),
                              SURFACE, genus, hyperbolicity_asserted)


def free_quotient(n: int, A, hyperbolicity_asserted: bool = False
                  ) -> SemidirectQuotient:
    return SemidirectQuotient(n, tuple(tuple(r) for r in A),
                              FREE, 0, hyperbolicity_asserted)


def fixed_space_dim(A: MatZ) -> int:
    """dim Ker(I - A) over Q."""
    n = len(A)
    return linalg.kernel_dim(linalg.mat_sub(linalg.identity(n), A))


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder (no leading zeros) over Q, leading term first."""
    a, q = [Fraction(c) for c in a], []
    while len(a) >= len(b):
        q.append(a[0] / b[0])
        a = [x - q[-1] * y for x, y in zip(a, b + [0] * len(a))][1:]
    return q, list(dropwhile(lambda c: c == 0, a))


def _poly_gcd(a: list, b: list) -> list:
    return (_poly_gcd(b, _poly_divmod(a, b)[1]) if b
            else [Fraction(c, a[0]) for c in a])


def _reciprocal_part(chi: list[int]) -> list[int]:
    """The factor of chi (full multiplicity) whose roots have their inverses
    among chi's, peeled off by gcds with x^n chi(1/x), of degree n as
    chi(0) = +-1.  It is monic over Z by Gauss's lemma, as chi is."""
    h, rest = _poly_gcd(chi, chi[::-1]), chi
    while len(h) > 1:
        rest = _poly_divmod(rest, h)[0]
        h = _poly_gcd(rest, h)
    return [int(c) for c in _poly_divmod(chi, rest)[0]]


def h2_dim_semidirect(q: SemidirectQuotient) -> int:
    """dim H^2 of the semidirect quotient:
    dim Ker(I - A) + dim Ker(I - wedge^2 A).

    With m the reciprocal part of chi_A, Q^n = U + W for U = ker m(A) and
    W = ker (chi_A / m)(A); wedge^2 A preserves wedge^2 U, U (x) W and
    wedge^2 W, and an eigenvalue lambda mu = 1 there makes mu = 1/lambda a
    root of m.  So only wedge^2 (A|U) - I, C(k, 2) square for k = deg m,
    matters.  One path serves every k: U has the basis kernel_basis(m(A))
    (the standard one for k = n, as m(A) = chi_A(A) = 0), and only u_i is
    nonzero at f_i, the last nonzero coordinate of u_i.  So A|U = D^-1 G,
    G_ij = (A u_j)[f_i], D = diag(u_i[f_i]); as wedge^2 (D^-1 G) - I =
    wedge^2 D^-1 (wedge^2 G - wedge^2 D), the integer matrix
    wedge^2 G - diag(d_i d_j) is eliminated."""
    A = q.matrix()
    m = _reciprocal_part(linalg.charpoly(A))
    mA = linalg.identity(len(A))
    for c in m[1:]:
        mA = [[x + c * (i == j) for j, x in enumerate(row)]
              for i, row in enumerate(linalg.mat_mul(mA, A))]
    B = linalg.kernel_basis(mA)
    f = [max(i for i, x in enumerate(u) if x) for u in B]
    AB = [linalg.mat_vec(A, u) for u in B]
    M = exterior_square([[Au[fi] for Au in AB] for fi in f])
    for r, (i, j) in enumerate(linalg.pair_basis(len(B))):
        M[r][r] -= B[i - 1][f[i - 1]] * B[j - 1][f[j - 1]]
    return fixed_space_dim(A) + linalg.kernel_dim(M)


def h2_dim_total_space(q: SemidirectQuotient) -> int:
    """dim H^2 of the mapping-torus group upstairs: dim Ker(I - A) + 1 for
    the surface shape, dim Ker(I - A) for the free shape."""
    k = fixed_space_dim(q.matrix())
    return k + 1 if q.shape == SURFACE else k
