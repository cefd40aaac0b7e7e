"""Quotient structure: the abelianization of a presented group and the two
semidirect-product quotient shapes, with their real cohomology dimensions in
degree two (in degree one it is the free rank).  Real dimensions are ranks;
`abelian_quotient` runs the Smith normal form only for its torsion.
`h2_dim_semidirect` finds the fixed vectors of wedge^2 A inside wedge^2 U,
U the reciprocal part of A.  It splits the reciprocal part of chi_A into
two coprime factors closed under lambda -> 1/lambda: on the squarefree one
the fixed vectors are pairs lambda, 1/lambda of roots and are counted; only
the other, with the repeated roots and their inverses, is eliminated.  All
polynomial arithmetic is over Z: gcds by primitive pseudo-remainder
sequences, and exact division by monic polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import dropwhile
from math import gcd

from . import linalg
from .linalg import (MatZ, VecZ, exterior_square, invariant_factors,
                     is_symplectic)
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

    @cached_property
    def _fixed_dim(self) -> int:
        """dim Ker(I - A) over Q, eliminated once for both H^2 dimensions."""
        ident = linalg.identity(self.n)
        return linalg.kernel_dim(linalg.mat_sub(ident, self.A))


def surface_quotient(genus: int, A, hyperbolicity_asserted: bool = False
                     ) -> SemidirectQuotient:
    return SemidirectQuotient(2 * genus, tuple(tuple(r) for r in A),
                              SURFACE, genus, hyperbolicity_asserted)


def free_quotient(n: int, A, hyperbolicity_asserted: bool = False
                  ) -> SemidirectQuotient:
    return SemidirectQuotient(n, tuple(tuple(r) for r in A),
                              FREE, 0, hyperbolicity_asserted)


def _prem(a: VecZ, b: VecZ) -> VecZ:
    """A pseudo-remainder of a by b over Z: a times a power of b's leading
    coefficient, reduced mod b; no leading zeros, leading term first."""
    while len(a) >= len(b):
        a = [b[0] * x - a[0] * y for x, y in zip(a, b + [0] * len(a))][1:]
        a = list(dropwhile(lambda c: c == 0, a))
    return a


def _poly_gcd(a: VecZ, b: VecZ) -> VecZ:
    """The monic gcd of integer polynomials, one of them monic, by a
    primitive pseudo-remainder sequence.  The gcd divides a monic integer
    polynomial, so it is monic over Z (Gauss's lemma); the last nonzero
    remainder is a multiple of it by its leading coefficient."""
    while b:
        r = _prem(a, b)
        c = gcd(*r) or 1
        a, b = b, [x // c for x in r]
    return [x // a[0] for x in a]


def _quo(a: VecZ, b: VecZ) -> VecZ:
    """a / b for a monic integer b that divides a (synthetic division)."""
    a, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        q.append(a[i])
        for j in range(1, len(b)):
            a[i + j] -= a[i] * b[j]
    return q


def _poly_mul(a: VecZ, b: VecZ) -> VecZ:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _part(chi: VecZ, h: VecZ) -> VecZ:
    """The factor of the monic integer chi, with full multiplicity, whose
    roots are among h's: gcds with h peeled off chi.  Every gcd and quotient
    is monic over Z, so the factor is too."""
    g, rest = _poly_gcd(chi, h), chi
    while len(g) > 1:
        rest = _quo(rest, g)
        g = _poly_gcd(rest, g)
    return _quo(chi, rest)


def _reciprocal_part(chi: VecZ) -> VecZ:
    """The factor of chi (full multiplicity) whose roots have their inverses
    among chi's: the roots of x^n chi(1/x), of degree n as chi(0) = +-1."""
    return _part(chi, chi[::-1])


def h2_dim_semidirect(q: SemidirectQuotient) -> int:
    """dim H^2 of the semidirect quotient:
    dim Ker(I - A) + dim Ker(I - wedge^2 A).

    With m the reciprocal part of chi_A, Q^n = U + W for U = ker m(A) and
    W = ker (chi_A / m)(A); wedge^2 A preserves wedge^2 U, U (x) W and
    wedge^2 W, and an eigenvalue lambda mu = 1 there makes mu = 1/lambda a
    root of m.  So only the fixed vectors in wedge^2 U count.  m's roots
    are closed under lambda -> 1/lambda.  Split m = m1 m2, m2 the part of
    m whose roots are among those of s s* (s = gcd(m, m'), the repeated
    roots; s* its reciprocal).  Both factors are coprime and closed under
    inversion, so U = U1 + U2 (U_i = ker m_i(A)) and U1 (x) U2 has no
    eigenvalue 1: lambda mu = 1 would put 1/lambda, a root of m1, among
    m2's.  m1 is squarefree, so A|U1 is diagonalisable over C with
    distinct eigenvalues; wedge^2 (A|U1) is diagonal on e_i ^ e_j with
    eigenvalue lambda_i lambda_j, and each root lambda != +-1 of m1 pairs
    with exactly one other, 1/lambda, while the simple +-1 pair with none.
    That gives (deg m1 - [m1(1) = 0] - [m1(-1) = 0]) / 2 fixed vectors, by
    counting, with no elimination.

    Only wedge^2 (A|U2) - I, C(k, 2) square for k = deg m2, is eliminated;
    it is skipped when m2 = 1.  U2 has the basis kernel_basis(m2(A)) (the
    standard one for m2 = chi_A, by Cayley-Hamilton), and only u_i is
    nonzero at f_i, the last nonzero coordinate of u_i.  So A|U2 = D^-1 G,
    G_ij = (A u_j)[f_i], D = diag(u_i[f_i]); as wedge^2 (D^-1 G) - I =
    wedge^2 D^-1 (wedge^2 G - wedge^2 D), the integer matrix
    wedge^2 G - diag(d_i d_j) is eliminated."""
    A = q.matrix()
    m = _reciprocal_part(linalg.charpoly(A))
    s = _poly_gcd(m, [c * (len(m) - 1 - i) for i, c in enumerate(m[:-1])])
    m2 = _part(m, _poly_mul(s, s[::-1]))
    m1 = _quo(m, m2)
    ends = sum(sum(c * x ** i for i, c in enumerate(reversed(m1))) == 0
               for x in (1, -1))
    fixed = q._fixed_dim + (len(m1) - 1 - ends) // 2
    if len(m2) == 1:
        return fixed
    m2A = linalg.identity(len(A))
    for c in m2[1:]:
        m2A = [[x + c * (i == j) for j, x in enumerate(row)]
               for i, row in enumerate(linalg.mat_mul(m2A, A))]
    B = linalg.kernel_basis(m2A)
    f = [max(i for i, x in enumerate(u) if x) for u in B]
    AB = [linalg.mat_vec(A, u) for u in B]
    M = exterior_square([[Au[fi] for Au in AB] for fi in f])
    for r, (i, j) in enumerate(linalg.pair_basis(len(B))):
        M[r][r] -= B[i - 1][f[i - 1]] * B[j - 1][f[j - 1]]
    return fixed + linalg.kernel_dim(M)


def h2_dim_total_space(q: SemidirectQuotient) -> int:
    """dim H^2 of the mapping-torus group upstairs: dim Ker(I - A) + 1 for
    the surface shape, dim Ker(I - A) for the free shape."""
    return q._fixed_dim + (q.shape == SURFACE)
