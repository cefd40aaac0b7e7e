"""Quotient structure: the abelianization of a presented group and the two
semidirect-product quotient shapes, with their real cohomology dimensions in
degrees one and two.  Real dimensions are ranks; `abelian_quotient` runs
the Smith normal form only for its torsion."""

from __future__ import annotations

from dataclasses import dataclass

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


def h1_dim(q: AbelianQuotient) -> int:
    """dim of degree-one real cohomology; torsion contributes nothing."""
    return q.free_rank


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


def h2_dim_semidirect(q: SemidirectQuotient) -> int:
    """dim H^2 of the semidirect quotient:
    dim Ker(I - A) + dim Ker(I - wedge^2 A)."""
    A = q.matrix()
    A2 = exterior_square(A)
    m = len(A2)
    return fixed_space_dim(A) + linalg.kernel_dim(
        linalg.mat_sub(linalg.identity(m), A2))


def h2_dim_total_space(q: SemidirectQuotient) -> int:
    """dim H^2 of the mapping-torus group upstairs: dim Ker(I - A) + 1 for
    the surface shape, dim Ker(I - A) for the free shape."""
    k = fixed_space_dim(q.matrix())
    return k + 1 if q.shape == SURFACE else k
