"""Headline dimension reports.

Assembles, for a pair (G, N), the dimensions of the space of invariant
quasimorphisms on N modulo extendable ones, and modulo invariant
homomorphisms plus extendable ones.  Both are bounded above by H^2 of the
quotient through the five-term exact sequence; one rule (`_status`) decides
when a bound is an equality: the comparison map is asserted surjective, or
the upper bound meets its lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .invhoms import quotient_projection
from .linalg import MatZ, identity
from .quotients import (FREE, SURFACE, AbelianQuotient, SemidirectQuotient,
                        free_quotient, h2_dim, h2_dim_semidirect,
                        h2_dim_total_space, surface_quotient)
from .words import FreeWord, Presentation, commutator, generator

EQUALITY = "equality"
UPPER_BOUND = "upper_bound"


class DimValue(NamedTuple):
    value: int
    status: str


@dataclass(frozen=True)
class DimensionReport:
    dim_q_mod_extendable: DimValue
    dim_q_mod_h1_and_extendable: DimValue
    dim_h1NG: int | None
    dim_h2_Gamma: int
    dim_h2_G: int | None
    provenance: tuple[str, ...] = ()


class PreconditionError(ValueError):
    pass


def _status(dim: str, upper: int, lower: int, asserted: bool,
            provenance: list[str], squeezed: str,
            bound_only: str = "") -> DimValue:
    """The upper bound of one dimension, with its status.

    It is an equality when the comparison map is asserted surjective or
    when the upper bound meets the lower bound; only the second case needs
    a note of its own.  `squeezed` and `bound_only` are the notes for the
    squeeze and for a bare bound (none when empty).
    """
    if asserted:
        return DimValue(upper, EQUALITY)
    if upper == lower:
        provenance.append(f"{dim} dimension squeezed: {squeezed}")
        return DimValue(upper, EQUALITY)
    if bound_only:
        provenance.append(f"{dim} dimension: {bound_only}")
    return DimValue(upper, UPPER_BOUND)


def analyze_presentation(P: Presentation,
                         assert_hyperbolic: bool = False) -> DimensionReport:
    """Report for G given by the presentation and N = [G, G].

    The quotient is abelian, so bounded 3-acyclicity is automatic.  Both
    dimensions are bounded by dim H^2 of the abelianization, the second
    after subtracting dim H^1(N)^G.  The lower bounds are dim H^1(N)^G
    (invariant homomorphisms inject) for the first and 0 for the second.
    Both come off `invhoms.quotient_projection`: dim H^2 = C(f, 2) with
    f = n - rank(R) the number of rows of K, and dim H^1(N)^G = C(f, 2) -
    rank Z by the five-term sequence.
    """
    K, Z = quotient_projection(P)
    h2 = h2_dim(AbelianQuotient(len(K)))
    h1ng = h2 - len(Z)
    provenance = ["quotient boundedly 3-acyclic: automatic (abelian, hence "
                  "amenable)"]
    if assert_hyperbolic:
        provenance.append("comparison map surjective: asserted (hyperbolic G)")
    first = _status("first", h2, h1ng, assert_hyperbolic, provenance,
                    "invariant homomorphisms inject and meet the H^2 upper "
                    "bound", "H^2 upper bound only")
    second = _status("second", h2 - h1ng, 0, assert_hyperbolic, provenance,
                     "upper bound is 0", "upper bound only")
    return DimensionReport(first, second, h1ng, h2, None, tuple(provenance))


def _semidirect_report(q: SemidirectQuotient) -> DimensionReport:
    """The two dimensions are bounded by dim H^2 of the quotient and of the
    total space, with lower bound 0; dim H^1(N)^G is their difference once
    both are equalities by assertion."""
    h2_gamma = h2_dim_semidirect(q)
    h2_g = h2_dim_total_space(q)
    asserted = q.hyperbolicity_asserted
    provenance = ["quotient boundedly 3-acyclic: automatic (abelian-by-cyclic,"
                  " hence solvable and amenable)"]
    if asserted:
        provenance.append(
            "comparison map surjective: asserted ("
            + ("pseudo-Anosov monodromy" if q.shape == SURFACE
               else "atoroidal automorphism") + ")")
    else:
        provenance.append("hyperbolicity not asserted: both dimensions are "
                          "upper bounds")
    first = _status("first", h2_gamma, 0, asserted, provenance,
                    "upper bound is 0")
    second = _status("second", h2_g, 0, asserted, provenance,
                     "upper bound is 0")
    return DimensionReport(first, second,
                           h2_gamma - h2_g if asserted else None,
                           h2_gamma, h2_g, tuple(provenance))


def analyze_mapping_torus(q: SemidirectQuotient) -> DimensionReport:
    """Surface-by-cyclic shape; requires genus > 1 and a symplectic matrix
    (checked at construction)."""
    if q.shape != SURFACE:
        raise PreconditionError("expected the surface shape")
    if q.genus <= 1:
        raise PreconditionError("need genus > 1")
    return _semidirect_report(q)


def analyze_free_by_cyclic(q: SemidirectQuotient) -> DimensionReport:
    if q.shape != FREE:
        raise PreconditionError("expected the free shape")
    if q.n <= 1:
        raise PreconditionError("need rank > 1")
    return _semidirect_report(q)


# --- standard families ------------------------------------------------------

def _names(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(f"x{i + 1}" for i in range(n))


def free_group(n: int) -> Presentation:
    return Presentation(n, _names(n))


def surface_relator(l: int) -> FreeWord:
    r = FreeWord(2 * l)
    for i in range(l):
        r = r * commutator(generator(2 * l, 2 * i + 1),
                           generator(2 * l, 2 * i + 2))
    return r


def surface_group(l: int) -> Presentation:
    return Presentation(2 * l, _names(2 * l), (surface_relator(l),))


def circle_bundle_group(l: int, n: int) -> Presentation:
    """Unit circle bundle of Euler number n over the genus-l surface."""
    rank = 2 * l + 1
    fiber = generator(rank, rank)
    relators = [FreeWord(rank, surface_relator(l).letters) * fiber ** n]
    for i in range(1, 2 * l + 1):
        relators.append(commutator(generator(rank, i), fiber))
    return Presentation(rank, _names(rank), tuple(relators))


def one_relator_power_group(n: int, k: int) -> Presentation:
    """<a_1, ..., a_n | [a_1, a_2]^k>."""
    r = commutator(generator(n, 1), generator(n, 2)) ** k
    return Presentation(n, _names(n), (r,))


def remark_group(k: int) -> Presentation:
    """Free product of k copies of <a, b | [a, b]^2>."""
    rank = 2 * k
    relators = tuple(
        commutator(generator(rank, 2 * i + 1), generator(rank, 2 * i + 2)) ** 2
        for i in range(k))
    return Presentation(rank, _names(rank), relators)


PRESET_NAMES = ("free", "surface", "torelli_torus", "free_torus",
                "one_relator_power", "remark_group", "circle_bundle")


def preset(name: str, *, n: int | None = None, l: int | None = None,
           k: int | None = None, A: MatZ | None = None) -> DimensionReport:
    """Run the analyzer for a named standard instance with the flags that
    are justified for it (hyperbolicity asserted where the instance is known
    hyperbolic)."""
    if name == "free":
        _require(n is not None and n >= 0, "free needs n >= 0")
        return analyze_presentation(free_group(n))
    if name == "surface":
        _require(l is not None and l >= 2, "surface needs genus l >= 2")
        return analyze_presentation(surface_group(l), assert_hyperbolic=True)
    if name == "torelli_torus":
        _require(l is not None and l >= 2, "torelli_torus needs genus l >= 2")
        q = surface_quotient(l, identity(2 * l), hyperbolicity_asserted=True)
        return analyze_mapping_torus(q)
    if name == "free_torus":
        _require(A is not None, "free_torus needs a matrix A")
        q = free_quotient(len(A), A)
        return analyze_free_by_cyclic(q)
    if name == "one_relator_power":
        _require(n is not None and n >= 2, "one_relator_power needs n >= 2")
        _require(k is not None and k >= 2, "one_relator_power needs k >= 2")
        # one-relator groups with torsion are hyperbolic
        return analyze_presentation(one_relator_power_group(n, k),
                                    assert_hyperbolic=True)
    if name == "remark_group":
        _require(k is not None and k >= 1, "remark_group needs k >= 1")
        # free product of hyperbolic one-relator-with-torsion factors
        return analyze_presentation(remark_group(k), assert_hyperbolic=True)
    if name == "circle_bundle":
        _require(l is not None and l >= 2, "circle_bundle needs genus l >= 2")
        _require(k is not None and k != 0,
                 "circle_bundle needs a nonzero Euler number k")
        # equality follows from the two-sided squeeze; no hyperbolicity flag
        return analyze_presentation(circle_bundle_group(l, k))
    raise PreconditionError(f"unknown preset {name!r}; known: {PRESET_NAMES}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise PreconditionError(msg)
