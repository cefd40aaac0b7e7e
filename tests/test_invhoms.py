import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_commutator_word, rand_word
from invqm.engine import (circle_bundle_group, free_group,
                          one_relator_power_group, remark_group,
                          surface_group)
from invqm.invhoms import (NotInCommutatorSubgroupError, constraint_space,
                           evaluate_on_quotient, inv_hom_dim)
from invqm.linalg import (VecZ, annihilator, echelon, identity, kernel_basis,
                          pair_basis, rank, rref)
from invqm.magnus import InvariantHom, WedgeVec, doubled_class, hom_eval
from invqm.quotients import relator_abelianization_matrix
from invqm.words import (FreeWord, Presentation, commutator, conjugate,
                         generator, parse_presentation, parse_word)
from test_engine import presentations


def homs(n, rows):
    return tuple(InvariantHom(n, tuple(map(Fraction, row))) for row in rows)


def constraint_rows(P: Presentation) -> list[VecZ]:
    """Rows spanning W over all of the wedge square of Q^n, the oracle for
    the projection to Q^f: e_j ∧ ab(r) for each relator of nonzero
    abelianization, entry (i, k) d_ij mu_k - d_kj mu_i, and the doubled
    classes of the relator combinations with zero abelianization, taken
    over Q: Bareiss elimination of the rows [ab(r) | 2q(r)] leaves them
    past the first n pivot columns."""
    n = P.rank
    R = relator_abelianization_matrix(P)
    rows = [[(i == j) * mu[k - 1] - (k == j) * mu[i - 1]
             for i, k in pair_basis(n)]
            for mu in filter(any, R) for j in range(1, n + 1)]
    lifted, pivots = echelon(
        [mu + doubled_class(r) for mu, r in zip(R, P.relators)])
    return rows + [row[n:] for row, p in zip(lifted, pivots) if p >= n]


def surface_class(l):
    v = WedgeVec.zero(2 * l)
    for i in range(l):
        v = v + WedgeVec.basis_element(2 * l, 2 * i + 1, 2 * i + 2)
    return v


class TestConstraintSpace:
    def test_free_group_empty(self):
        assert constraint_space(free_group(4)).basis == ()

    def test_surface_is_span_v1(self):
        for l in (2, 3):
            W = constraint_space(surface_group(l))
            assert W.dim == 1
            assert W.basis[0] == surface_class(l)

    def test_circle_bundle(self):
        for l, n in ((2, 1), (2, 3), (3, 2)):
            W = constraint_space(circle_bundle_group(l, n))
            assert W.dim == 2 * l

    def test_relators_in_gamma3_give_no_constraints(self):
        # [[a,b],c] and friends lie in the third lower-central term
        P = parse_presentation(
            "gens: a, b, c\nrel: [[a,b],c]\nrel: [[b,c],a]\n")
        assert constraint_space(P).dim == 0
        assert inv_hom_dim(P) == 3


class TestFiveTermRoute:
    """The projection to Q^f against the constraint rows over all of
    ∧²Q^n: the dimension, W's RREF and the annihilator's RREF."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(presentations(max_rank=9))
    def test_matches_the_constraint_rows(self, P):
        n = P.rank
        rows = constraint_rows(P)
        assert inv_hom_dim(P) == n * (n - 1) // 2 - rank(rows)
        W = constraint_space(P)
        assert [list(v.coeffs) for v in W.basis] == rref(rows)[0]
        R, _ = rref(kernel_basis(rows) if rows
                    else identity(n * (n - 1) // 2))
        assert W.homs == homs(n, R)


class TestDimensions:
    def test_free(self):
        for n in (2, 3, 4, 5):
            assert inv_hom_dim(free_group(n)) == n * (n - 1) // 2

    def test_surface(self):
        for l in (2, 3, 4):
            assert inv_hom_dim(surface_group(l)) == l * (2 * l - 1) - 1

    def test_one_relator_power(self):
        for n, k in ((2, 2), (3, 2), (3, 3), (4, 5)):
            assert inv_hom_dim(one_relator_power_group(n, k)) == \
                n * (n - 1) // 2 - 1

    def test_remark_groups(self):
        for k in (1, 2, 3):
            n = 2 * k
            assert inv_hom_dim(remark_group(k)) == n * (n - 1) // 2 - k

    def test_monotone_under_adding_relators(self, rng):
        names = ("a", "b", "c")
        relators = []
        prev = 3
        for _ in range(4):
            relators.append(rand_commutator_word(rng, 3, 12)
                            * rand_word(rng, 3, 4))
            d = inv_hom_dim(Presentation(3, names, tuple(relators)))
            assert d <= prev
            prev = d


class TestBasis:
    def test_free_group_basis_is_alpha(self):
        basis = constraint_space(free_group(3)).homs
        assert len(basis) == 3
        expected = [InvariantHom.alpha(3, 1, 2), InvariantHom.alpha(3, 1, 3),
                    InvariantHom.alpha(3, 2, 3)]
        assert list(basis) == expected

    def test_annihilation_exact(self):
        for P in (surface_group(2), circle_bundle_group(2, 3),
                  one_relator_power_group(3, 2)):
            W = constraint_space(P)
            basis = W.homs
            assert len(basis) == inv_hom_dim(P)
            for phi in basis:
                for b in W.basis:
                    assert phi.pair(b) == 0

    @staticmethod
    def rref_of_kernel(n, rows):
        """The annihilator's RREF by eliminating its kernel basis again."""
        R, _ = rref(kernel_basis(rows) if rows else identity(n * (n - 1) // 2))
        return homs(n, R)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(presentations())
    def test_matches_second_elimination_on_presentations(self, P):
        n = P.rank
        W = constraint_space(P)
        rows = [v.coeffs for v in W.basis]
        assert homs(n, annihilator(n * (n - 1) // 2, rows)) == \
            self.rref_of_kernel(n, rows)
        assert W.homs == self.rref_of_kernel(n, rows)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2), max_size=n * (n - 1) // 2))))
    def test_matches_second_elimination_on_any_rref(self, n_rows):
        n, rows = n_rows
        rows = rref(rows)[0]
        assert homs(n, annihilator(n * (n - 1) // 2, rows)) == \
            self.rref_of_kernel(n, rows)

    def test_basis_independent(self):
        from invqm.linalg import rank
        basis = constraint_space(surface_group(2)).homs
        rows = [[c for c in phi.coeffs] for phi in basis]
        assert rank(rows) == len(basis)


class TestEvaluateOnQuotient:
    def test_free_case_reduces_to_hom_eval(self, rng):
        P = free_group(3)
        phi = InvariantHom.alpha(3, 1, 2)
        for _ in range(10):
            w = rand_commutator_word(rng, 3, 20)
            assert evaluate_on_quotient(phi, w, P) == hom_eval(phi, w)

    def test_surface_relator_evaluates_to_zero(self):
        P = surface_group(2)
        for phi in constraint_space(P).homs:
            assert evaluate_on_quotient(phi, P.relators[0], P) == 0

    def test_well_defined_under_relator_multiplication(self, rng):
        for P in (surface_group(2), one_relator_power_group(2, 2),
                  circle_bundle_group(2, 2)):
            basis = constraint_space(P).homs
            for _ in range(34):
                w = rand_commutator_word(rng, P.rank, 16)
                g = rand_word(rng, P.rank, 6)
                r = P.relators[rng.randrange(len(P.relators))]
                sign = rng.choice([1, -1])
                w2 = w * conjugate(g, r ** sign)
                for phi in basis:
                    assert evaluate_on_quotient(phi, w, P) == \
                        evaluate_on_quotient(phi, w2, P)

    def test_rejects_words_outside_commutator_subgroup(self):
        P = surface_group(2)
        phi = constraint_space(P).homs[0]
        with pytest.raises(NotInCommutatorSubgroupError):
            evaluate_on_quotient(phi, generator(4, 1), P)

    def test_integer_not_rational_lattice_membership(self):
        # ab(a b) = (1, 1, 0) is half of ab(a^2 b^2): in the Q-span of the
        # relator abelianizations but not in their Z-span.  The relator
        # matrix has no left kernel, so the coordinates of a^2 b^2 [a,c]
        # are unique and the value on alpha_13 is that of [a,c].
        P = parse_presentation("gens: a, b, c\n"
                               "rel: a^2 b^2\nrel: [a,b] c^3\n")
        phi = InvariantHom.alpha(3, 1, 3)
        with pytest.raises(NotInCommutatorSubgroupError):
            evaluate_on_quotient(phi, parse_word("a b", P.names), P)
        w = parse_word("a^2 b^2 [a,c]", P.names)
        assert evaluate_on_quotient(phi, w, P) == 1

    def test_circle_bundle_fiber_power_accepted(self):
        # the fiber^n class lies in the relator lattice even though its
        # abelianization is nonzero
        P = circle_bundle_group(2, 3)
        fiber = generator(5, 5)
        phi = constraint_space(P).homs[0]
        value = evaluate_on_quotient(phi, fiber ** -3, P)
        assert isinstance(value, Fraction)
