from fractions import Fraction

import pytest

from conftest import rand_commutator_word, rand_word
from invqm.linalg import pair_basis
from invqm.magnus import (InvariantHom, NonzeroAbelianizationError, WedgeVec,
                          abelianize, doubled_class, hom_eval,
                          quadratic_class, wedge_class)
from invqm.words import (FreeWord, commutator, conjugate, generator,
                         parse_word)
from test_acceptance_helpers import magnus_deg2, magnus_wedge_class


def comm_of_gens(rank, i, j):
    return commutator(generator(rank, i), generator(rank, j))


class TestAbelianize:
    def test_commutator(self):
        assert abelianize(comm_of_gens(2, 1, 2)) == [0, 0]

    def test_mixed(self):
        assert abelianize(parse_word("a^2 B", ["a", "b"])) == [2, -1]

    def test_additive(self, rng):
        for _ in range(30):
            u, v = rand_word(rng, 3, 10), rand_word(rng, 3, 10)
            assert abelianize(u * v) == [
                a + b for a, b in zip(abelianize(u), abelianize(v))]


class TestMagnusDeg2:
    def test_commutator(self):
        lin, quad = magnus_deg2(comm_of_gens(2, 1, 2))
        assert lin == [0, 0]
        assert quad == [[0, 1], [-1, 0]]

    def test_empty(self):
        lin, quad = magnus_deg2(FreeWord(2))
        assert lin == [0, 0] and quad == [[0, 0], [0, 0]]

    def test_square(self):
        lin, quad = magnus_deg2(FreeWord(2, (1, 1)))
        assert lin == [2, 0]
        assert quad[0][0] == 1

    def test_inverse_letter(self):
        # (1 - x + x^2): linear -1, quadratic +1
        lin, quad = magnus_deg2(FreeWord(1, (-1,)))
        assert lin == [-1] and quad == [[1]]


class TestWedgeClass:
    def test_basis_commutators(self):
        v = wedge_class(comm_of_gens(4, 1, 2))
        assert v == WedgeVec.basis_element(4, 1, 2)

    def test_additive_on_products(self):
        w = comm_of_gens(4, 1, 2) * comm_of_gens(4, 3, 4)
        assert w == parse_word("[a,b][c,d]", list("abcd"))
        assert wedge_class(w) == (WedgeVec.basis_element(4, 1, 2)
                                  + WedgeVec.basis_element(4, 3, 4))

    def test_conjugation_invariant(self, rng):
        target = comm_of_gens(4, 1, 2)
        for _ in range(50):
            g = rand_word(rng, 4, 8)
            assert wedge_class(conjugate(g, target)) == wedge_class(target)

    def test_rejects_nonzero_abelianization(self):
        with pytest.raises(NonzeroAbelianizationError):
            wedge_class(generator(2, 1))

    def test_integral_on_commutator_subgroup(self, rng):
        for _ in range(50):
            w = rand_commutator_word(rng, 3, 30)
            assert all(c.denominator == 1 for c in wedge_class(w).coeffs)


class TestPairSumOracle:
    """The pair-sum routine behind wedge_class against the Magnus oracle."""

    def test_commutator(self):
        assert doubled_class(comm_of_gens(2, 1, 2)) == [2]
        assert quadratic_class(comm_of_gens(2, 1, 2)).coeffs == (Fraction(1),)

    def test_commutator_squared(self):
        w = comm_of_gens(2, 1, 2) ** 2
        assert quadratic_class(w).coeffs == (Fraction(2),)

    def test_agrees_with_wedge_class(self, rng):
        for _ in range(500):
            w = rand_commutator_word(rng, 4, 30)
            assert magnus_wedge_class(w) == wedge_class(w)

    def test_doubled_class_on_any_word(self, rng):
        # off the diagonal the Magnus coefficient Q[i][j] is the signed
        # count of letter pairs a_i before a_j, on every word
        for _ in range(300):
            w = rand_word(rng, 4, 30)
            _, quad = magnus_deg2(w)
            assert doubled_class(w) == [quad[i - 1][j - 1] - quad[j - 1][i - 1]
                                        for i, j in pair_basis(4)]

    def test_additivity(self, rng):
        for _ in range(100):
            u = rand_commutator_word(rng, 3, 15)
            v = rand_commutator_word(rng, 3, 15)
            assert wedge_class(u * v) == wedge_class(u) + wedge_class(v)

    def test_conjugation_invariance_random(self, rng):
        for _ in range(100):
            w = rand_commutator_word(rng, 3, 15)
            g = rand_word(rng, 3, 8)
            assert wedge_class(conjugate(g, w)) == wedge_class(w)

    def test_bilinearity_through_commutators(self, rng):
        for _ in range(50):
            x1, x2, y = (rand_word(rng, 3, 6) for _ in range(3))
            lhs = wedge_class(commutator(x1 * x2, y))
            rhs = wedge_class(commutator(x1, y)) + wedge_class(
                commutator(x2, y))
            assert lhs == rhs


class TestAlphaEval:
    def test_duality_on_basis(self):
        alpha = InvariantHom.alpha(4, 1, 2)
        assert hom_eval(alpha, comm_of_gens(4, 1, 2)) == 1
        assert hom_eval(alpha, comm_of_gens(4, 3, 4)) == 0

    def test_vanishes_on_mixed_commutators(self, rng):
        # [g, x] with x in the commutator subgroup has zero wedge class
        for _ in range(20):
            g = rand_word(rng, 2, 8)
            x = rand_commutator_word(rng, 2, 12)
            assert hom_eval(InvariantHom.alpha(2, 1, 2),
                            commutator(g, x)) == 0

    def test_power_expansion(self):
        a, b = generator(2, 1), generator(2, 2)
        assert hom_eval(InvariantHom.alpha(2, 1, 2),
                        commutator(a * a, b)) == 2

    def test_hom_eval_linear(self, rng):
        phi = Fraction(2) * InvariantHom.alpha(3, 1, 2) + \
            Fraction(-3) * InvariantHom.alpha(3, 2, 3)
        for _ in range(20):
            u = rand_commutator_word(rng, 3, 15)
            v = rand_commutator_word(rng, 3, 15)
            assert hom_eval(phi, u * v) == hom_eval(phi, u) + hom_eval(phi, v)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            InvariantHom.alpha(2, 2, 1)

    def test_operators_keep_the_functional_type(self):
        phi = InvariantHom.alpha(3, 1, 2) + InvariantHom.alpha(3, 2, 3)
        for value in (phi, Fraction(1, 2) * phi, 3 * phi,
                      phi - InvariantHom.alpha(3, 1, 3)):
            assert type(value) is InvariantHom
        assert phi.coeffs == (1, 0, 1)
        assert (2 * phi).pair(WedgeVec.basis_element(3, 2, 3)) == 2
        assert type(2 * WedgeVec.basis_element(3, 1, 2)) is WedgeVec
