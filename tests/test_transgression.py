from fractions import Fraction

from invqm.linalg import pair_basis
from invqm.magnus import InvariantHom, hom_eval
from invqm.transgression import (Transgressor, antisym_pairing,
                                 cocycle_coboundary, cup_class_matrix, lift_F,
                                 standard_section, transgress)
from invqm.words import FreeWord, commutator, generator

from conftest import rand_commutator_word


def commutator_pairing(f, g1, g2):
    """Independent oracle: evaluate f directly on the commutator of the
    section values."""
    s1 = standard_section(f.rank, g1)
    s2 = standard_section(f.rank, g2)
    return hom_eval(f, commutator(s1, s2))


def rand_vec(rng, n, bound=4):
    return [rng.randint(-bound, bound) for _ in range(n)]


class TestSection:
    def test_values(self):
        assert standard_section(2, (2, -1)).letters == (1, 1, -2)
        assert standard_section(3, (0, 0, 0)).letters == ()

    def test_additive_on_single_coordinate(self):
        s = standard_section
        assert s(2, (3, 0)) * s(2, (-1, 0)) == s(2, (2, 0))


class TestTransgress:
    def test_rank2_values(self):
        f = InvariantHom.alpha(2, 1, 2)
        assert transgress(f, (1, 0), (0, 1)) == 0
        assert transgress(f, (0, 1), (1, 0)) == -1
        assert antisym_pairing(f, (1, 0), (0, 1)) == 1

    def test_cocycle_identity(self, rng):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            f = InvariantHom.alpha(3, i, j)
            for _ in range(200):
                g1, g2, g3 = (rand_vec(rng, 3) for _ in range(3))
                assert cocycle_coboundary(f, g1, g2, g3) == 0

    def test_antisym_equals_commutator_oracle(self, rng):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            f = InvariantHom.alpha(3, i, j)
            for _ in range(50):
                g1, g2 = rand_vec(rng, 3), rand_vec(rng, 3)
                assert antisym_pairing(f, g1, g2) == \
                    commutator_pairing(f, g1, g2)

    def test_vanishes_on_zero_argument(self, rng):
        f = InvariantHom.alpha(3, 2, 3)
        z = [0, 0, 0]
        for _ in range(10):
            g = rand_vec(rng, 3)
            assert transgress(f, z, g) == 0
            assert transgress(f, g, z) == 0

    def test_linear_in_functional(self, rng):
        basis = [InvariantHom.alpha(3, i, j) for i, j in pair_basis(3)]
        for _ in range(50):
            cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in basis]
            f = InvariantHom(3, tuple(Fraction(0) for _ in basis))
            for c, b in zip(cs, basis):
                f = f + c * b
            g1, g2 = rand_vec(rng, 3), rand_vec(rng, 3)
            expected = sum((c * transgress(b, g1, g2)
                            for c, b in zip(cs, basis)), Fraction(0))
            assert transgress(f, g1, g2) == expected

    def test_pairing_bilinear(self, rng):
        f = InvariantHom.alpha(3, 1, 2)
        for _ in range(30):
            g1, g2, h = (rand_vec(rng, 3) for _ in range(3))
            lhs = antisym_pairing(f, [a + b for a, b in zip(g1, h)], g2)
            rhs = antisym_pairing(f, g1, g2) + antisym_pairing(f, h, g2)
            assert lhs == rhs


def transgressor_cup_matrix(f):
    """Oracle: the antisymmetrized transgressed cocycle on basis vectors,
    through section words."""
    t = Transgressor(f)
    basis = [[int(j == i) for j in range(f.rank)] for i in range(f.rank)]
    return [[t(u, v) - t(v, u) for v in basis] for u in basis]


class TestCupClassMatrix:
    def test_matches_the_transgressor_route(self, rng):
        for n in range(2, 8):
            for _ in range(5):
                f = InvariantHom(n, tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in pair_basis(n)))
                assert cup_class_matrix(f) == transgressor_cup_matrix(f)

    def test_recovers_dual_coefficients(self):
        idx = {(i, j): k for k, (i, j) in enumerate(pair_basis(3))}
        for (i, j), k in idx.items():
            M = cup_class_matrix(InvariantHom.alpha(3, i, j))
            for p in range(3):
                for q in range(3):
                    want = 0
                    if (p + 1, q + 1) == (i, j):
                        want = 1
                    elif (q + 1, p + 1) == (i, j):
                        want = -1
                    assert M[p][q] == want

    def test_injectivity_certificate(self, rng):
        # a nonzero functional always yields a nonzero matrix
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in pair_basis(4)]
            f = InvariantHom(4, tuple(coeffs))
            M = cup_class_matrix(f)
            nonzero = any(any(x != 0 for x in row) for row in M)
            assert nonzero == any(c != 0 for c in coeffs)


class TestLift:
    def test_restricts_to_f_on_commutator_subgroup(self, rng):
        f = InvariantHom.alpha(3, 1, 2)
        for _ in range(30):
            g = rand_commutator_word(rng, 3, 16)
            assert lift_F(f, g) == hom_eval(f, g)

    def test_vanishes_on_section_values(self, rng):
        f = InvariantHom.alpha(3, 1, 3)
        for _ in range(20):
            m = rand_vec(rng, 3)
            assert lift_F(f, standard_section(3, m)) == 0

    def test_swap_example(self):
        f = InvariantHom.alpha(2, 1, 2)
        g = generator(2, 2) * generator(2, 1)  # b a = s(1,1) * [a,b]^-1 form
        assert lift_F(f, g) == -1


class TestMemoization:
    def test_memo_consistent(self, rng):
        f = InvariantHom.alpha(3, 2, 3)
        t = Transgressor(f)
        for _ in range(20):
            g1, g2 = rand_vec(rng, 3), rand_vec(rng, 3)
            first = t(g1, g2)
            assert t(g1, g2) == first == transgress(f, g1, g2)
