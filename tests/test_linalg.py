import math
import random
from fractions import Fraction

import pytest

from invqm.linalg import (charpoly, echelon, exterior_square, identity,
                          invariant_factors, is_symplectic, is_unimodular,
                          kernel_basis, mat_mul, mat_vec, pair_basis, rank,
                          rref)
from test_acceptance_helpers import random_unimodular


def rand_mat_q(rng, m, n, max_num=6, max_den=4):
    return [[Fraction(rng.randint(-max_num, max_num),
                      rng.randint(1, max_den)) for _ in range(n)]
            for _ in range(m)]


def rand_mat_z(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def gauss_rank(M):
    """Independent rank oracle: plain fractional Gaussian elimination."""
    A = [[Fraction(x) for x in row] for row in M]
    m, n = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            if A[i][c] != 0:
                f = A[i][c] / A[r][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


class TestRankKernel:
    def test_identity(self):
        assert rank(identity(3)) == 3
        assert kernel_basis(identity(3)) == []

    def test_zero_matrix(self):
        assert len(kernel_basis([[0, 0], [0, 0]])) == 2

    def test_rank_against_oracle(self, rng):
        for _ in range(50):
            M = rand_mat_q(rng, 6, 6)
            assert rank(M) == gauss_rank(M)

    def test_rank_plus_kernel_is_columns(self, rng):
        for _ in range(30):
            M = rand_mat_q(rng, 4, 6)
            assert rank(M) + len(kernel_basis(M)) == 6

    def test_kernel_vectors_annihilated_and_integral(self, rng):
        for _ in range(30):
            M = rand_mat_q(rng, 3, 5)
            for v in kernel_basis(M):
                assert all(isinstance(x, int) for x in v)
                assert all(x == 0 for x in mat_vec(M, v))

    def test_kernel_basis_independent(self, rng):
        for _ in range(20):
            M = rand_mat_q(rng, 3, 5)
            basis = kernel_basis(M)
            if basis:
                assert rank(basis) == len(basis)


class TestSmithNormalForm:
    def test_identity(self):
        assert invariant_factors(identity(3)) == [1, 1, 1]

    def test_diag_4_6(self):
        # invariant factors are gcd(4,6)=2 and (4*6)/2=12
        assert invariant_factors([[4, 0], [0, 6]]) == [2, 12]


def rand_mat_deficient(rng, rational):
    """Random m x n matrix of rank at most a random k <= min(m, n),
    often rank-deficient, with up to two zero rows inserted."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    k = rng.randint(0, min(m, n))
    make = ((lambda a, b: rand_mat_q(rng, a, b, max_num=3, max_den=3))
            if rational else (lambda a, b: rand_mat_z(rng, a, b, bound=3)))
    A = mat_mul(make(m, k), make(k, n)) if k else [[0] * n for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        A.insert(rng.randint(0, len(A)), [0] * n)
    return A


def primitive(row):
    """Integer multiple of a rational row with content 1, positive leading
    entry."""
    scale = math.lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def sympy_det(sympy, M):
    """Determinant oracle, exact on rational input."""
    d = sympy.Matrix(M).det()
    return Fraction(int(d.p), int(d.q))


class TestSympyOracle:
    def test_invariant_factors(self, rng, sympy):
        from sympy.matrices.normalforms import invariant_factors as oracle
        for _ in range(200):
            A = rand_mat_deficient(rng, rational=False)
            expected = [abs(int(d)) for d in
                        oracle(sympy.Matrix(A), domain=sympy.ZZ) if d != 0]
            assert invariant_factors(A) == expected

    def test_charpoly(self, rng, sympy):
        assert charpoly([]) == [1]
        for _ in range(200):
            n = rng.randint(1, 9)
            A = rand_mat_z(rng, n, n, bound=rng.choice((1, 3, 40)))
            expected = sympy.Matrix(A).charpoly().all_coeffs()
            assert charpoly(A) == [int(c) for c in expected]

    @pytest.mark.parametrize("rational", [False, True])
    def test_rank_det_rref(self, rng, sympy, rational):
        for _ in range(200):
            A = rand_mat_deficient(rng, rational)
            M = sympy.Matrix(A)
            assert rank(A) == M.rank()
            R, pivots = M.rref()
            rows = [[Fraction(int(x.p), int(x.q)) for x in R.row(i)]
                    for i in range(len(pivots))]
            assert rref(A) == ([primitive(row) for row in rows],
                               list(pivots))
            S = [row[:len(A)] + [Fraction(rng.randint(-3, 3), 2)
                                 for _ in range(len(A) - len(row))]
                 for row in A]
            # the last Bareiss pivot is the determinant, up to sign, of the
            # rows scaled to integers
            d = sympy_det(sympy, S)
            rows, pivots = echelon(S)
            assert (len(pivots) == len(S)) == (d != 0)
            if d:
                scale = math.prod(math.lcm(*(Fraction(x).denominator
                                             for x in row)) for row in S)
                assert abs(rows[-1][pivots[-1]]) == abs(d) * scale

    def test_is_unimodular(self, rng, sympy):
        # random, singular (a product through k < n) and unimodular draws
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 6)
            kind = rng.randrange(3)
            if kind == 0:
                A = rand_mat_z(rng, n, n, bound=rng.choice((1, 2, 5)))
            elif kind == 1:
                k = rng.randint(1, n - 1)
                A = mat_mul(rand_mat_z(rng, n, k, bound=3),
                            rand_mat_z(rng, k, n, bound=3))
            else:
                A = random_unimodular(rng, n, steps=3 * n)
            d = abs(sympy_det(sympy, A))
            seen.add(min(d, 2))
            assert is_unimodular(A) == (d == 1)
        assert seen == {0, 1, 2}
        assert is_unimodular([]) and is_unimodular([[-1]])
        assert not is_unimodular([[0]]) and not is_unimodular([[2]])


class TestExteriorSquare:
    def test_identity(self):
        assert exterior_square(identity(4)) == identity(6)

    def test_diag(self):
        assert exterior_square([[2, 0], [0, 3]]) == [[6]]

    def test_functorial(self, rng):
        for _ in range(30):
            A = rand_mat_q(rng, 4, 4, max_num=3, max_den=2)
            B = rand_mat_q(rng, 4, 4, max_num=3, max_den=2)
            assert exterior_square(mat_mul(A, B)) == mat_mul(
                exterior_square(A), exterior_square(B))

    def test_det_power_law(self, rng, sympy):
        # det of the induced map on pairs is det(A)^(n-1) for n = 3
        for _ in range(10):
            A = rand_mat_q(rng, 3, 3, max_num=3, max_den=2)
            assert sympy_det(sympy, exterior_square(A)) \
                == sympy_det(sympy, A) ** 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            exterior_square([[1, 2]])

    def test_pair_basis_order(self):
        assert pair_basis(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                 (3, 4)]


class TestSymplectic:
    def test_identity(self):
        assert is_symplectic(identity(4))

    def test_diag_2_1_not(self):
        assert not is_symplectic([[2, 0], [0, 1]])

    def test_shear(self):
        assert is_symplectic([[1, 1], [0, 1]])

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic([[1]])
