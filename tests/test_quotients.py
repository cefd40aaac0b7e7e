import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invqm import linalg, quotients
from invqm.engine import (circle_bundle_group, free_group, surface_group)
from invqm.linalg import (charpoly, exterior_square, identity, kernel_dim,
                          mat_mul, mat_sub)
from invqm.quotients import (AbelianQuotient, abelian_quotient, free_quotient,
                             h2_dim, h2_dim_semidirect,
                             h2_dim_total_space, surface_quotient)
from test_acceptance_helpers import (integer_inverse, random_symplectic,
                                     random_unimodular)


class TestAbelianQuotient:
    def test_free_group(self):
        q = abelian_quotient(free_group(3))
        assert q == AbelianQuotient(3)

    def test_surface(self):
        q = abelian_quotient(surface_group(2))
        assert q.free_rank == 4 and q.torsion == ()

    def test_circle_bundle(self):
        q = abelian_quotient(circle_bundle_group(2, 3))
        assert q.free_rank == 4 and q.torsion == (3,)

    def test_torsion_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianQuotient(1, (4, 6))


class TestCohomologyDims:
    def test_h2_z4(self):
        assert h2_dim(AbelianQuotient(4)) == 6

    def test_h2_z1(self):
        assert h2_dim(AbelianQuotient(1)) == 0

    def test_torsion_ignored(self):
        for l in (2, 3):
            q = AbelianQuotient(2 * l, (5,))
            assert h2_dim(q) == l * (2 * l - 1)
            assert q.free_rank == 2 * l

    def test_monotone_in_generators(self):
        dims = [h2_dim(AbelianQuotient(r)) for r in range(6)]
        assert dims == sorted(dims)


class TestSemidirect:
    def test_torelli(self):
        for l in (2, 3):
            q = surface_quotient(l, identity(2 * l))
            n = 2 * l
            assert h2_dim_semidirect(q) == n + n * (n - 1) // 2
            assert h2_dim_total_space(q) == n + 1

    def test_free_identity(self):
        q = free_quotient(3, identity(3))
        assert h2_dim_semidirect(q) == 3 + 3
        assert h2_dim_total_space(q) == 3

    def test_shear(self):
        q = free_quotient(2, [[1, 1], [0, 1]])
        assert h2_dim_semidirect(q) == 1 + 1
        assert h2_dim_total_space(q) == 1

    def test_fixed_free_no_kernel(self):
        q = free_quotient(2, [[0, 1], [1, 1]])
        assert h2_dim_total_space(q) == 0

    def test_rank_symmetry_of_fixed_space(self, rng):
        for _ in range(10):
            A = random_unimodular(rng, 4)
            At = [list(col) for col in zip(*A)]
            M = mat_sub(identity(4), A)
            Mt = mat_sub(identity(4), At)
            assert kernel_dim(M) == kernel_dim(Mt)

    def test_conjugation_invariance(self, rng):
        for _ in range(10):
            A = random_symplectic(rng, 2)
            P = random_unimodular(rng, 4)
            Pinv = integer_inverse(P)
            B = mat_mul(mat_mul(P, A), Pinv)
            qa = free_quotient(4, A)
            qb = free_quotient(4, B)
            assert h2_dim_semidirect(qa) == h2_dim_semidirect(qb)

    def test_nonsymplectic_rejected(self):
        with pytest.raises(ValueError):
            surface_quotient(1, [[1, 0], [1, 1]][::-1])

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            free_quotient(2, [[2, 0], [0, 1]])

    def test_non_integer_rejected(self):
        # determinant 1, but not in GL(2, Z)
        for A in ([[Fraction(1, 2), 0], [0, 2]], [[1.0, 0], [0, 1]]):
            with pytest.raises(ValueError, match="integers"):
                free_quotient(2, A)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


PROPERTY = settings(derandomize=True, deadline=None, max_examples=250)


def wedge_oracle(A):
    """dim Ker(I - A) + dim Ker(I - wedge^2 A) by Bareiss on the whole
    C(n, 2)-square exterior square."""
    m = len(A) * (len(A) - 1) // 2
    return kernel_dim(mat_sub(identity(len(A)), A)) + kernel_dim(
        mat_sub(identity(m), exterior_square(A)))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [], 0
    for b in blocks:
        out += [[0] * at + list(row) + [0] * (n - at - len(b)) for row in b]
        at += len(b)
    return out


def companion(q):
    """Companion matrix of the monic q, coefficients leading term first."""
    d = len(q) - 1
    return [[int(j == i + 1) for j in range(d)] for i in range(d - 1)] \
        + [[-c for c in reversed(q[1:])]] if d else []


def jordan(lam, size):
    return [[lam if i == j else int(j == i + 1) for j in range(size)]
            for i in range(size)]


def conjugated(rng, A):
    if len(A) < 2:
        return A
    P = random_unimodular(rng, len(A), steps=4, bound=1)
    return mat_mul(mat_mul(P, A), integer_inverse(P))


def random_monic_unit(rng, d):
    """Monic integer polynomial of degree d with constant term +-1."""
    return [1] + [rng.randint(-3, 3) for _ in range(d - 1)] \
        + [rng.choice((1, -1))] if d else [1]


def reciprocal(q):
    """q* = x^d q(1/x) / q(0): its roots are the inverses of q's."""
    return [c * q[-1] for c in reversed(q)]


def signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) * int(j == perm[i]) for j in range(n)]
            for i in range(n)]


def draw_matrix(kind, rng):
    if kind == "unimodular":
        return random_unimodular(rng, rng.randint(2, 8))
    if kind == "symplectic":
        return random_symplectic(rng, rng.randint(2, 4))
    if kind == "product":
        l = rng.randint(2, 3)
        return mat_mul(random_symplectic(rng, l),
                       random_unimodular(rng, 2 * l, steps=3))
    if kind == "permutation":
        return conjugated(rng, signed_permutation(rng, rng.randint(1, 8)))
    if kind == "jordan":
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        return conjugated(rng, block_diag(
            *(jordan(rng.choice((1, -1)), s) for s in sizes)))
    q = random_monic_unit(rng, rng.randint(1, 3))
    blocks = [companion(q), companion(reciprocal(q)),
              jordan(-1, rng.randint(0, 2)),
              companion(random_monic_unit(rng, rng.randint(2, 4)))]
    rng.shuffle(blocks)
    return conjugated(rng, block_diag(*(b for b in blocks if b)))


KINDS = ("unimodular", "symplectic", "product", "permutation", "jordan",
         "reciprocal pair")


def trace_block(t):
    """companion(x^2 - t x + 1): for |t| >= 3 two distinct real roots
    lambda and 1/lambda, irrational, so distinct t share no root."""
    return companion([1, -t, 1])


# x^2 - x - 1 (roots phi, -1/phi) and its reciprocal x^2 + x - 1
# (roots 1/phi, -phi): neither is closed under inversion; their product is.
GOLDEN, GOLDEN_STAR = [1, -1, -1], [1, 1, -1]
TRACES = (3, 4, 5, -3, -4)


def squarefree_blocks(rng, traces):
    """Blocks with simple roots closed under inversion, none of them +-1,
    and perhaps a block whose roots have no inverse among the others."""
    blocks = [trace_block(t) for t in rng.sample(traces, rng.randint(1, 2))]
    if rng.random() < 0.5:
        blocks += [companion(GOLDEN), companion(GOLDEN_STAR)]
    if rng.random() < 0.5:
        blocks.append(companion([1, 0, -1, -1]))
    return blocks


def branch_draw(family, rng):
    """A conjugated block-diagonal matrix and k = deg m2, the size of the
    matrix h2_dim_semidirect hands to exterior_square (None: no call)."""
    traces, k = list(TRACES), None
    if family == "squarefree":
        blocks = squarefree_blocks(rng, traces)
    elif family == "squarefree, simple +-1":
        blocks = squarefree_blocks(rng, traces) + rng.choice(
            ([[[1]]], [[[-1]]], [[[1]], [[-1]]]))
    elif family == "squarefree and repeated":
        t = traces.pop(rng.randrange(len(traces)))
        repeated = rng.choice((
            [trace_block(t)] * 2,
            [companion([1, -2 * t, t * t + 2, -2 * t, 1])],  # (x^2-tx+1)^2
            [jordan(1, 2)], [[[-1]], [[-1]]]))
        blocks = squarefree_blocks(rng, traces) + repeated
        k = sum(map(len, repeated))
    elif family == "unequal multiplicity":
        # lambda twice, 1/lambda once: both go to m2
        blocks = rng.choice(([companion([1, -2, -1, 2, 1])],  # GOLDEN^2
                             [companion(GOLDEN)] * 2)) \
            + [companion(GOLDEN_STAR)]
        blocks += [trace_block(t) for t in traces[:rng.randint(0, 2)]]
        k = 6
    elif family == "doubled symplectic":
        B = random_symplectic(rng, rng.randint(2, 3))
        blocks, k = [B, B], 2 * len(B)
    else:
        assert family == "non-semisimple +-1"
        jordans = [jordan(rng.choice((1, -1)), rng.randint(2, 3))
                   for _ in range(rng.randint(1, 2))]
        blocks = squarefree_blocks(rng, traces) + jordans
        k = sum(map(len, jordans))
    rng.shuffle(blocks)
    return conjugated(rng, block_diag(*blocks)), k


BRANCH_FAMILIES = ("squarefree", "squarefree, simple +-1",
                   "squarefree and repeated", "unequal multiplicity",
                   "doubled symplectic", "non-semisimple +-1")


def derivative(p):
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


class TestWedgeFixedSpace:
    """h2_dim_semidirect counts the fixed vectors of wedge^2 A on the
    squarefree factor m1 of the reciprocal part of chi_A and eliminates
    only wedge^2 of A restricted to the rest, m2; the full exterior square
    is the oracle."""

    @PROPERTY
    @given(st.sampled_from(KINDS), st.integers(0, 2 ** 32))
    def test_matches_full_exterior_square(self, kind, seed):
        A = draw_matrix(kind, random.Random(seed))
        assert linalg.is_unimodular(A)
        assert h2_dim_semidirect(free_quotient(len(A), A)) == wedge_oracle(A)

    @PROPERTY
    @given(st.integers(0, 2 ** 32))
    def test_reciprocal_pairs_beside_a_generic_block(self, seed):
        A = draw_matrix("reciprocal pair", random.Random(seed))
        assert h2_dim_semidirect(free_quotient(len(A), A)) == wedge_oracle(A)

    @pytest.mark.parametrize("family", BRANCH_FAMILIES)
    def test_branch_families(self, family, monkeypatch):
        # squarefree m is counted (m2 = 1); otherwise only the m2 square is
        # handed to exterior_square
        squares = []
        wedge = quotients.exterior_square

        def recording(M):
            squares.append(len(M))
            return wedge(M)

        monkeypatch.setattr(quotients, "exterior_square", recording)
        for seed in range(40):
            A, k = branch_draw(family, random.Random(seed))
            squares.clear()
            h2 = h2_dim_semidirect(free_quotient(len(A), A))
            assert squares == ([] if k is None else [k])
            assert h2 == wedge_oracle(A)

    def test_squarefree_genus_9_counts_without_elimination(
            self, monkeypatch):
        A = random_symplectic(random.Random(9), 9, factors=8)
        chi = charpoly(A)
        assert quotients._poly_gcd(chi, derivative(chi)) == [1]
        # a symplectic chi_A is its own reciprocal; squarefree, it has no
        # root +-1 (their multiplicities are even), so 9 pairs and no fixed
        # vector of A
        assert wedge_oracle(A) == 9
        rows, squares = [], []
        echelon, wedge = linalg.echelon, quotients.exterior_square

        def recording(M):
            rows.append(len(M))
            return echelon(M)

        def recording_wedge(M):
            squares.append(len(M))
            return wedge(M)

        monkeypatch.setattr(linalg, "echelon", recording)
        monkeypatch.setattr(quotients, "exterior_square", recording_wedge)
        assert h2_dim_semidirect(surface_quotient(9, A)) == 9
        assert squares == [] and max(rows) <= 18

    def test_rank_one_and_two(self):
        for A in ([[1]], [[-1]]):
            assert h2_dim_semidirect(free_quotient(1, A)) == wedge_oracle(A)
        count = 0
        for entries in itertools.product(range(-2, 3), repeat=4):
            A = [list(entries[:2]), list(entries[2:])]
            if abs(A[0][0] * A[1][1] - A[0][1] * A[1][0]) == 1:
                count += 1
                assert h2_dim_semidirect(free_quotient(2, A)) \
                    == wedge_oracle(A)
        assert count > 50

    def test_reciprocal_part(self):
        # (x - 2)(x - 1/2) would be reciprocal; x^3 - x - 1 shares no
        # root with its reciprocal, x^2 - 3x + 1 is its own reciprocal
        q, r = [1, 0, -1, -1], [1, -3, 1]
        chi = charpoly(block_diag(companion(q), companion(r), [[-1]]))
        assert quotients._reciprocal_part(chi) == [1, -2, -2, 1]
        assert quotients._reciprocal_part(charpoly(companion(q))) == [1]

    def test_free_rank_16_eliminates_only_the_reciprocal_part(
            self, monkeypatch):
        rng = random.Random(16)
        rows = []
        echelon = linalg.echelon

        def recording(M):
            rows.append(len(M))
            return echelon(M)

        monkeypatch.setattr(linalg, "echelon", recording)
        seen = set()
        for _ in range(6):
            A = random_unimodular(rng, 16, steps=48)
            k = len(quotients._reciprocal_part(charpoly(A))) - 1
            assert k < 16
            seen.add(k)
            rows.clear()
            h2_dim_semidirect(free_quotient(16, A))
            assert max(rows) <= max(16, k * (k - 1) // 2)
        assert max(seen) >= 2

    def test_eliminates_integer_rows_only(self, monkeypatch):
        # A|U = D^-1 G is never formed: wedge^2 G - wedge^2 D is eliminated
        handed = []
        echelon = linalg.echelon

        def recording(M):
            handed.append(M)
            return echelon(M)

        monkeypatch.setattr(linalg, "echelon", recording)
        middle = 0
        for kind in KINDS:
            for seed in range(30):
                A = draw_matrix(kind, random.Random(seed))
                k = len(quotients._reciprocal_part(charpoly(A))) - 1
                middle += 2 <= k < len(A)
                q = free_quotient(len(A), A)
                handed.clear()
                h2 = h2_dim_semidirect(q)
                assert all(type(x) is int
                           for M in handed for row in M for x in row)
                assert h2 == wedge_oracle(A)
        assert middle >= 20


def random_monic(rng, d):
    return [1] + [rng.randint(-3, 3) for _ in range(d)]


class TestPolynomialHelpers:
    """The integer gcd, exact division and factor peeling against sympy on
    products of monic integer polynomials with repeated factors."""

    @staticmethod
    def product(rng, factors):
        """A product of the factors, each to a random power 1 to 3."""
        p = [1]
        for f in factors:
            for _ in range(rng.randint(1, 3)):
                p = quotients._poly_mul(p, f)
        return p

    @staticmethod
    def coeffs(sympy, expr):
        return [int(c) for c in sympy.Poly(expr, sympy.Symbol("x"))
                .all_coeffs()]

    def test_gcd_and_exact_division(self, sympy):
        x = sympy.Symbol("x")
        rng = random.Random(88)
        for _ in range(150):
            shared = [random_monic(rng, rng.randint(1, 3))
                      for _ in range(rng.randint(0, 2))]
            a = self.product(rng, shared + [random_monic(rng, 2)])
            others = (derivative(a),
                      self.product(rng, shared + [random_monic(rng, 1)]))
            for b in others:
                g = quotients._poly_gcd(a, b)
                want = sympy.gcd(sympy.Poly(a, x), sympy.Poly(b, x))
                assert g == self.coeffs(sympy, want.monic())
                assert all(type(c) is int for c in g)
                q, r = sympy.div(sympy.Poly(a, x), sympy.Poly(g, x))
                assert r.is_zero
                assert quotients._quo(a, g) == self.coeffs(sympy, q)

    def test_part_keeps_full_multiplicity(self, sympy):
        x = sympy.Symbol("x")
        rng = random.Random(89)
        for _ in range(100):
            factors = [random_monic(rng, rng.randint(1, 3))
                       for _ in range(rng.randint(1, 4))]
            chi = self.product(rng, factors)
            shared = rng.sample(factors, rng.randint(0, len(factors)))
            h = self.product(rng, shared + [random_monic(rng, 2)])
            part = quotients._part(chi, h)
            want = sympy.Integer(1)
            for p, e in sympy.factor_list(sympy.Poly(chi, x))[1]:
                if sympy.gcd(p, sympy.Poly(h, x)).degree() > 0:
                    want *= p.as_expr() ** e
            assert part == self.coeffs(sympy, want)
            assert part[0] == 1 and all(type(c) is int for c in part)
