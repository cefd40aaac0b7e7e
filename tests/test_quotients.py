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


class TestWedgeFixedSpace:
    """h2_dim_semidirect eliminates only wedge^2 of A restricted to the
    reciprocal part of chi_A; the full exterior square is the oracle."""

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
