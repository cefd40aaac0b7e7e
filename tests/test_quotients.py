import pytest

from invqm.engine import (circle_bundle_group, free_group, surface_group)
from invqm.linalg import identity, kernel_dim, mat_mul, mat_sub
from invqm.quotients import (AbelianQuotient, abelian_quotient, free_quotient,
                             h1_dim, h2_dim, h2_dim_semidirect,
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
            assert h1_dim(q) == 2 * l

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
