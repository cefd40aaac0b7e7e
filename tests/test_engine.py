import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invqm import linalg
from invqm.engine import (EQUALITY, UPPER_BOUND, DimensionReport,
                          PreconditionError, analyze_free_by_cyclic,
                          analyze_mapping_torus, analyze_presentation,
                          circle_bundle_group, free_group, preset,
                          surface_group)
from invqm.invhoms import constraint_space, inv_hom_basis, inv_hom_dim
from invqm.linalg import (identity, kernel_basis, kernel_dim, mat_mul,
                          mat_sub, rank)
from invqm.magnus import abelianize, doubled_class
from invqm.quotients import (abelian_quotient, free_quotient, h2_dim,
                             surface_quotient)
from invqm.words import FreeWord, Presentation, commutator, generator
from test_acceptance_helpers import integer_inverse, random_symplectic


def dims(report: DimensionReport):
    return (report.dim_q_mod_extendable.value,
            report.dim_q_mod_h1_and_extendable.value)


class TestPresentationAnalysis:
    def test_free_groups(self):
        for n in (2, 3, 4, 5):
            r = preset("free", n=n)
            assert dims(r) == (n * (n - 1) // 2, 0)
            assert r.dim_q_mod_extendable.status == EQUALITY
            assert r.dim_q_mod_h1_and_extendable.status == EQUALITY

    def test_surface_groups(self):
        for l in (2, 3, 4):
            r = preset("surface", l=l)
            assert dims(r) == (l * (2 * l - 1), 1)

    def test_one_relator_power(self):
        for k in (2, 3):
            r = preset("one_relator_power", n=2, k=k)
            assert r.dim_q_mod_h1_and_extendable == (1, EQUALITY)

    def test_remark_groups(self):
        for k in (1, 2, 3):
            r = preset("remark_group", k=k)
            assert r.dim_q_mod_h1_and_extendable == (k, EQUALITY)

    def test_circle_bundles_equal_without_flag(self):
        for l, n in ((2, 1), (2, 3), (3, 2)):
            r = preset("circle_bundle", l=l, k=n)
            assert dims(r) == (l * (2 * l - 1), 0)
            assert r.dim_q_mod_extendable.status == EQUALITY
            assert r.dim_q_mod_h1_and_extendable.status == EQUALITY

    def test_flag_changes_status_not_value(self):
        P = surface_group(2)
        asserted = analyze_presentation(P, assert_hyperbolic=True)
        unknown = analyze_presentation(P, assert_hyperbolic=False)
        assert dims(asserted) == dims(unknown)
        assert asserted.dim_q_mod_h1_and_extendable.status == EQUALITY
        assert unknown.dim_q_mod_h1_and_extendable.status == UPPER_BOUND

    def test_asserted_zero_bound_needs_no_squeeze(self):
        # an asserted equality is not also reported as a squeeze
        fib = free_quotient(2, [[0, 1], [1, 1]], hyperbolicity_asserted=True)
        for r in (analyze_presentation(free_group(2), assert_hyperbolic=True),
                  analyze_free_by_cyclic(fib)):
            assert r.dim_q_mod_h1_and_extendable == (0, EQUALITY)
            assert not any("squeezed" in p for p in r.provenance)


class TestMappingTorus:
    def test_torelli(self):
        for l in (2, 3):
            r = preset("torelli_torus", l=l)
            n = 2 * l
            assert dims(r) == (n + n * (n - 1) // 2, n + 1)
            assert r.dim_q_mod_extendable.status == EQUALITY

    def test_random_symplectic_matches_kernel_path(self, rng):
        for _ in range(5):
            A = random_symplectic(rng, 2)
            q = surface_quotient(2, A, hyperbolicity_asserted=True)
            r = analyze_mapping_torus(q)
            k1 = kernel_dim(mat_sub(identity(4), A))
            from invqm.linalg import exterior_square
            k2 = kernel_dim(mat_sub(identity(6), exterior_square(A)))
            assert dims(r) == (k1 + k2, k1 + 1)

    def test_genus_one_rejected(self):
        q = surface_quotient(1, identity(2))
        with pytest.raises(PreconditionError):
            analyze_mapping_torus(q)

    def test_easy_cor_bound(self, rng):
        # the second dimension never exceeds dim H^2 of the total space
        for _ in range(5):
            A = random_symplectic(rng, 2)
            q = surface_quotient(2, A, hyperbolicity_asserted=True)
            r = analyze_mapping_torus(q)
            assert r.dim_q_mod_h1_and_extendable.value <= r.dim_h2_G


class TestFreeByCyclic:
    def test_identity_matrix(self):
        for n in (2, 3):
            q = free_quotient(n, identity(n), hyperbolicity_asserted=True)
            r = analyze_free_by_cyclic(q)
            assert dims(r) == (n + n * (n - 1) // 2, n)

    def test_fibonacci_matrix(self):
        r = preset("free_torus", A=[[0, 1], [1, 1]])
        assert dims(r) == (0, 0)
        assert r.dim_q_mod_extendable.status == EQUALITY

    def test_shear_upper_bound(self):
        r = preset("free_torus", A=[[1, 1], [0, 1]])
        assert dims(r) == (2, 1)
        assert r.dim_q_mod_extendable.status == UPPER_BOUND
        assert r.dim_q_mod_h1_and_extendable.status == UPPER_BOUND

    def test_unimodular_conjugation_invariance(self, rng):
        from test_acceptance_helpers import random_unimodular
        for _ in range(5):
            A = random_symplectic(rng, 2)
            P = random_unimodular(rng, 4)
            B = mat_mul(mat_mul(P, A), integer_inverse(P))
            ra = analyze_free_by_cyclic(free_quotient(4, A))
            rb = analyze_free_by_cyclic(free_quotient(4, B))
            assert dims(ra) == dims(rb)


class TestCorBArithmetic:
    def test_first_minus_second_is_h1(self):
        reports = [preset("free", n=3),
                   preset("surface", l=2),
                   preset("one_relator_power", n=3, k=2),
                   preset("remark_group", k=2),
                   preset("circle_bundle", l=2, k=3)]
        for r in reports:
            if (r.dim_q_mod_extendable.status == EQUALITY
                    and r.dim_q_mod_h1_and_extendable.status == EQUALITY):
                assert (r.dim_q_mod_extendable.value
                        - r.dim_q_mod_h1_and_extendable.value) == r.dim_h1NG


class TestPresetValidation:
    def test_unknown_preset(self):
        with pytest.raises(PreconditionError):
            preset("nonsense")

    def test_missing_parameters(self):
        with pytest.raises(PreconditionError):
            preset("surface")
        with pytest.raises(PreconditionError):
            preset("circle_bundle", l=2, k=0)


@st.composite
def presentations(draw):
    """Ranks 1 to 8 with 0 to n + 2 relators: reduced words, torsion
    relators a_i^k, products of conjugated commutators (zero
    abelianization) and the empty word."""
    n = draw(st.integers(1, 8))
    gens = st.integers(1, n)
    letters = st.lists(st.sampled_from(
        [s * g for g in range(1, n + 1) for s in (1, -1)]), max_size=10)
    relators = []
    for _ in range(draw(st.integers(0, n + 2))):
        kind = draw(st.sampled_from(["word", "torsion", "commutator",
                                     "empty"]))
        if kind == "word":
            r = FreeWord(n, tuple(draw(letters)))
        elif kind == "torsion":
            r = generator(n, draw(gens)) ** draw(st.integers(2, 6))
        elif kind == "commutator":
            r = FreeWord(n)
            for _ in range(draw(st.integers(1, 3))):
                g = FreeWord(n, tuple(draw(letters)))
                c = commutator(generator(n, draw(gens)),
                               generator(n, draw(gens)))
                r = r * g * c ** draw(st.integers(-2, 2)) * g.inverse()
        else:
            r = FreeWord(n)
        relators.append(r)
    return Presentation(n, tuple(f"x{i}" for i in range(1, n + 1)),
                        tuple(relators))


class TestRankPath:
    """analyze reads both dimensions off Bareiss ranks; the Smith normal
    form and the RREF routes are the oracles."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(presentations())
    def test_ranks_match_snf_and_rref_routes(self, P):
        n = P.rank
        report = analyze_presentation(P)
        assert report.dim_h2_Gamma == h2_dim(abelian_quotient(P))
        W = constraint_space(P)
        assert report.dim_h1NG == n * (n - 1) // 2 - W.dim
        assert len(inv_hom_basis(W)) == inv_hom_dim(P)
        # W from words and a left kernel: 2 e_j ∧ ab(r) is the doubled class
        # of [a_j, r], and combinations come from the kernel of R^T
        conj = [doubled_class(commutator(generator(n, j), r))
                for r in P.relators for j in range(1, n + 1)]
        R = [abelianize(r) for r in P.relators]
        doubled = [doubled_class(r) for r in P.relators]
        combos = [[sum(c * x for c, x in zip(k, col)) for col in zip(*doubled)]
                  for k in kernel_basis([list(col) for col in zip(*R)])]
        assert W.dim == rank(conj + combos)

    def test_analyze_uses_neither_snf_nor_rref(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("analyze must not call this")
        for name in ("invariant_factors", "rref"):
            original = getattr(linalg, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("invqm")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, refuse)
        P = Presentation(3, ("a", "b", "c"), (
            generator(3, 1) ** 2,
            commutator(generator(3, 1), generator(3, 2)) * generator(3, 3),
            commutator(generator(3, 2), generator(3, 3)) ** 2))
        for Q in (P, circle_bundle_group(2, 3), surface_group(2)):
            analyze_presentation(Q)
            analyze_presentation(Q, assert_hyperbolic=True)
        with pytest.raises(AssertionError):
            constraint_space(P)
