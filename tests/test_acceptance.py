"""End-to-end acceptance suite.

Each test checks one numbered criterion with exact rational arithmetic and
prints a single PASS/FAIL line directly to the terminal.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import rand_commutator_word, rand_word
from invqm.brooks import BIG, CountingQM, defect_lower_bound, homogenize_eval
from invqm.engine import EQUALITY, preset
from invqm.invhoms import constraint_space, inv_hom_dim
from invqm.linalg import (exterior_square, identity, kernel_basis, kernel_dim,
                          mat_sub, pair_basis)
from invqm.magnus import (InvariantHom, WedgeVec, abelianize, hom_eval,
                          wedge_class)
from invqm.quotients import abelian_quotient
from invqm.transgression import (cocycle_coboundary, cup_class_matrix,
                                 transgress)
from invqm.words import (FreeWord, commutator, conjugate, generator, power)
from test_acceptance_helpers import magnus_wedge_class, random_symplectic


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d}: PASS - {desc}")


def dims(report):
    return (report.dim_q_mod_extendable.value,
            report.dim_q_mod_h1_and_extendable.value)


def test_criterion_01_free_groups(capsys):
    with criterion(capsys, 1, "free groups"):
        from invqm.engine import free_group
        for n in (2, 3, 4, 5):
            assert dims(preset("free", n=n)) == (n * (n - 1) // 2, 0)
            assert inv_hom_dim(free_group(n)) == n * (n - 1) // 2


def test_criterion_02_surface_groups(capsys):
    with criterion(capsys, 2, "surface groups"):
        from invqm.engine import surface_group
        for l in (2, 3, 4):
            assert dims(preset("surface", l=l)) == (l * (2 * l - 1), 1)
            P = surface_group(l)
            assert inv_hom_dim(P) == l * (2 * l - 1) - 1
            W = constraint_space(P)
            v1 = WedgeVec.zero(2 * l)
            for i in range(l):
                v1 = v1 + WedgeVec.basis_element(2 * l, 2 * i + 1, 2 * i + 2)
            assert W.basis == (v1,)


def test_criterion_03_mapping_tori(capsys, rng):
    with criterion(capsys, 3, "mapping tori of surfaces"):
        for l in (2, 3):
            n = 2 * l
            assert dims(preset("torelli_torus", l=l)) == \
                (n + n * (n - 1) // 2, n + 1)
        from invqm.engine import analyze_mapping_torus
        from invqm.quotients import surface_quotient
        for _ in range(5):
            A = random_symplectic(rng, 2)
            r = analyze_mapping_torus(
                surface_quotient(2, A, hyperbolicity_asserted=True))
            k1 = len(kernel_basis(mat_sub(identity(4), A)))
            k2 = len(kernel_basis(mat_sub(identity(6), exterior_square(A))))
            assert dims(r) == (k1 + k2, k1 + 1)


def test_criterion_04_free_by_cyclic(capsys):
    with criterion(capsys, 4, "free-by-cyclic groups"):
        from invqm.engine import UPPER_BOUND, analyze_free_by_cyclic
        from invqm.quotients import free_quotient
        for n in (2, 3, 4):
            r = analyze_free_by_cyclic(
                free_quotient(n, identity(n), hyperbolicity_asserted=True))
            assert dims(r) == (n + n * (n - 1) // 2, n)
        assert dims(preset("free_torus", A=[[0, 1], [1, 1]])) == (0, 0)
        r = preset("free_torus", A=[[1, 1], [0, 1]])
        assert dims(r) == (2, 1)
        assert r.dim_q_mod_extendable.status == UPPER_BOUND
        assert r.dim_q_mod_h1_and_extendable.status == UPPER_BOUND


def test_criterion_05_one_relator_torsion(capsys):
    with criterion(capsys, 5, "one-relator groups with torsion"):
        for k in (2, 3):
            r = preset("one_relator_power", n=2, k=k)
            assert r.dim_q_mod_h1_and_extendable == (1, EQUALITY)
        for k in (1, 2, 3):
            r = preset("remark_group", k=k)
            assert r.dim_q_mod_h1_and_extendable == (k, EQUALITY)


def test_criterion_06_circle_bundles(capsys):
    with criterion(capsys, 6, "unit tangent / circle bundles"):
        from invqm.engine import circle_bundle_group
        for l, n in ((2, 1), (2, 3), (3, 2)):
            assert dims(preset("circle_bundle", l=l, k=n)) == \
                (l * (2 * l - 1), 0)
            q = abelian_quotient(circle_bundle_group(l, n))
            assert q.free_rank == 2 * l
            assert q.torsion == (() if n == 1 else (n,))


def test_criterion_07_dimension_arithmetic(capsys):
    with criterion(capsys, 7, "first - second = dim H1(N)^G on equalities"):
        reports = [preset("free", n=n) for n in (2, 3, 4, 5)]
        reports += [preset("surface", l=l) for l in (2, 3, 4)]
        reports += [preset("one_relator_power", n=2, k=k) for k in (2, 3)]
        reports += [preset("remark_group", k=k) for k in (1, 2, 3)]
        reports += [preset("circle_bundle", l=l, k=n)
                    for l, n in ((2, 1), (2, 3), (3, 2))]
        checked = 0
        for r in reports:
            if (r.dim_q_mod_extendable.status == EQUALITY
                    and r.dim_q_mod_h1_and_extendable.status == EQUALITY):
                assert (r.dim_q_mod_extendable.value
                        - r.dim_q_mod_h1_and_extendable.value) == r.dim_h1NG
                checked += 1
        assert checked == len(reports)


def test_criterion_08_wedge_calculus(capsys, rng):
    with criterion(capsys, 8, "wedge class calculus"):
        # dual-oracle agreement on 500 random commutator-subgroup words
        for _ in range(500):
            w = rand_commutator_word(rng, 4, 30)
            assert wedge_class(w) == magnus_wedge_class(w)
        # additivity and conjugation invariance
        for _ in range(200):
            u = rand_commutator_word(rng, 4, 16)
            v = rand_commutator_word(rng, 4, 16)
            g = rand_word(rng, 4, 6)
            assert wedge_class(u * v) == wedge_class(u) + wedge_class(v)
            assert wedge_class(conjugate(g, u)) == wedge_class(u)
        # word identity [a^n, b] = a^{n-1}[a,b]a^{-(n-1)} ... [a,b]
        for _ in range(20):
            a, b = rand_word(rng, 2, 6), rand_word(rng, 2, 6)
            for n in range(1, 6):
                rhs = FreeWord(2)
                for m in range(n - 1, -1, -1):
                    rhs = rhs * conjugate(power(a, m), commutator(a, b))
                assert commutator(power(a, n), b) == rhs


def test_criterion_09_transgression(capsys, rng):
    with criterion(capsys, 9, "transgressed 2-cocycles"):
        alphas = [InvariantHom.alpha(3, i, j) for i, j in pair_basis(3)]
        for f in alphas:
            for _ in range(200):
                g1, g2, g3 = ([rng.randint(-4, 4) for _ in range(3)]
                              for _ in range(3))
                assert cocycle_coboundary(f, g1, g2, g3) == 0
        # cup matrices of the basis functionals are the skew basis matrices
        for (i, j), f in zip(pair_basis(3), alphas):
            M = cup_class_matrix(f)
            for p in range(3):
                for q in range(3):
                    want = (1 if (p + 1, q + 1) == (i, j)
                            else -1 if (q + 1, p + 1) == (i, j) else 0)
                    assert M[p][q] == want
        # linearity in the functional
        for _ in range(50):
            cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in alphas]
            f = InvariantHom(3, tuple(Fraction(0) for _ in alphas))
            for c, b in zip(cs, alphas):
                f = f + c * b
            g1 = [rng.randint(-4, 4) for _ in range(3)]
            g2 = [rng.randint(-4, 4) for _ in range(3)]
            assert transgress(f, g1, g2) == sum(
                (c * transgress(b, g1, g2) for c, b in zip(cs, alphas)),
                Fraction(0))
        # injectivity: the map f |-> strict upper triangle of the cup matrix
        # has trivial kernel, by exact linear algebra on its matrix
        n = 4
        pairs = pair_basis(n)
        columns = []
        for i, j in pairs:
            M = cup_class_matrix(InvariantHom.alpha(n, i, j))
            columns.append([M[p][q] for p in range(n) for q in range(p + 1, n)])
        matrix = [[columns[c][r] for c in range(len(pairs))]
                  for r in range(len(pairs))]
        assert kernel_dim(matrix) == 0


def test_criterion_10_quasimorphisms(capsys, rng):
    with criterion(capsys, 10, "counting quasimorphism suite"):
        ab = FreeWord(2, (1, 2))
        f = CountingQM(2, ((ab, Fraction(1)), (ab.inverse(), Fraction(-1))),
                       BIG)
        for _ in range(100):
            x = rand_word(rng, 2, 4)
            m = rng.randint(2, 10)
            assert homogenize_eval(f, power(x, m)) == \
                m * homogenize_eval(f, x)
        for _ in range(100):
            x, g = rand_word(rng, 2, 4), rand_word(rng, 2, 5)
            assert homogenize_eval(f, conjugate(g, x)) == \
                homogenize_eval(f, x)
        # invariant homomorphisms vanish on mixed commutators [g, x], x in N
        phi = InvariantHom.alpha(3, 1, 2)
        for _ in range(100):
            g = rand_word(rng, 3, 8)
            x = rand_commutator_word(rng, 3, 12)
            assert hom_eval(phi, commutator(g, x)) == 0
        # defect lower bounds: monotone and witness-reproducible
        certs = [defect_lower_bound(f, L) for L in (1, 2, 3)]
        assert [c.bound for c in certs] == sorted(c.bound for c in certs)
        again = defect_lower_bound(f, 2)
        assert again.witness == certs[1].witness
        assert again.bound == certs[1].bound
