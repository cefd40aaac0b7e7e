"""The benchmark's oracle against the committed golden reports, and its
closed forms against its own first-principles routes.

    python3 -m pytest bench/test_oracle.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from workloads import commutator_product, random_cyclic_word, random_word

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

GOLDEN_WANT = {
    "free_n3": oracle.preset_report("free", n=3),
    "surface_l2": oracle.preset_report("surface", l=2),
    "torelli_torus_l2": oracle.preset_report("torelli_torus", l=2),
    "one_relator_power_n2_k2": oracle.preset_report("one_relator_power", n=2),
    "remark_group_k3": oracle.preset_report("remark_group", k=3),
    "circle_bundle_l2_n3": oracle.preset_report("circle_bundle", l=2),
    "free_torus_fib": oracle.semidirect_report([[0, 1], [1, 1]], False, False),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WANT))
def test_oracle_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert oracle.dims_match(golden, GOLDEN_WANT[name]) is None


def test_every_golden_is_covered():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(GOLDEN_WANT)


def comm(i, j):
    return (i, j, -i, -j)


def surface_relator(l):
    return sum((comm(2 * i + 1, 2 * i + 2) for i in range(l)), ())


@pytest.mark.parametrize("name,n,relators,kwargs,hyperbolic", [
    ("free", 4, [], {"n": 4}, False),
    ("surface", 6, [surface_relator(3)], {"l": 3}, True),
    ("one_relator_power", 4, [comm(1, 2) * 3], {"n": 4}, True),
    ("remark_group", 6, [comm(1, 2) * 2, comm(3, 4) * 2, comm(5, 6) * 2],
     {"k": 3}, True),
    ("circle_bundle", 5, [surface_relator(2) + (5,) * 3]
     + [comm(i, 5) for i in range(1, 5)], {"l": 2}, False),
])
def test_closed_forms_match_relator_route(name, n, relators, kwargs,
                                          hyperbolic):
    h2, h1ng = oracle.presentation_dims(n, relators)
    assert oracle.presentation_report(h2, h1ng, hyperbolic) \
        == oracle.preset_report(name, **kwargs)


def test_torelli_closed_form_matches_matrix_route():
    for l in (2, 3):
        identity = [[int(i == j) for j in range(2 * l)] for i in range(2 * l)]
        want = oracle.semidirect_report(identity, True, True)
        assert oracle.preset_report("torelli_torus", l=l) == want


def test_rank_mod_primes():
    assert oracle.rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert oracle.rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert oracle.rank([]) == 0
    big = 1 << 61
    assert oracle.rank([[big - 1, 0], [0, 1]]) == 2


def test_quadratic_class_of_commutator_subgroup_words():
    rng = random.Random(5)
    for n in (2, 3, 5):
        w = commutator_product(rng, n, 30)
        assert oracle.abelianize(w, n) == [0] * n
    # [a, b] -> e1 ^ e2, twice
    assert oracle.twice_quadratic_class(comm(1, 2), 2) == [2]
    assert oracle.twice_quadratic_class(comm(2, 1) * 5, 3) == [-10, 0, 0]


def test_transgression_closed_form():
    rng = random.Random(7)
    n = 4
    for _ in range(20):
        g1 = [rng.randint(-5, 5) for _ in range(n)]
        g2 = [rng.randint(-5, 5) for _ in range(n)]

        def section(m):
            return sum(((i + 1,) * e if e > 0 else (-(i + 1),) * -e
                        for i, e in enumerate(m)), ())
        w = oracle.reduce(section(g1) + section(g2) + oracle.inverse(
            section([a + b for a, b in zip(g1, g2)])))
        q = oracle.twice_quadratic_class(w, n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for (i, j), twice in zip(pairs, q):
            assert Fraction(twice, 2) == oracle.transgression_value(i, j, g1,
                                                                     g2)


def sampled_slope(terms, x, big, k):
    """f(x^(k+1)) - f(x^k) by direct counting."""
    def f(power):
        return oracle.qm_value(terms, oracle.reduce(x * power), big)
    return f(k + 1) - f(k)


def test_homogenization_matches_long_powers():
    rng = random.Random(11)
    for big in (True, False):
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            terms = [(random_word(rng, n, rng.randint(1, 3)), 1),
                     (random_word(rng, n, rng.randint(1, 3)), -2)]
            x = random_cyclic_word(rng, n, rng.randint(1, 6))
            want, cycle = oracle.homogenization(terms, x, big)
            k = 60
            slope = sum(sampled_slope(terms, x, big, k + t)
                        for t in range(cycle))
            assert Fraction(slope, cycle) == want
            checked += 1


def test_known_defect_cases():
    assert oracle.homogenization([((1,) * 40, 1)], (1,), True) == (1, 1)
    assert oracle.homogenization([((1, 1), 1)], (1,), False) \
        == (Fraction(1, 2), 2)
