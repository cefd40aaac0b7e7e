import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_word
from invqm.magnus import abelianize
from invqm.words import (FreeWord, GeneratorRangeError, Presentation,
                         RankMismatchError, UnknownGeneratorError,
                         WordSyntaxError, commutator, conjugate, cyclic_core,
                         generator, parse_presentation, parse_word, power,
                         render)

# words of rank 3 from arbitrary letter lists, reduced by the constructor
words3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=24).map(
    lambda xs: FreeWord(3, tuple(xs)))


def surface_presentation_text(l):
    names = [chr(ord("a") + i) for i in range(2 * l)]
    rel = " ".join(f"[{names[2 * i]},{names[2 * i + 1]}]" for i in range(l))
    return f"gens: {', '.join(names)}\nrel: {rel}\n"


class TestReduce:
    def test_cancellation(self):
        w = FreeWord(2, (1, -1, 2))
        assert w.letters == (2,)

    def test_identity(self):
        assert FreeWord(2, ()).letters == ()

    def test_word_times_inverse_is_trivial(self, rng):
        for _ in range(100):
            w = rand_word(rng, 3, 40)
            assert (w * w.inverse()).letters == ()

    def test_idempotent_and_insertion_invariant(self, rng):
        for _ in range(50):
            w = rand_word(rng, 3, 20)
            assert FreeWord(3, w.letters).letters == w.letters
            pos = rng.randint(0, len(w.letters))
            g = rng.choice([1, -1, 2, -2, 3, -3])
            padded = w.letters[:pos] + (g, -g) + w.letters[pos:]
            assert FreeWord(3, padded).letters == w.letters

    def test_out_of_range(self):
        with pytest.raises(GeneratorRangeError):
            FreeWord(2, (3,))


class TestGroupOps:
    def test_empty_word_to_huge_power(self):
        assert FreeWord(2) ** 10 ** 20 == FreeWord(2)
        assert FreeWord(2) ** -10 ** 20 == FreeWord(2)

    def test_power(self):
        a = generator(2, 1)
        assert power(a, 3).letters == (1, 1, 1)
        assert power(a, -2).letters == (-1, -1)

    def test_conjugate(self):
        a, b = generator(2, 1), generator(2, 2)
        assert conjugate(b, a).letters == (2, 1, -2)

    def test_power_additivity(self, rng):
        for _ in range(20):
            w = rand_word(rng, 2, 8)
            assert (power(w, 2) * power(w, -2)).letters == ()

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            generator(2, 1) * generator(3, 1)


class TestAgainstFullReduction:
    """Junction-only products and cyclic-core powers against rebuilding
    the word from its concatenated letters."""

    @settings(derandomize=True, max_examples=200)
    @given(words3, words3, st.integers(0, 24))
    def test_product(self, u, v, j):
        assert u * v == FreeWord(3, u.letters + v.letters)
        # v starting with a piece of u^-1, so that the junction cancels
        v = FreeWord(3, tuple(-x for x in u.letters[::-1])[:j] + v.letters)
        assert u * v == FreeWord(3, u.letters + v.letters)

    @settings(derandomize=True, max_examples=200)
    @given(words3)
    def test_inverse(self, w):
        assert w.inverse() == FreeWord(3, tuple(-x for x in w.letters[::-1]))

    @settings(derandomize=True, max_examples=200)
    @given(words3, st.integers(-6, 6))
    def test_power(self, w, k):
        step = w if k >= 0 else FreeWord(3, tuple(-x for x in w.letters[::-1]))
        expected = FreeWord(3)
        for _ in range(abs(k)):
            expected = FreeWord(3, expected.letters + step.letters)
        assert w ** k == expected

    @settings(derandomize=True, max_examples=200)
    @given(words3)
    def test_cyclic_core(self, w):
        c = cyclic_core(w).letters
        assert not c or c[0] != -c[-1]
        t = (len(w) - len(c)) // 2
        u = FreeWord(3, w.letters[:t])
        assert FreeWord(3, u.letters + c + u.inverse().letters) == w


class TestCommutator:
    def test_basic(self):
        a, b = generator(2, 1), generator(2, 2)
        assert commutator(a, b).letters == (1, 2, -1, -2)

    def test_self_commutator_trivial(self, rng):
        w = rand_word(rng, 2, 10)
        assert commutator(w, w).letters == ()

    def test_inverse_swaps_arguments(self, rng):
        for _ in range(30):
            u, v = rand_word(rng, 3, 8), rand_word(rng, 3, 8)
            assert commutator(u, v).inverse() == commutator(v, u)

    def test_power_commutator_expansion(self, rng):
        # [a^n, b] = a^(n-1) [a,b] a^-(n-1) * a^(n-2) [a,b] a^-(n-2) ... [a,b]
        for _ in range(20):
            a, b = rand_word(rng, 2, 6), rand_word(rng, 2, 6)
            for n in range(1, 6):
                lhs = commutator(power(a, n), b)
                rhs = FreeWord(2)
                for m in range(n - 1, -1, -1):
                    rhs = rhs * conjugate(power(a, m), commutator(a, b))
                assert lhs == rhs


class TestAbelianizationTest:
    def test_commutator_in_subgroup(self):
        a, b = generator(2, 1), generator(2, 2)
        assert not any(abelianize(commutator(a, b)))
        assert any(abelianize(a))

    def test_surface_relator(self):
        P = parse_presentation(surface_presentation_text(2))
        assert not any(abelianize(P.relators[0]))


class TestParser:
    def test_commutator_power(self):
        w = parse_word("[a,b]^2", ["a", "b"])
        assert w.letters == (1, 2, -1, -2, 1, 2, -1, -2)

    def test_star_and_negative_power(self):
        assert parse_word("a*b*a^-1", ["a", "b"]).letters == (1, 2, -1)

    def test_uppercase_inverse(self):
        assert parse_word("a A b", ["a", "b"]).letters == (2,)

    def test_round_trip(self, rng):
        names = ["a", "b", "c"]
        for _ in range(30):
            w = rand_word(rng, 3, 15)
            assert parse_word(render(w, names), names) == w

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            parse_word("a q", ["a", "b"])

    def test_syntax_error_position(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("[a,b", ["a", "b"])
        assert "line 1" in str(exc.value)

    def test_exponent_beyond_int_conversion_refused(self):
        # more digits than int() converts by default; refused by its length
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("b a^" + "9" * 5000, ["a", "b"])
        assert "exponent of 5000 digits exceeds the parser limit" \
            in str(exc.value)
        assert "(line 1, column 5)" in str(exc.value)

    @pytest.mark.parametrize("exponent", ["9" * 20, "-" + "9" * 5000],
                             ids=["20_digits", "minus_5000_digits"])
    def test_empty_atom_to_any_power_is_empty(self, exponent):
        assert parse_word(f"(a A)^{exponent}", ["a", "b"]) == FreeWord(2)


class TestPresentation:
    def test_surface_l2(self):
        P = parse_presentation(surface_presentation_text(2))
        assert P.rank == 4
        assert len(P.relators) == 1
        # one commutator block of 4 letters per handle, no cancellation
        assert len(P.relators[0]) == 4 * 2

    def test_comments_and_blank_lines(self):
        P = parse_presentation("# header\ngens: a, b\n\nrel: [a,b]  # tail\n")
        assert P.rank == 2
        assert P.relators[0].letters == (1, 2, -1, -2)

    def test_no_relators(self):
        P = parse_presentation("gens: a, b, c\n")
        assert P.relators == ()

    def test_missing_gens(self):
        with pytest.raises(WordSyntaxError):
            parse_presentation("rel: [a,b]\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_presentation("gens: a, a\n")
        with pytest.raises(ValueError):
            Presentation(2, ("a", "a"))
