import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_word
from invqm import brooks
from invqm.brooks import (BIG, LITTLE, CountingQM, DefectCertificate,
                          bavard_lower_bound, defect_lower_bound,
                          homogenize_eval, qm_eval)
from invqm.words import FreeWord

_NAMES = "ab"

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


# --- references without shortcuts -------------------------------------------

def sampled_slope(f, x, k_max):
    """Power sampling: the first difference of k |-> f(x^k) once the last
    max(4, k_max // 4) differences up to k_max agree, else None.  Powers are
    built by concatenation and full reduction."""
    values = []
    p = FreeWord(x.rank)
    for _ in range(k_max + 1):
        values.append(qm_eval(f, p))
        p = FreeWord(x.rank, p.letters + x.letters)
    diffs = [b - a for a, b in zip(values, values[1:])]
    tail = diffs[-max(4, k_max // 4):]
    return tail[0] if all(d == tail[0] for d in tail) else None


def conjugation_invariance_check(f, samples):
    """For each (x, g), compare homogenized values of x and g x g^-1."""
    report = []
    for x, g in samples:
        hx = homogenize_eval(f, x)
        hc = homogenize_eval(f, g * x * g.inverse())
        report.append({"x": x, "g": g, "value": hx, "conjugated": hc,
                       "equal": hx == hc})
    return report


def reduced_words_up_to(rank, max_len):
    """All freely reduced words of length <= max_len, breadth first, letters
    ordered 1, -1, 2, -2, ...: the order the defect witness is taken in."""
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    layer = [()]
    words = [FreeWord(rank)]
    for _ in range(max_len if rank else 0):
        layer = [w + (x,) for w in layer for x in alphabet
                 if not w or w[-1] != -x]
        words += [FreeWord(rank, w) for w in layer]
    return words


def enumerated_defect(f, max_len):
    """max |f(xy) - f(x) - f(y)| with f evaluated on whole words, and the
    first pair that attains it."""
    words = reduced_words_up_to(f.rank, max_len)
    best, witness = Fraction(0), (words[0], words[0])
    for x in words:
        for y in words:
            xy = FreeWord(f.rank, x.letters + y.letters)
            gap = abs(qm_eval(f, xy) - qm_eval(f, x) - qm_eval(f, y))
            if gap > best:
                best, witness = gap, (x, y)
    return best, witness


def reduced_letters(rank, max_size):
    return st.lists(st.sampled_from([s * g for g in range(1, rank + 1)
                                     for s in (1, -1)]),
                    max_size=max_size).map(
        lambda xs: FreeWord(rank, tuple(xs)).letters)


@st.composite
def counting_qms(draw, rank, max_pattern):
    patterns = draw(st.lists(reduced_letters(rank, max_pattern).filter(bool),
                             min_size=1, max_size=3, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mode = draw(st.sampled_from([BIG, LITTLE]))
    return CountingQM(rank, tuple((FreeWord(rank, p), draw(coeffs))
                                  for p in patterns), mode)


def W(text):
    """Letterwise word builder: lowercase = generator, uppercase = inverse."""
    letters = []
    for ch in text:
        if ch == " ":
            continue
        idx = _NAMES.index(ch.lower()) + 1
        letters.append(idx if ch.islower() else -idx)
    return FreeWord(2, tuple(letters))


def count_qm(pattern_text, mode=BIG, rank=2):
    w = W(pattern_text)
    return CountingQM(rank, ((w, Fraction(1)), (w.inverse(), Fraction(-1))),
                      mode)


class TestEval:
    def test_big_overlapping(self):
        f = count_qm("ab")
        assert qm_eval(f, W("abab")) == 2
        assert qm_eval(f, W("BA")) == -1
        assert qm_eval(f, FreeWord(2)) == 0

    def test_big_vs_little(self):
        big = CountingQM(2, ((W("aa"), Fraction(1)),), BIG)
        little = CountingQM(2, ((W("aa"), Fraction(1)),), LITTLE)
        assert qm_eval(big, W("aaaa")) == 3
        assert qm_eval(little, W("aaaa")) == 2

    def test_counts_reduced_form(self):
        f = count_qm("ab")
        assert qm_eval(f, W("a b B a b")) == qm_eval(f, W("aab"))

    def test_validation(self):
        with pytest.raises(ValueError):
            CountingQM(2, ((FreeWord(2), Fraction(1)),))
        with pytest.raises(ValueError):
            CountingQM(2, ((W("ab"), Fraction(1)),), "weird")
        with pytest.raises(ValueError):
            qm_eval(count_qm("ab"), FreeWord(3, (3,)))


class TestHomogenization:
    def test_power_scaling(self, rng):
        f = count_qm("ab")
        for _ in range(50):
            x = rand_word(rng, 2, 6)
            h = homogenize_eval(f, x)
            for m in (2, 3):
                assert homogenize_eval(f, x ** m) == m * h

    def test_odd_under_inverse(self, rng):
        f = count_qm("aab")
        for _ in range(50):
            x = rand_word(rng, 2, 6)
            assert homogenize_eval(f, x.inverse()) == -homogenize_eval(f, x)

    def test_conjugation_invariance(self, rng):
        f = count_qm("ab")
        samples = [(rand_word(rng, 2, 5), rand_word(rng, 2, 5))
                   for _ in range(20)]
        report = conjugation_invariance_check(f, samples)
        assert all(rec["equal"] for rec in report)

    def test_identity_and_trivial(self):
        f = count_qm("ab")
        assert homogenize_eval(f, FreeWord(2)) == 0
        assert homogenize_eval(f, W("ab")) == 1

    def test_exact_past_sampling_horizon(self):
        # a^35 first occurs in a^35, past any short sampling horizon; each
        # further power of a adds one occurrence
        g = CountingQM(2, ((W("a") ** 35, Fraction(1)),))
        assert homogenize_eval(g, W("a")) == 1
        assert sampled_slope(g, W("a"), 36) is None
        # little mode: f(a^k) = floor(k/2) never has constant differences
        h = CountingQM(2, ((W("aa"), Fraction(1)),), LITTLE)
        assert homogenize_eval(h, W("a")) == Fraction(1, 2)
        assert sampled_slope(h, W("a"), 64) is None
        assert homogenize_eval(h, W("a") ** 5) == Fraction(5, 2)

    @PROPERTY
    @given(st.integers(2, 3).flatmap(
        lambda r: st.tuples(counting_qms(r, 3), reduced_letters(r, 6))))
    def test_closed_form_matches_sampling(self, case):
        f, letters = case
        x = FreeWord(f.rank, letters)
        sampled = sampled_slope(f, x, 48)
        assume(sampled is not None)
        assert homogenize_eval(f, x) == sampled


class TestDefect:
    def test_known_witness(self):
        f = count_qm("ab")
        cert = defect_lower_bound(f, 1)
        assert cert.kind == "lower"
        assert cert.bound >= 1
        x, y = cert.witness
        assert abs(qm_eval(f, x * y) - qm_eval(f, x) - qm_eval(f, y)) \
            == cert.bound
        for mode in (BIG, LITTLE):
            assert defect_lower_bound(CountingQM(2, (), mode), 2).bound == 0

    def test_monotone_in_length(self):
        f = count_qm("aab")
        bounds = [defect_lower_bound(f, L).bound for L in (1, 2, 3)]
        assert bounds == sorted(bounds)

    def test_enumeration_order(self):
        words = reduced_words_up_to(2, 2)
        assert [w.letters for w in words] == brooks._reduced_letter_words(2, 2)
        assert words[0] == FreeWord(2)
        assert [w.letters for w in words[1:5]] == [(1,), (-1,), (2,), (-2,)]
        # 1 + 4 + 4*3 reduced words of length <= 2
        assert len(words) == 17
        assert len(set(words)) == 17

    def test_rank_zero_stops_at_the_empty_layer(self):
        start = time.perf_counter()
        for mode in (BIG, LITTLE):
            cert = defect_lower_bound(CountingQM(0, (), mode), 10 ** 9)
            assert cert.bound == 0
            assert cert.witness == (FreeWord(0), FreeWord(0))
        assert brooks._reduced_letter_words(0, 10 ** 9) == [()]
        assert time.perf_counter() - start < 1

    def test_pair_limit_boundary(self, monkeypatch):
        # 17 reduced words of length <= 2 at rank 2, so 289 pairs
        f = count_qm("ab")
        monkeypatch.setattr(brooks, "MAX_DEFECT_PAIRS", 289)
        assert defect_lower_bound(f, 2).bound == 1
        monkeypatch.setattr(brooks, "MAX_DEFECT_PAIRS", 288)
        with pytest.raises(ValueError, match="more than 288 pairs"):
            defect_lower_bound(f, 2)

    @pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 5), (2, 10 ** 12)])
    def test_pair_limit_refused_before_enumerating(self, rank, max_len):
        # (2, 5) and (3, 4) are the largest accepted: 485 and 937 words
        assert brooks.MAX_DEFECT_PAIRS == 1_000_000
        f = CountingQM(rank, ((FreeWord(rank, (1, 2)), Fraction(1)),))
        with pytest.raises(ValueError, match=f"max_len {max_len} at rank "
                           f"{rank} gives more than 1000000 pairs"):
            defect_lower_bound(f, max_len)

    @PROPERTY
    @given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]).flatmap(
        lambda rl: st.tuples(counting_qms(rl[0], 3), st.just(rl[1]))))
    def test_windowed_matches_enumeration(self, case):
        f, max_len = case
        cert = defect_lower_bound(f, max_len)
        assert (cert.bound, cert.witness) == enumerated_defect(f, max_len)


class TestBavard:
    def test_plug_in(self):
        f = count_qm("ab")
        cert = DefectCertificate(Fraction(2), "upper", provenance="supplied")
        x = W("ab") ** 3
        assert bavard_lower_bound(f, x, cert) == Fraction(3, 4)

    def test_requires_upper_certificate(self):
        f = count_qm("ab")
        lower = defect_lower_bound(f, 1)
        with pytest.raises(ValueError):
            bavard_lower_bound(f, W("ab"), lower)
        with pytest.raises(ValueError):
            bavard_lower_bound(f, W("ab"),
                               DefectCertificate(Fraction(0), "upper"))


def equivalence_report(C: Fraction, flag: str = "generic") -> str:
    """Sandwich statement relating scl to its mixed version on mixed
    commutators, under the hypothesis that every invariant quasimorphism
    splits as invariant homomorphism plus extendable.

    flag 'solvable' forces C = 1 (the two lengths agree), 'amenable' forces
    C = 2; 'generic' uses the supplied constant.
    """
    if flag == "solvable":
        return ("scl_G = scl_{G,N} on [G,N] "
                "(solvable quotient; constant 1)")
    if flag == "amenable":
        return ("scl_G(x) <= scl_{G,N}(x) <= 2*scl_G(x) on [G,N] "
                "(amenable quotient; constant 2)")
    if flag == "generic":
        C = Fraction(C)
        if C < 1:
            raise ValueError("the sandwich constant must be at least 1")
        return f"scl_G(x) <= scl_{{G,N}}(x) <= {C}*scl_G(x) on [G,N]"
    raise ValueError(f"unknown flag {flag!r}")


class TestEquivalenceReport:
    def test_flags(self):
        assert "constant 1" in equivalence_report(Fraction(1), "solvable")
        assert "2*scl_G" in equivalence_report(Fraction(1), "amenable")
        assert "3/2*scl_G" in equivalence_report(Fraction(3, 2))

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            equivalence_report(Fraction(1, 2))
        with pytest.raises(ValueError):
            equivalence_report(Fraction(1), "nope")
