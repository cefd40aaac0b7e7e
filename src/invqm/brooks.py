"""Counting quasimorphisms on free groups (Brooks 1981; Calegari, *scl*,
MSJ Memoirs 20, section 2.3): evaluation, exact homogenization, enumerated
defect certificates, and duality-based lower-bound reporting for stable
(mixed) commutator length.

Homogenization is computed in closed form, with no sampling horizon.  A
reduced word x splits as u c u^-1 with c cyclically reduced, so x^k is the
reduced word u c^k u^-1 and a counting function grows along the powers of x
at the rate at which its pattern occurs in the periodic word c^inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator

from .words import FreeWord, cyclic_core

LITTLE = "little"
BIG = "big"
MAX_DEFECT_PAIRS = 1_000_000
"""Most pairs (x, y) of reduced words that `defect_lower_bound` enumerates."""


@dataclass(frozen=True)
class CountingQM:
    """Linear combination of subword-counting functions.

    In big mode every (possibly overlapping) occurrence of a base word in
    the reduced input counts; in little mode the maximal number of disjoint
    occurrences counts.  Occurrences are counted in the word as written;
    the inverse direction is handled by combinations such as
    count(w) - count(w^-1).
    """

    rank: int
    terms: tuple[tuple[FreeWord, Fraction], ...]
    mode: str = BIG

    def __post_init__(self):
        if self.mode not in (LITTLE, BIG):
            raise ValueError(f"unknown mode {self.mode!r}")
        for w, _ in self.terms:
            if not w.letters:
                raise ValueError("base words must be nonempty")
            if w.rank != self.rank:
                raise ValueError("base word rank mismatch")


def _count_big(pattern: tuple[int, ...], text: tuple[int, ...]) -> int:
    k = len(pattern)
    return sum(1 for i in range(len(text) - k + 1) if text[i:i + k] == pattern)


def _count_little(pattern: tuple[int, ...], text: tuple[int, ...]) -> int:
    # greedy left-to-right is optimal for disjoint occurrences of one pattern
    k = len(pattern)
    count = 0
    i = 0
    while i + k <= len(text):
        if text[i:i + k] == pattern:
            count += 1
            i += k
        else:
            i += 1
    return count


def qm_eval(f: CountingQM, x: FreeWord) -> Fraction:
    if x.rank != f.rank:
        raise ValueError("rank mismatch")
    count = _count_big if f.mode == BIG else _count_little
    total = Fraction(0)
    for w, coeff in f.terms:
        total += coeff * count(w.letters, x.letters)
    return total


def _periodic_matches(pattern: tuple[int, ...],
                      core: tuple[int, ...]) -> list[bool]:
    """Entry i says whether the pattern occurs at offset i of core^inf."""
    m, k = len(core), len(pattern)
    text = core * (1 + (k + m - 2) // m)  # at least m + k - 1 letters
    return [text[i:i + k] == pattern for i in range(m)]


def _big_rate(pattern: tuple[int, ...], core: tuple[int, ...]) -> Fraction:
    return Fraction(sum(_periodic_matches(pattern, core)))


def _little_rate(pattern: tuple[int, ...], core: tuple[int, ...]) -> Fraction:
    # The greedy scan over core^inf acts on its offset mod |core| alone, so
    # it cycles from the first repeated offset; any start offset gives the
    # same rate, as greedy is optimal and shifting the start costs O(1).
    matches = _periodic_matches(pattern, core)
    m, k = len(core), len(pattern)
    seen: list[tuple[int, int] | None] = [None] * m
    pos = count = 0
    while seen[pos % m] is None:
        seen[pos % m] = (pos, count)
        if matches[pos % m]:
            count += 1
            pos += k
        else:
            pos += 1
    pos0, count0 = seen[pos % m]
    return Fraction((count - count0) * m, pos - pos0)


def homogenize_eval(f: CountingQM, x: FreeWord) -> Fraction:
    """The homogenization lim f(x^k)/k at x, exactly.

    With x = u c u^-1 and c cyclically reduced, each term contributes its
    coefficient times the occurrences of its pattern per period of c^inf:
    in big mode the occurrences starting in one period; in little mode the
    disjoint occurrences found by the greedy scan over one cycle of its
    offset mod |c|, divided by the length of that cycle in periods.
    """
    if x.rank != f.rank:
        raise ValueError("rank mismatch")
    core = cyclic_core(x).letters
    if not core:
        return Fraction(0)
    rate = _big_rate if f.mode == BIG else _little_rate
    total = Fraction(0)
    for w, coeff in f.terms:
        total += coeff * rate(w.letters, core)
    return total


@dataclass(frozen=True)
class DefectCertificate:
    """A one-sided bound on the defect.  Lower certificates are enumerated
    and carry the witnessing pair; upper certificates are user-supplied."""

    bound: Fraction
    kind: str  # "lower" | "upper"
    witness: tuple[FreeWord, FreeWord] | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in ("lower", "upper"):
            raise ValueError("kind must be 'lower' or 'upper'")
        if self.kind == "lower" and self.witness is None:
            raise ValueError("lower certificates need a witness")


def _reduced_letter_words(rank: int, max_len: int) -> list[tuple[int, ...]]:
    """All freely reduced letter tuples of length <= max_len, breadth
    first, letters ordered 1, -1, 2, -2, ..."""
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    words: list[tuple[int, ...]] = [()]
    frontier = words[:]
    for _ in range(max_len if rank else 0):  # rank 0: only the empty word
        frontier = [w + (x,) for w in frontier for x in alphabet
                    if not w or w[-1] != -x]
        words.extend(frontier)
    return words


def _pairs(words: list[tuple[int, ...]]
           ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every ordered pair (x, y), x outer, with the number c of letters of
    x that cancel in the product x y."""
    for x in words:
        n = len(x)
        for y in words:
            m = min(n, len(y))
            c = 0
            while c < m and x[n - 1 - c] == -y[c]:
                c += 1
            yield x, y, c


def defect_lower_bound(f: CountingQM, max_len: int) -> DefectCertificate:
    """Exhaustive maximum of |f(xy) - f(x) - f(y)| over reduced pairs with
    |x|, |y| <= max_len; monotone nondecreasing in max_len.  The witness is
    the first pair, x outer and y inner in `_reduced_letter_words` order,
    that attains the maximum.

    Coefficients are scaled to integers.  Write x = a t and y = t^-1 b with
    x y = a b reduced, let s + 1 be the longest pattern length, a' the last
    s letters of a and b' the first s letters of b.  In big mode an
    occurrence in a b, a t or t^-1 b that lies inside neither a nor b lies
    inside a' b', a' t or t^-1 b' respectively; the counts inside a, b, a'
    and b' cancel, leaving f(xy) - f(x) - f(y) = f(a' b') - f(a' t) -
    f(t^-1 b').  Little mode counts whole words, since its greedy scan is
    not local.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    words, layer = 1, 2 * f.rank  # reduced words of length <= k, of length k
    for _ in range(max_len if f.rank else 0):  # rank 0: only the empty word
        words, layer = words + layer, layer * (2 * f.rank - 1)
        if words * words > MAX_DEFECT_PAIRS:
            raise ValueError(f"max_len {max_len} at rank {f.rank} gives more "
                             f"than {MAX_DEFECT_PAIRS} pairs of reduced words")
    scale = lcm(*(Fraction(coeff).denominator for _, coeff in f.terms))
    weights = [(w.letters, int(coeff * scale)) for w, coeff in f.terms]
    count = _count_big if f.mode == BIG else _count_little

    def value(text: tuple[int, ...]) -> int:
        return sum(weight * count(p, text) for p, weight in weights)

    words = _reduced_letter_words(f.rank, max_len)
    if f.mode == BIG:
        s = max((len(p) for p, _ in weights), default=1) - 1
        # value of x's last c + s letters and of y's first c + s letters
        tails = {x: [value(x[max(0, len(x) - c - s):])
                     for c in range(len(x) + 1)] for x in words}
        heads = {y: [value(y[:c + s]) for c in range(len(y) + 1)]
                 for y in words}
        junctions: dict[tuple[int, ...], int] = {}

        def excess(x, y, c):
            window = x[max(0, len(x) - c - s):len(x) - c] + y[c:c + s]
            v = junctions.get(window)
            if v is None:
                v = junctions[window] = value(window)
            return v - tails[x][c] - heads[y][c]
    else:
        values = {w: value(w) for w in words}

        def excess(x, y, c):
            return value(x[:len(x) - c] + y[c:]) - values[x] - values[y]

    best = 0
    witness = ((), ())
    for x, y, c in _pairs(words):
        gap = abs(excess(x, y, c))
        if gap > best:
            best = gap
            witness = (x, y)
    return DefectCertificate(
        Fraction(best, scale), "lower",
        (FreeWord(f.rank, witness[0]), FreeWord(f.rank, witness[1])),
        provenance=f"enumerated to length {max_len}")


def bavard_lower_bound(f: CountingQM, x: FreeWord,
                       defect_upper: DefectCertificate) -> Fraction:
    """|homogenization of f at x| / (2 * D) for a supplied upper defect
    certificate D > 0; a certified lower bound for the stable mixed
    commutator length given that certificate."""
    if defect_upper.kind != "upper":
        raise ValueError("need an upper defect certificate")
    if defect_upper.bound <= 0:
        raise ValueError("upper defect certificate must be positive")
    value = homogenize_eval(f, x)
    return abs(value) / (2 * defect_upper.bound)
