"""Seeded inputs for the three workloads, each paired with its oracle check.

A workload is a fixed ladder of instance shapes; the seed only draws the
random content of each rung, so every seed asks for the same amount of work
of the same kind.  Each ladder also holds two blocks of draws of one shape,
sized so that the median and the 90th percentile of a pass fall inside a
block of similar instances rather than between two far-apart rungs, where
they would jump from seed to seed.  Each instance is one invocation of the
invqm command line and knows, from how its input was built, what the answer
must be (see oracle.py).  Probes are instances that the program is known to
get wrong or not finish today; they run once per benchmark run and are
reported apart from the timed sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle

WORKLOADS = {
    "presentations": "analyze and invhoms on random presentations of rank "
                     "4 to 14 plus the preset families: the rank, RREF and "
                     "SNF path",
    "monodromy": "torus on random symplectic and unimodular matrices: dense "
                 "rank on exterior squares and a determinant, no RREF or SNF",
    "words_qm": "wedge, transgress and qm on long words: word reduction and "
                "counting scans, no linear algebra",
}


@dataclass
class Instance:
    """One command line and the check its JSON output must pass.

    ``check`` takes the parsed JSON and returns None or a reason.  Outputs
    already verified are remembered, so the oracle runs once per distinct
    output however many passes repeat the instance."""

    label: str
    argv: list[str]
    check: Callable[[dict], str | None]
    verified: set = field(default_factory=set)

    def verify(self, stdout: str) -> str | None:
        if stdout in self.verified:
            return None
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (json.JSONDecodeError, IndexError) as exc:
            return f"unparsable output: {exc}"
        reason = self.check(out)
        if reason is None:
            self.verified.add(stdout)
        return reason


@dataclass
class Inputs:
    mix: list[Instance]      # one pass of the timed phase, in order
    probes: list[Instance]   # known failures, run once per run
    oracle_s: float = 0.0    # oracle seconds spent while building them


# Oracle seconds spent by the builder in progress; build() hands the total
# to Inputs.oracle_s so that set-up time can leave it out.
_oracle_s = 0.0


def timed_oracle(fn, *args):
    """fn(*args), its time added to the oracle seconds of the build."""
    global _oracle_s
    start = perf_counter()
    try:
        return fn(*args)
    finally:
        _oracle_s += perf_counter() - start


# --- words and their spellings -----------------------------------------------

def names_for(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def spell(w, names) -> str:
    """Space-separated letters; an uppercase letter is an inverse."""
    return " ".join(names[x - 1] if x > 0 else names[-x - 1].upper()
                    for x in w)


def letterwise(w, names) -> str:
    return "".join(names[x - 1] if x > 0 else names[-x - 1].upper()
                   for x in w)


def unspell(text: str, names) -> tuple[int, ...]:
    out = []
    for tok in text.split():
        if tok in names:
            out.append(names.index(tok) + 1)
        else:
            out.append(-(names.index(tok.lower()) + 1))
    return tuple(out)


def random_word(rng, n: int, length: int) -> tuple[int, ...]:
    """Uniform freely reduced word of the given length."""
    out: list[int] = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, n)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def random_cyclic_word(rng, n: int, length: int) -> tuple[int, ...]:
    while True:
        w = random_word(rng, n, length)
        if w[0] != -w[-1]:
            return w


def commutator_product(rng, n: int, length: int) -> tuple[int, ...]:
    """A reduced word of zero abelianization, about the given length: a
    product of conjugated commutators of generators."""
    w: tuple[int, ...] = ()
    while len(w) < length:
        i, j = rng.sample(range(1, n + 1), 2)
        g = random_word(rng, n, rng.randint(0, 2))
        w = oracle.reduce(w + g + (i, j, -i, -j) + oracle.inverse(g))
    return w


# --- presentations -----------------------------------------------------------

# (rank, relators, relator length, analyze draws, invhoms draws).  Timed
# square rungs stop at 9 because square relator matrices of rank 11 and up
# send smith_normal_form into its coefficient blow-up on some seeds, where a
# timed rung would stop measuring the rest of the mix; the wider rungs above
# 9 keep the relator count lower.  The square rungs 10 to 13 run as probes.
PRESENTATION_RUNGS = [
    (4, 2, 6, 1, 1), (4, 3, 8, 1, 1), (5, 2, 8, 1, 1), (5, 3, 10, 1, 1),
    (6, 2, 10, 1, 1), (6, 3, 12, 24, 1), (7, 3, 8, 1, 1), (7, 4, 10, 1, 1),
    (8, 3, 10, 1, 1), (8, 4, 12, 1, 1), (6, 6, 6, 1, 1), (7, 7, 7, 1, 0),
    (8, 8, 8, 1, 1), (9, 9, 9, 1, 0), (10, 8, 10, 1, 1), (11, 8, 11, 1, 0),
    (12, 7, 12, 12, 1), (13, 6, 13, 1, 0), (14, 6, 14, 1, 0)]
# The square rungs left out of the timed mix, one analyze draw each, so the
# growth of the blow-up from rank 10 to 13 stays measured; then the rung past
# it: most draws stall in smith_normal_form, a few in the RREF after it.
SQUARE_PROBE_RUNGS = [(n, n, n) for n in range(10, 14)]
SNF_PROBE_RUNG = (14, 14, 16)
SNF_PROBES = 3


def random_presentation(rng, n: int, m: int, length: int):
    """m relators: a third have zero abelianization, the rest are uniform
    reduced words."""
    commutators = m // 3
    return ([commutator_product(rng, n, length) for _ in range(commutators)]
            + [random_word(rng, n, length) for _ in range(m - commutators)])


def write_presentation(path: Path, n: int, relators) -> None:
    names = names_for(n)
    lines = ["gens: " + ", ".join(names)]
    lines += ["rel: " + spell(r, names) for r in relators]
    path.write_text("\n".join(lines) + "\n")


def preset_check(name, **kwargs):
    return lambda out: oracle.dims_match(
        out, oracle.preset_report(name, **kwargs))


def analyze_check(n, relators):
    def check(out):
        h2, h1ng = oracle.presentation_dims(n, relators)
        return oracle.dims_match(out, oracle.presentation_report(h2, h1ng,
                                                                 False))
    return check


def invhoms_check(n, relators):
    """The printed basis must be independent, annihilate the constraint
    space and have dimension dim H^1(N)^G; the printed constraints must be
    independent, lie in the constraint space and span it."""
    def check(out):
        h2, h1ng = oracle.presentation_dims(n, relators)
        npairs = comb(n, 2)
        index = {(i, j): k for k, (i, j) in enumerate(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))}

        def dense(entries):
            v = [Fraction(0)] * npairs
            for i, j, c in entries:
                v[index[(i, j)]] = Fraction(c)
            return v

        basis = [dense(e) for e in out["basis"]]
        cons = [dense(e) for e in out["constraints"]]
        if out["dim"] != h1ng or len(basis) != h1ng:
            return f"dim {out['dim']} ({len(basis)} vectors), want {h1ng}"
        if len(cons) != npairs - h1ng:
            return f"{len(cons)} constraints, want {npairs - h1ng}"
        if oracle.rank(basis) != len(basis):
            return "basis vectors are dependent"
        if oracle.rank(cons) != len(cons):
            return "constraint rows are dependent"
        M, R = oracle.presentation_rows(n, relators)
        rank_m, rank_r = oracle.rank(M), oracle.rank(R)
        if oracle.rank(M + [c + [0] * n for c in cons]) != rank_m:
            return "a constraint row lies outside the constraint space"
        # phi annihilates W iff, over the rows (w | a) of M, the pairings
        # phi(w) are a linear function of a.
        paired = [row[npairs:] + [sum(p * x for p, x in zip(phi, row))
                                  for phi in basis] for row in M]
        if M and oracle.rank(paired) != rank_r:
            return "a basis vector does not annihilate the constraint space"
        return None
    return check


def build_presentations(rng, workdir: Path) -> Inputs:
    mix = []
    for n, m, length, analyze_draws, invhoms_draws in PRESENTATION_RUNGS:
        for draw in range(max(analyze_draws, invhoms_draws)):
            rels = random_presentation(rng, n, m, length)
            path = workdir / f"rand_{n}_{m}_{length}_{draw}.grp"
            write_presentation(path, n, rels)
            tag = f"n={n} m={m} L={length} #{draw}"
            if draw < analyze_draws:
                mix.append(Instance(f"analyze {tag}",
                                    ["analyze", str(path), "--json"],
                                    analyze_check(n, rels)))
            if draw < invhoms_draws:
                mix.append(Instance(f"invhoms {tag}",
                                    ["invhoms", str(path), "--json"],
                                    invhoms_check(n, rels)))
    presets = ([("free", {"rank": n})
                for n in (2, 3, 4, 6, 8, 12, 16, 24, 32)]
               + [("surface", {"genus": g})
                  for g in (2, 3, 4, 5, 6, 7, 8, 12, 16, 20)]
               + [("remark_group", {"count": k}) for k in (2, 3, 4, 5, 8)]
               + [("one_relator_power",
                   {"rank": n, "power": rng.randint(2, 6)})
                  for n in (3, 4, 6, 8, 12)]
               + [("circle_bundle", {"genus": g,
                                     "euler": rng.choice((1, -1))
                                     * rng.randint(1, 5)})
                  for g in (2, 4, 8, 12, 16)])
    for name, opts in presets:
        argv = ["preset", name]
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        argv.append("--json")
        mix.append(Instance(" ".join(argv[1:-1]).replace("--", ""), argv,
                            preset_check(name, n=opts.get("rank", 0),
                                         l=opts.get("genus", 0),
                                         k=opts.get("count", 0))))
    probes = []
    n, m, length = SNF_PROBE_RUNG
    for k in range(SNF_PROBES):
        rels = [random_word(rng, n, length) for _ in range(m)]
        path = workdir / f"probe_{k}_{n}_{m}_{length}.grp"
        write_presentation(path, n, rels)
        probes.append(Instance(f"analyze n={n} m={m} L={length} (SNF rung)",
                               ["analyze", str(path), "--json"],
                               analyze_check(n, rels)))
    for n, m, length in SQUARE_PROBE_RUNGS:
        rels = random_presentation(rng, n, m, length)
        path = workdir / f"probe_{n}_{m}_{length}.grp"
        write_presentation(path, n, rels)
        probes.append(Instance(f"analyze n={n} m={m} L={length} (square "
                               "rung)", ["analyze", str(path), "--json"],
                               analyze_check(n, rels)))
    return Inputs(mix, probes)


# --- monodromy ---------------------------------------------------------------

def random_symplectic(rng, g: int, active: int, factors: int):
    """Product of symplectic transvections x -> x + w(v, x) v for the form
    w(x, y) = x^T J y, J = [[0, I], [-I, 0]]; each v has entries in
    {-1, 0, 1} on the first `active` symplectic pairs only, so the other
    pairs are fixed."""
    n = 2 * g
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    coords = [i for i in range(n) if i % g < active]
    for _ in range(factors):
        v = [0] * n
        while not any(v):
            for i in coords:
                v[i] = rng.choice((-1, 0, 0, 1))
        # row vector v^T J: (v^T J)_j = v_{j-g} for j >= g, -v_{j+g} for j < g
        vJ = [-v[j + g] if j < g else v[j - g] for j in range(n)]
        T = [[int(i == j) + v[i] * vJ[j] for j in range(n)] for i in range(n)]
        A = [[sum(A[i][t] * T[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
    return A


def random_unimodular(rng, n: int, steps: int, bound: int = 2):
    """Product of elementary row additions, sign changes and one swap."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((1, -1)) * rng.randint(1, bound)
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        if rng.random() < 0.2:
            A[i] = [-a for a in A[i]]
    i, j = rng.sample(range(n), 2)
    A[i], A[j] = A[j], A[i]
    return A


def torus_check(A, surface, hyperbolic):
    return lambda out: oracle.dims_match(
        out, oracle.semidirect_report(A, surface, hyperbolic))


# (genus, active symplectic pairs) of the surface draws, rank of the free
# draws, and rank of the free_torus draws.  The median block is the free
# rank-10 draws; the 90th-percentile block is the free rank-16 draws with
# the genus-8 draw fixing a pair, and only two instances sit above it.
SURFACE_DRAWS = [(g, a) for g in range(2, 8) for a in (g, g - 1)] \
    + [(2, 1), (3, 1), (3, 2), (3, 3), (5, 3), (6, 4), (8, 7), (8, 8), (9, 9)]
FREE_DRAWS = [*range(4, 16), *range(4, 16), *range(4, 9), *range(4, 9),
              *range(4, 8), *range(11, 16), *[10] * 14, *[16] * 24]
FREE_TORUS_DRAWS = [*range(2, 12), *range(2, 6)]


def build_monodromy(rng, workdir: Path) -> Inputs:
    mix = []
    for g, active in SURFACE_DRAWS:
        A = random_symplectic(rng, g, active, factors=g + 2)
        hyp = rng.random() < 0.5
        argv = ["torus", "--shape", "surface", "--genus", str(g),
                "--matrix", json.dumps(A), "--json"]
        if hyp:
            argv.append("--assert-hyperbolic")
        mix.append(Instance(f"torus surface g={g} active={active} "
                            f"#{len(mix)}", argv, torus_check(A, True, hyp)))
    for n in FREE_DRAWS:
        A = random_unimodular(rng, n, steps=3 * n)
        hyp = rng.random() < 0.5
        argv = ["torus", "--shape", "free", "--matrix", json.dumps(A),
                "--json"]
        if hyp:
            argv.append("--assert-atoroidal")
        mix.append(Instance(f"torus free n={n} #{len(mix)}", argv,
                            torus_check(A, False, hyp)))
    for g in range(2, 9):
        mix.append(Instance(f"torelli_torus genus={g}",
                            ["preset", "torelli_torus", "--genus", str(g),
                             "--json"],
                            preset_check("torelli_torus", l=g)))
    for n in FREE_TORUS_DRAWS:
        A = random_unimodular(rng, n, steps=2 * n)
        mix.append(Instance(f"free_torus n={n} #{len(mix)}",
                            ["preset", "free_torus", "--matrix", json.dumps(A),
                             "--json"],
                            torus_check(A, False, False)))
    return Inputs(mix, [])


# --- words and counting quasimorphisms ---------------------------------------

def pairs_check(expected):
    def check(out):
        got = {(i, j): Fraction(c) for i, j, c in out["pairs"]}
        want = {k: Fraction(v) for k, v in expected.items() if v != 0}
        return None if got == want else f"got {got}, want {want}"
    return check


def commutator_power(rng, power: int, tag: str = "") -> Instance:
    n = rng.randint(2, 5)
    names = names_for(n)
    i, j = rng.sample(range(1, n + 1), 2)
    text = f"[{names[i - 1]},{names[j - 1]}]^{power}"
    key, sign = ((i, j), 1) if i < j else ((j, i), -1)
    return Instance(f"wedge [x,y]^{power} rank {n}{tag}",
                    ["wedge", text, "--gens", ",".join(names), "--json"],
                    pairs_check({key: sign * power}))


def conjugated_commutators(rng, n: int, factors: int, tag: str = ""
                           ) -> Instance:
    """prod g [u, v] g^-1 over random short u, v, g; its wedge class is
    sum ab(u) ^ ab(v)."""
    names = names_for(n)
    parts, commutators = [], []
    for _ in range(factors):
        u, v = random_word(rng, n, rng.randint(1, 3)), \
            random_word(rng, n, rng.randint(1, 3))
        g = random_word(rng, n, rng.randint(1, 4))
        gt = spell(g, names)
        parts.append(f"({gt}) [{spell(u, names)}, {spell(v, names)}] "
                     f"({gt})^-1")
        commutators.append((u, v))

    def check(out):
        total = [0] * comb(n, 2)
        for u, v in commutators:
            total = [a + b for a, b in zip(total, oracle.wedge(
                oracle.abelianize(u, n), oracle.abelianize(v, n)))]
        pairs = [(i, j) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1)]
        return pairs_check(dict(zip(pairs, total)))(out)
    return Instance(f"wedge {factors} conjugated commutators rank {n}{tag}",
                    ["wedge", " ".join(parts), "--gens", ",".join(names),
                     "--json"], check)


def transgress_instance(rng, workdir: Path, n: int, distinct: int,
                        total: int, tag: str = "") -> Instance:
    """Cocycle values on `total` pairs drawn with repetition from `distinct`
    pairs, so the evaluator's memo sees repeats."""
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    pool = [tuple([rng.randint(-30, 30) for _ in range(n)] for _ in range(2))
            for _ in range(distinct)]
    pairs = [rng.choice(pool) for _ in range(total)]
    path = workdir / f"pairs_{n}_{distinct}_{total}{tag.strip(' #')}.json"
    path.write_text(json.dumps(pairs))

    def check(out):
        for entry, (g1, g2) in zip(out["values"], pairs):
            if (entry["g1"], entry["g2"]) != (g1, g2):
                return "pairs out of order"
            want = oracle.transgression_value(i, j, g1, g2)
            if Fraction(entry["value"]) != want:
                return f"value at {g1}, {g2}: {entry['value']}, want {want}"
        return None if len(out["values"]) == total else "missing values"
    return Instance(f"transgress rank {n} {total} pairs{tag}",
                    ["transgress", "--hom", f"{i},{j}", "--rank", str(n),
                     "--pairs", str(path), "--json"], check)


def random_terms(rng, n: int, count: int, max_len: int):
    terms = []
    while len(terms) < count:
        w = random_word(rng, n, rng.randint(1, max_len))
        if w not in (t for t, _ in terms):
            terms.append((w, rng.choice((1, -1, 2, -2))))
    return terms


def terms_text(terms, names) -> str:
    return ",".join(f"{letterwise(w, names)}:{c}" for w, c in terms)


def defect_instance(rng, n: int, max_len: int, tag: str = "") -> Instance:
    names = names_for(n)
    terms = random_terms(rng, n, 2, 2)

    def check(out):
        bound = oracle.max_defect(terms, n, max_len, True)
        x, y = (unspell(t, names) for t in out["witness"])
        if Fraction(out["bound"]) != bound:
            return f"bound {out['bound']}, want {bound}"
        if oracle.defect_gap(terms, x, y, True) != bound:
            return "witness does not attain the bound"
        return None
    return Instance(f"qm defect rank {n} maxlen {max_len}{tag}",
                    ["qm", "defect", "--terms", terms_text(terms, names),
                     "--gens", ",".join(names), "--maxlen", str(max_len),
                     "--json"], check)


def homog_instance(rng, n: int, word_len: int, kmax: int, big: bool,
                   tag: str = "") -> Instance:
    """Homogenization at a cyclically reduced word.  Little-mode draws are
    kept only when the greedy scan repeats every period, the case the
    sampler can settle on; the other case is the little-mode probe.  That
    filter is oracle work, timed apart from the generation."""
    names = names_for(n)
    while True:
        terms = random_terms(rng, n, 2, 3)
        x = random_cyclic_word(rng, n, word_len)
        want, cycle = timed_oracle(oracle.homogenization, terms, x, big)
        if big or cycle == 1:
            break
    mode = "big" if big else "little"
    return Instance(f"qm homog {mode} rank {n} |x|={word_len} kmax {kmax}"
                    f"{tag}",
                    ["qm", "homog", "--mode", mode, "--terms",
                     terms_text(terms, names), "--gens", ",".join(names),
                     "--word", letterwise(x, names), "--kmax", str(kmax),
                     "--json"],
                    lambda out: None if Fraction(out["value"]) == want
                    else f"value {out['value']}, want {want}")


def homog_probe(label, terms_arg, pattern, big) -> Instance:
    """One-generator probe at the word a, with the seed's default kmax."""
    def check(out):
        want, _ = oracle.homogenization([(pattern, 1)], (1,), big)
        return None if Fraction(out["value"]) == want \
            else f"value {out['value']}, want {want}"
    mode = "big" if big else "little"
    return Instance(label, ["qm", "homog", "--mode", mode, "--terms",
                            terms_arg, "--gens", "a", "--word", "a", "--json"],
                    check)


def build_words_qm(rng, workdir: Path) -> Inputs:
    # the 90th-percentile block: five commutator powers 1200 and the three
    # kmax 512 homogenizations below; the median block is the six products
    # of 60 conjugated commutators and the six rank-7 cocycle runs
    mix = [commutator_power(rng, k, f" #{i}") for i, k in
           enumerate((125, 250, 500, 1200, 1200, 1200, 1200, 1200, 2000))]
    mix += [conjugated_commutators(rng, n, f * n) for n in range(2, 9)
            for f in (6, 12)]
    mix += [conjugated_commutators(rng, 5, 60, f" #{i}") for i in range(6)]
    mix += [transgress_instance(rng, workdir, n, 20, 60) for n in range(2, 9)]
    mix += [transgress_instance(rng, workdir, 7, 20, 60, f" #{i}")
            for i in range(6)]
    mix += [defect_instance(rng, n, maxlen, f" #{i}") for i, (n, maxlen) in
            enumerate(((2, 2), (2, 3), (2, 4), (2, 4), (3, 2), (3, 3),
                       (4, 2)))]
    mix += [homog_instance(rng, n, 6, kmax, True, f" #{i}")
            for i, n in enumerate((2, 3, 3))
            for kmax in (32, 64, 128, 256, 512)]
    mix += [homog_instance(rng, 3, 8, kmax, False, f" #{i}") for i in range(2)
            for kmax in (32, 64, 128, 256)]
    probes = [
        # the pattern is longer than the sampling horizon: f(a^k) = 0 for
        # every sampled k, but each period of a^inf adds one occurrence
        homog_probe("qm homog big a^40:1 at a (horizon)", "a^40:1",
                    (1,) * 40, True),
        # f(a^k) = floor(k/2) never has constant differences
        homog_probe("qm homog little aa:1 at a (period 2)", "aa:1", (1, 1),
                    False),
    ]
    return Inputs(mix, probes)


BUILDERS = {"presentations": build_presentations, "monodromy": build_monodromy,
            "words_qm": build_words_qm}


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Inputs for one workload; the same seed gives the same inputs."""
    global _oracle_s
    workdir.mkdir(parents=True, exist_ok=True)
    _oracle_s = 0.0
    inputs = BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
    inputs.oracle_s = _oracle_s
    return inputs
