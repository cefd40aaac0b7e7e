import json
import random
import time
from pathlib import Path

import pytest

from invqm import cli
from invqm.cli import CliError, main, rat_str
from invqm.engine import PreconditionError
from invqm.linalg import identity, mat_mul
from invqm.words import UnknownGeneratorError, WordSyntaxError

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_ARGS = {
    "free_n3": ["preset", "free", "--rank", "3"],
    "surface_l2": ["preset", "surface", "--genus", "2"],
    "torelli_torus_l2": ["preset", "torelli_torus", "--genus", "2"],
    "one_relator_power_n2_k2":
        ["preset", "one_relator_power", "--rank", "2", "--power", "2"],
    "remark_group_k3": ["preset", "remark_group", "--count", "3"],
    "circle_bundle_l2_n3":
        ["preset", "circle_bundle", "--genus", "2", "--euler", "3"],
    "free_torus_fib": ["preset", "free_torus", "--matrix", "[[0,1],[1,1]]"],
}
# Other reports live in subdirectories: the preset goldens above are also
# read by the benchmark's oracle tests, which expect exactly those files.
GOLDEN_ARGS.update({
    f"invhoms/{name}": ["invhoms", str(GOLDEN / "invhoms" / f"{name}.grp")]
    for name in ("surface_l2", "circle_bundle_l2_n3", "torsion_mixed")})
# status branches: both dimensions upper bounds with a note each (analyze),
# and one note for both bounds versus an asserted equality (torus)
SHEAR = ["torus", "--shape", "free", "--matrix", "[[1,1],[0,1]]"]
GOLDEN_ARGS.update({
    "analyze/rank3_commutator_square":
        ["analyze", str(GOLDEN / "analyze" / "rank3_commutator_square.grp")],
    "torus/free_shear": SHEAR,
    "torus/free_shear_atoroidal": SHEAR + ["--assert-atoroidal"],
})


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
    def test_preset_matches_golden_file(self, capsys, name):
        rc, out = run(capsys, GOLDEN_ARGS[name] + ["--json"])
        assert rc == 0
        assert out == (GOLDEN / f"{name}.json").read_text()

    def test_byte_determinism(self, capsys):
        argv = GOLDEN_ARGS["surface_l2"] + ["--json"]
        outs = {run(capsys, argv)[1] for _ in range(3)}
        assert len(outs) == 1


class TestAnalyze:
    def test_presentation_file(self, capsys, tmp_path):
        p = tmp_path / "surface.grp"
        p.write_text("gens: a, b, c, d\nrel: [a,b][c,d]\n")
        rc, out = run(capsys, ["analyze", str(p), "--assert-hyperbolic",
                               "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["dims"]["q_mod_ext"] == {"value": 6, "status": "equality"}
        assert obj["dims"]["q_mod_h1_ext"] == {"value": 1,
                                               "status": "equality"}

    def test_missing_file_exit_2(self, capsys):
        rc, _ = run(capsys, ["analyze", "missing.grp"])
        assert rc == 2

    def test_text_mode(self, capsys):
        rc, out = run(capsys, ["preset", "free", "--rank", "2"])
        assert rc == 0
        assert "= 1 [equality]" in out


class TestTorus:
    def test_surface_shape(self, capsys):
        rc, out = run(capsys, ["torus", "--shape", "surface", "--genus", "2",
                               "--matrix", "[[1,0,0,0],[0,1,0,0],"
                               "[0,0,1,0],[0,0,0,1]]",
                               "--assert-hyperbolic", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["dims"]["q_mod_ext"]["value"] == 10

    def test_free_shape_matrix_file(self, capsys, tmp_path):
        m = tmp_path / "A.json"
        m.write_text("[[1,1],[0,1]]")
        rc, out = run(capsys, ["torus", "--shape", "free",
                               "--matrix", str(m), "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["dims"]["q_mod_ext"] == {"value": 2,
                                            "status": "upper_bound"}

    def test_bad_matrix_exit_2(self, capsys):
        rc, _ = run(capsys, ["torus", "--shape", "free",
                             "--matrix", "[[2,0],[0,1]]"])
        assert rc == 2
        # non-integral entries are refused, not truncated
        for matrix, entry in (('[[1,"3/2"],[0,1]]', '"3/2"'),
                              ("[[1,1.5],[0,1]]", "1.5"),
                              ("[[1,true],[0,1]]", "true")):
            assert main(["preset", "free_torus", "--matrix", matrix]) == 2
            err = capsys.readouterr().err
            assert f"entry {entry} at row 1, column 2" in err

    def test_surface_genus_16_in_under_two_seconds(self, capsys):
        # a product of 32 random symplectic transvections
        # x -> x + w(v, x) v, w(x, y) = x^T J y, J = [[0, I], [-I, 0]]
        g, rng = 16, random.Random(16)
        A = identity(2 * g)
        for _ in range(2 * g):
            v = [rng.choice((-1, 0, 0, 1)) for _ in range(2 * g)]
            vJ = [-v[j + g] if j < g else v[j - g] for j in range(2 * g)]
            A = mat_mul(A, [[int(i == j) + v[i] * vJ[j]
                             for j in range(2 * g)] for i in range(2 * g)])
        start = time.perf_counter()
        rc, out = run(capsys, ["torus", "--shape", "surface", "--genus", "16",
                               "--matrix", json.dumps(A), "--json"])
        assert time.perf_counter() - start < 2
        assert rc == 0
        obj = json.loads(out)
        # chi_A is squarefree here: 16 pairs lambda, 1/lambda and no
        # fixed vector of A
        assert (obj["h2Gamma"], obj["h2G"]) == (16, 1)

    def test_non_square_preset_matrix_exit_2(self, capsys):
        assert main(["preset", "free_torus", "--matrix", "[[1,2]]"]) == 2
        assert "n x n" in capsys.readouterr().err


class TestPresetOptions:
    def test_every_preset_has_an_option_table(self):
        from invqm.cli import PRESET_OPTIONS
        from invqm.engine import PRESET_NAMES
        assert sorted(PRESET_OPTIONS) == sorted(PRESET_NAMES)

    @pytest.mark.parametrize("argv, message", [
        (["surface", "--genus", "2", "--rank", "5"],
         "preset surface does not take --rank"),
        (["circle_bundle", "--genus", "2", "--euler", "3", "--power", "5"],
         "preset circle_bundle does not take --power"),
        (["free", "--rank", "-1"], "free needs n >= 0"),
    ])
    def test_refused_exit_2(self, capsys, argv, message):
        assert main(["preset"] + argv) == 2
        assert message in capsys.readouterr().err


class TestInvhoms:
    def test_surface(self, capsys, tmp_path):
        p = tmp_path / "surface.grp"
        p.write_text("gens: a, b, c, d\nrel: [a,b][c,d]\n")
        rc, out = run(capsys, ["invhoms", str(p), "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["dim"] == 5
        assert len(obj["basis"]) == 5
        assert obj["constraints"] == [[[1, 2, "1"], [3, 4, "1"]]]

    def test_constraint_space_built_once(self, capsys, monkeypatch):
        from invqm import invhoms
        calls = []
        build = invhoms.constraint_space
        monkeypatch.setattr(invhoms, "constraint_space",
                            lambda P: calls.append(P) or build(P))
        path = GOLDEN / "invhoms" / "circle_bundle_l2_n3.grp"
        for json_flag in ([], ["--json"]):
            calls.clear()
            assert run(capsys, ["invhoms", str(path)] + json_flag)[0] == 0
            assert len(calls) == 1


class TestWedge:
    def test_commutator(self, capsys):
        rc, out = run(capsys, ["wedge", "[a,b]", "--gens", "a,b", "--json"])
        assert rc == 0
        assert json.loads(out) == {"schema_version": 1,
                                   "pairs": [[1, 2, "1"]]}

    def test_nonzero_abelianization_exit_2(self, capsys):
        rc, _ = run(capsys, ["wedge", "a", "--gens", "a,b"])
        assert rc == 2

    def test_duplicate_gens_exit_2(self, capsys):
        assert main(["wedge", "[a,b]", "--gens", "a,b,a"]) == 2
        assert "'a' given twice" in capsys.readouterr().err

    def test_long_power_within_parser_limit(self, capsys):
        rc, out = run(capsys, ["wedge", "[a,b]^2000", "--gens", "a,b"])
        assert rc == 0 and out == "e1^e2: 2000\n"

    @pytest.mark.parametrize("argv, column", [
        (["qm", "eval", "--terms", "ab:1", "--gens", "a,b",
          "--word", "a^-99999999"], 3),
        (["wedge", "[a,b] (a b A)^1000000", "--gens", "a,b"], 15),
        (["wedge", "[a^999999, b]", "--gens", "a,b"], 1),
        (["wedge", "a^999999 b^999999", "--gens", "a,b"], 10),
    ])
    def test_parser_length_limit_exit_2(self, capsys, argv, column):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds the parser limit of 1000000" in err
        assert f"(line 1, column {column})" in err

    def test_exponent_beyond_int_conversion_exit_2(self, capsys):
        assert main(["wedge", "a^" + "9" * 5000, "--gens", "a,b"]) == 2
        err = capsys.readouterr().err
        assert "exponent of 5000 digits exceeds the parser limit" in err
        assert "(line 1, column 3)" in err and "internal error" not in err

    @pytest.mark.parametrize("exponent", ["9" * 20, "9" * 5000],
                             ids=["20_digits", "5000_digits"])
    def test_empty_word_to_huge_power(self, capsys, exponent):
        assert run(capsys, ["wedge", f"(a A)^{exponent}", "--gens", "a,b"]) \
            == (0, "0\n")


class TestTransgress:
    def test_pairs_file(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[[[1,0],[0,1]],[[0,1],[1,0]]]")
        rc, out = run(capsys, ["transgress", "--hom", "1,2", "--rank", "2",
                               "--pairs", str(pairs), "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert [r["value"] for r in obj["values"]] == ["0", "-1"]

    @pytest.mark.parametrize("pairs, message", [
        ("5", "pairs must be a JSON array"),
        ('{"a":1}', "pairs must be a JSON array"),
        ("[[1,2]]", "pair 1 must be two vectors of length --rank"),
        ("[[[1,0]]]", "pair 1 must be two vectors of length --rank"),
        ('[[[1,0],[0,1]],[[1,0],[0,"x"]]]',
         'pair 2: matrix entry "x" at row 2, column 2 is not an integer'),
        ("[[[1.5,0],[0,1]]]", "entry 1.5 at row 1, column 1"),
        ("[[[true,0],[0,1]]]", "entry true at row 1, column 1"),
    ])
    def test_bad_pairs_exit_2(self, capsys, tmp_path, pairs, message):
        path = tmp_path / "pairs.json"
        path.write_text(pairs)
        assert main(["transgress", "--hom", "1,2", "--rank", "2",
                     "--pairs", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_section_words_beyond_the_letter_limit_exit_2(self, capsys,
                                                          tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("[[[1,0],[0,1]],[[100000000,0],[0,1]]]")
        start = time.perf_counter()
        assert main(["transgress", "--hom", "1,2", "--rank", "2",
                     "--pairs", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", "invqm: pair 2: section words of 200000002 letters exceed "
                "the limit of 1000000\n")

    def test_letter_limit_boundary(self, capsys, tmp_path, monkeypatch):
        # |g1| + |g2| + |g1 + g2| letters, the sum taken entrywise
        monkeypatch.setattr(cli, "MAX_PARSED_LETTERS", 10)
        path = tmp_path / "pairs.json"
        for pairs, rc in (("[[[3,0],[2,0]]]", 0), ("[[[3,-1],[2,0]]]", 2),
                          ("[[[3,1],[-3,1]]]", 0), ("[[[3,0],[3,0]]]", 2)):
            path.write_text(pairs)
            assert main(["transgress", "--hom", "1,2", "--rank", "2",
                         "--pairs", str(path)]) == rc
            assert ("exceed the limit of 10" in capsys.readouterr().err) \
                == (rc == 2)

    def test_cup_matrix(self, capsys):
        rc, out = run(capsys, ["transgress", "--hom", "1,2", "--rank", "2",
                               "--cup-matrix", "--json"])
        assert rc == 0
        assert json.loads(out)["cup_matrix"] == [["0", "1"], ["-1", "0"]]

    def test_cup_matrix_rank_100_in_under_a_second(self, capsys):
        start = time.perf_counter()
        rc, out = run(capsys, ["transgress", "--hom", "3,97", "--rank", "100",
                               "--cup-matrix", "--json"])
        assert time.perf_counter() - start < 1
        assert rc == 0
        M = json.loads(out)["cup_matrix"]
        assert [(i, j, x) for i, row in enumerate(M)
                for j, x in enumerate(row) if x != "0"] \
            == [(2, 96, "1"), (96, 2, "-1")]


class TestQm:
    def test_eval(self, capsys):
        rc, out = run(capsys, ["qm", "eval", "--terms", "ab:1,BA:-1",
                               "--gens", "a,b", "--word", "abab", "--json"])
        assert rc == 0
        assert json.loads(out)["value"] == "2"

    def test_homog(self, capsys):
        rc, out = run(capsys, ["qm", "homog", "--terms", "ab:1,BA:-1",
                               "--gens", "a,b", "--word", "ab", "--json"])
        assert rc == 0
        assert json.loads(out)["value"] == "1"

    @pytest.mark.parametrize("mode, terms, value", [
        ("big", "a^40:1", "1"), ("little", "aa:1", "1/2")])
    def test_homog_exact(self, capsys, mode, terms, value):
        # --kmax is accepted and ignored: there is no sampling horizon
        for extra in ([], ["--kmax", "2"]):
            rc, out = run(capsys, ["qm", "homog", "--mode", mode, "--terms",
                                   terms, "--gens", "a", "--word", "a"]
                          + extra)
            assert (rc, out) == (0, value + "\n")

    def test_defect_witness(self, capsys):
        rc, out = run(capsys, ["qm", "defect", "--terms", "ab:1,BA:-1",
                               "--gens", "a,b", "--maxlen", "2", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["kind"] == "lower"
        assert len(obj["witness"]) == 2

    def test_bavard_certified(self, capsys):
        rc, out = run(capsys, ["qm", "bavard", "--terms", "ab:1,BA:-1",
                               "--gens", "a,b", "--word", "ababab",
                               "--defect-upper", "2", "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["bound"] == "3/4"
        assert "certified" in obj["label"]

    def test_missing_word_exit_2(self, capsys):
        rc, _ = run(capsys, ["qm", "eval", "--terms", "ab:1",
                             "--gens", "a,b"])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        (["defect", "--maxlen", "0"], "max_len must be at least 1"),
        (["bavard", "--word", "ab", "--maxlen", "0"],
         "max_len must be at least 1"),
        (["bavard", "--word", "ab", "--defect-upper", "0"],
         "must be positive"),
        (["defect", "--maxlen", "9"],
         "max_len 9 at rank 2 gives more than 1000000 pairs"),
        (["bavard", "--word", "ab", "--maxlen", "6"],
         "max_len 6 at rank 2 gives more than 1000000 pairs"),
    ])
    def test_library_validation_exit_2(self, capsys, argv, message):
        assert main(["qm", argv[0], "--terms", "ab:1", "--gens", "a,b"]
                    + argv[1:]) == 2
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err


class TestExactOutput:
    """Whole stdout or stderr and exit code of the branches `main` and
    `cmd_qm` share between commands."""

    @pytest.mark.parametrize("argv, out", [
        (["qm", "eval", "--terms", "ab:1,BA:-1", "--gens", "a,b",
          "--word", "abab"], "2\n"),
        (["qm", "eval", "--terms", "ab:1,BA:-1", "--gens", "a,b",
          "--word", "abab", "--json"], '{"schema_version":1,"value":"2"}\n'),
        (["qm", "eval", "--mode", "little", "--terms", "aa:1,b:-2/3",
          "--gens", "a,b", "--word", "aaaab"], "4/3\n"),
        (["qm", "homog", "--terms", "ab:1/2,BA:-1", "--gens", "a,b",
          "--word", "abAB"], "1/2\n"),
        (["qm", "homog", "--terms", "ab:1/2,BA:-1", "--gens", "a,b",
          "--word", "abAB", "--json"],
         '{"schema_version":1,"value":"1/2"}\n'),
        (["qm", "homog", "--mode", "little", "--terms", "aa:1", "--gens", "a",
          "--word", "a", "--json"], '{"schema_version":1,"value":"1/2"}\n'),
        (["invhoms", str(GOLDEN / "invhoms" / "surface_l2.grp")],
         "dim H1(N)^G = 5\ndim constraint space = 1\n"),
        (["invhoms", str(GOLDEN / "invhoms" / "circle_bundle_l2_n3.grp")],
         "dim H1(N)^G = 6\ndim constraint space = 4\n"),
        (["invhoms", str(GOLDEN / "invhoms" / "torsion_mixed.grp")],
         "dim H1(N)^G = 2\ndim constraint space = 4\n"),
    ])
    def test_stdout(self, capsys, argv, out):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("argv, err", [
        (["wedge", "c", "--gens", "a,b"],
         "invqm: unknown generator 'c' (line 1, column 1)\n"),
        (["qm", "eval", "--terms", "ab:1", "--gens", "a,b", "--word",
          "a^-99999999"],
         "invqm: exponent of 8 digits exceeds the parser limit of 1000000 "
         "letters (line 1, column 3)\n"),
        (["preset", "surface", "--genus", "1"],
         "invqm: surface needs genus l >= 2\n"),
        (["analyze", "missing.grp"],
         "invqm: presentation file not found: missing.grp\n"),
    ])
    def test_refusal_stderr(self, capsys, argv, err):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("exc, err", [
        (lambda: CliError("bad input"), "invqm: bad input\n"),
        (lambda: WordSyntaxError("bad token", 2, 5),
         "invqm: bad token (line 2, column 5)\n"),
        (lambda: UnknownGeneratorError("unknown generator 'x'", 1, 3),
         "invqm: unknown generator 'x' (line 1, column 3)\n"),
        (lambda: PreconditionError("need rank > 1"),
         "invqm: need rank > 1\n"),
    ], ids=["CliError", "WordSyntaxError", "UnknownGeneratorError",
            "PreconditionError"])
    def test_each_mapped_class_exits_2(self, capsys, monkeypatch, exc, err):
        def raising(args):
            raise exc()
        monkeypatch.setattr(cli, "cmd_wedge", raising)
        assert main(["wedge", "[a,b]", "--gens", "a,b"]) == 2
        assert capsys.readouterr() == ("", err)


class TestUnreadOptions:
    """Options a command would not read are refused, not ignored."""

    I4 = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    QM = ["--terms", "ab:1", "--gens", "a,b"]

    @pytest.mark.parametrize("argv, message", [
        (["torus", "--shape", "surface", "--genus", "2", "--matrix", I4,
          "--assert-atoroidal"],
         "torus --shape surface does not take --assert-atoroidal"),
        (["torus", "--shape", "surface", "--genus", "2", "--matrix", I4,
          "--rank", "4"], "torus --shape surface does not take --rank"),
        (["torus", "--shape", "free", "--matrix", I4, "--genus", "0"],
         "torus --shape free does not take --genus"),
        (["qm", "defect", *QM, "--word", "ab"],
         "qm defect does not take --word"),
        (["qm", "defect", *QM, "--defect-upper", "2"],
         "qm defect does not take --defect-upper"),
        (["qm", "eval", *QM, "--word", "ab", "--defect-upper", "2"],
         "qm eval does not take --defect-upper"),
        (["qm", "homog", *QM, "--word", "ab", "--defect-upper", "2"],
         "qm homog does not take --defect-upper"),
        (["qm", "eval", *QM, "--word", "ab", "--maxlen", "2"],
         "qm eval does not take --maxlen"),
        (["qm", "homog", *QM, "--word", "ab", "--maxlen", "3"],
         "qm homog does not take --maxlen"),
        (["qm", "bavard", *QM, "--word", "ab", "--defect-upper", "2",
          "--maxlen", "2"],
         "qm bavard --defect-upper does not take --maxlen"),
        (["transgress", "--hom", "1,2", "--rank", "2", "--cup-matrix",
          "--pairs", "pairs.json"],
         "transgress --cup-matrix does not take --pairs"),
    ])
    def test_refused_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"invqm: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["torus", "--shape", "free", "--matrix", "[[1,1],[0,1]]",
         "--assert-hyperbolic"],
        ["qm", "homog", *QM, "--word", "ab", "--kmax", "5"],
        ["qm", "bavard", *QM, "--word", "ab", "--maxlen", "2"],
        ["qm", "bavard", *QM, "--word", "ab", "--defect-upper", "2"],
        ["qm", "defect", *QM, "--maxlen", "1"],
    ])
    def test_read_options_accepted(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_free_shape_reads_assert_hyperbolic(self, capsys):
        rc, out = run(capsys, ["torus", "--shape", "free", "--matrix",
                               "[[1,1],[0,1]]", "--assert-hyperbolic",
                               "--json"])
        assert rc == 0
        assert json.loads(out)["dims"]["q_mod_ext"]["status"] == "equality"

    @pytest.mark.parametrize("argv", [["defect"], ["bavard", "--word", "ab"]])
    def test_maxlen_defaults_to_2(self, capsys, argv):
        base = ["qm", argv[0], *self.QM, *argv[1:], "--json"]
        assert run(capsys, base) == run(capsys, base + ["--maxlen", "2"])
        if argv[0] == "defect":
            assert json.loads(run(capsys, base)[1])["provenance"] \
                == "enumerated to length 2"


class TestRepeatedMain:
    def test_consecutive_calls_share_one_parser(self, capsys):
        from invqm.cli import build_parser
        calls = [
            (["wedge", "[a,b]^3", "--gens", "a,b", "--json"],
             '{"schema_version":1,"pairs":[[1,2,"3"]]}\n'),
            (["wedge", "[a,b]^3", "--gens", "a,b"], "e1^e2: 3\n"),
            (["preset", "free", "--rank", "2"],
             "dim Q(N)^G / i*Q(G)              = 1 [equality]\n"),
            (["qm", "eval", "--terms", "ab:1", "--gens", "a,b",
              "--word", "abab"], "2\n"),
        ]
        for _ in range(2):
            for argv, out in calls:
                rc, printed = run(capsys, argv)
                assert rc == 0 and printed.startswith(out)
            with pytest.raises(SystemExit) as exc:
                main(["wedge"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                "invqm wedge: error: the following arguments are required: "
                "word, --gens\n")
        assert build_parser() is build_parser()


class TestRatStr:
    def test_canonical_forms(self):
        from fractions import Fraction
        assert rat_str(Fraction(3)) == "3"
        assert rat_str(Fraction(-1, 2)) == "-1/2"
        assert rat_str(Fraction(2, 4)) == "1/2"
