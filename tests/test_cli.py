import json
from pathlib import Path

import pytest

from invqm.cli import main, rat_str

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
# invhoms reports live in a subdirectory: the preset goldens above are also
# read by the benchmark's oracle tests, which expect exactly those files.
GOLDEN_ARGS.update({
    f"invhoms/{name}": ["invhoms", str(GOLDEN / "invhoms" / f"{name}.grp")]
    for name in ("surface_l2", "circle_bundle_l2_n3", "torsion_mixed")})


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


class TestWedge:
    def test_commutator(self, capsys):
        rc, out = run(capsys, ["wedge", "[a,b]", "--gens", "a,b", "--json"])
        assert rc == 0
        assert json.loads(out) == {"schema_version": 1,
                                   "pairs": [[1, 2, "1"]]}

    def test_nonzero_abelianization_exit_2(self, capsys):
        rc, _ = run(capsys, ["wedge", "a", "--gens", "a,b"])
        assert rc == 2


class TestTransgress:
    def test_pairs_file(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[[[1,0],[0,1]],[[0,1],[1,0]]]")
        rc, out = run(capsys, ["transgress", "--hom", "1,2", "--rank", "2",
                               "--pairs", str(pairs), "--json"])
        assert rc == 0
        obj = json.loads(out)
        assert [r["value"] for r in obj["values"]] == ["0", "-1"]

    def test_cup_matrix(self, capsys):
        rc, out = run(capsys, ["transgress", "--hom", "1,2", "--rank", "2",
                               "--cup-matrix", "--json"])
        assert rc == 0
        assert json.loads(out)["cup_matrix"] == [["0", "1"], ["-1", "0"]]


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


class TestRatStr:
    def test_canonical_forms(self):
        from fractions import Fraction
        assert rat_str(Fraction(3)) == "3"
        assert rat_str(Fraction(-1, 2)) == "-1/2"
        assert rat_str(Fraction(2, 4)) == "1/2"
