"""Command-line interface: output formats, exit codes, reproducibility."""

import json
import time

import pytest

from loctower.cli import run
from loctower.words import parse_word, power, substitute, word


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "x1*x2*x2^-1*x3")
        assert code == 0
        assert out == "word=x1*x3\nlength=2\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "--json", "reduce", "x1*x1")
        assert code == 0
        assert json.loads(out) == {"word": "x1^2", "length": 2}

    def test_identity(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "x1*x1^-1")
        assert code == 0
        assert out.splitlines()[0] == "word=1"


class TestRoot:
    def test_power(self, capsys):
        code, out, _ = invoke(capsys, "root", "x1*x2*x1*x2")
        assert code == 0
        assert out == "root=x1*x2\nexponent=2\n"

    def test_identity_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "root", "1")
        assert code == 1
        assert out == "" and "error" in err

    def test_centralizer(self, capsys):
        code, out, _ = invoke(capsys, "centralizer", "x1*x2*x1*x2")
        assert code == 0
        assert out == "generator=x1*x2\n"


class TestSubgroup:
    def test_member_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys,
            "subgroup",
            "x1*x2*x1^-1*x2^-1",
            "x3*x4*x3^-1*x4^-1",
            "--word",
            "x3*x4*x3^-1*x4^-1*x1*x2*x1^-1*x2^-1",
        )
        assert code == 0
        assert "member=true" in out
        assert "witness=y2*y1" in out

    def test_nonmember(self, capsys):
        code, out, _ = invoke(
            capsys, "subgroup", "x1*x2*x1^-1*x2^-1", "--word", "x1"
        )
        assert code == 0
        assert "member=false" in out
        assert "witness" not in out

    def test_graph_dump(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "subgroup", "x1^2", "--word", "x1^4", "--graph"
        )
        assert code == 0
        data = json.loads(out)
        assert data["member"] is True
        assert data["graph"] == ["0 1 1", "1 0 1"]

    def test_generators_obey_max_length(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "--max-length", "10", "subgroup", "x1^300000", "x2", "--word", "x2"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "300000 letters" in err and "limit 10" in err

    def test_folding_pair_witness(self, capsys):
        code, out, _ = invoke(capsys, "subgroup", "x1^13", "x1^21", "--word", "x1")
        assert code == 0
        assert out.startswith("member=true\nwitness=")
        witness = parse_word(out.splitlines()[1][len("witness="):].replace("y", "x"))
        assert substitute(witness, [power(word(1), 13), power(word(1), 21)]) == word(1)


class TestTower:
    def test_phi(self, capsys):
        code, out, _ = invoke(capsys, "tower", "phi", "x1", "--level", "0")
        assert code == 0
        assert out == "level=1\nword=x2*x3*x2^-1*x3^-1\n"

    def test_phi_wrong_level(self, capsys):
        code, _, err = invoke(capsys, "tower", "phi", "x1", "--level", "1")
        assert code == 1 and "error" in err

    def test_normalize(self, capsys):
        code, out, _ = invoke(
            capsys, "tower", "normalize", "x2*x3*x2^-1*x3^-1", "--level", "1"
        )
        assert code == 0
        assert out == "level=0\nword=x1\n"

    def test_root_theorem_mode(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "tower",
            "root",
            "x1",
            "--level",
            "0",
            "--prime",
            "2",
            "--max-level",
            "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "NO_ROOT_PROVEN"
        assert data["mode"] == "theorem"

    def test_root_cross_check_agrees(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "tower",
            "root",
            "x1",
            "--level",
            "0",
            "--prime",
            "3",
            "--max-level",
            "3",
            "--cross-check",
        )
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "NO_ROOT_PROVEN"
        assert data["checked_levels"] == [0, 1, 2, 3]

    def test_root_composite_prime_rejected(self, capsys):
        code, out, err = invoke(
            capsys, "tower", "root", "x1^4", "--level", "0", "--prime", "4", "--max-level", "2"
        )
        assert code == 1
        assert out == "" and "prime" in err

    def test_root_found(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "tower",
            "root",
            "x1^4",
            "--level",
            "0",
            "--prime",
            "2",
            "--max-level",
            "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "ROOT_FOUND"
        assert data["witness"] == "x1^2"

    def test_centralizer_check(self, capsys):
        code, out, _ = invoke(
            capsys, "tower", "centralizer-check", "x2*x3", "--level", "1"
        )
        assert code == 0
        assert "compatible=true" in out


class TestAbelianize:
    def test_triangle(self, capsys):
        code, out, _ = invoke(capsys, "abelianize", "--triangle", "3", "8", "2")
        assert code == 0
        assert out == "abelianization=Z/2\nfinite=false\n"

    def test_finite_triangle(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "abelianize", "--triangle", "2", "3", "5"
        )
        data = json.loads(out)
        assert code == 0
        assert data["finite"] is True

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "pres.txt"
        path.write_text("gens: 2\nx1\nx2\n")
        code, out, _ = invoke(capsys, "abelianize", str(path))
        assert code == 0
        assert "abelianization=0" in out
        assert "perfect=true" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "abelianize", str(tmp_path / "nope.txt"))
        assert code == 1 and "error" in err

    def test_bad_presentation(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x1*x2\n")
        code, _, err = invoke(capsys, "abelianize", str(path))
        assert code == 2 and "parse error" in err

    def test_no_input(self, capsys):
        code, _, err = invoke(capsys, "abelianize")
        assert code == 1


class TestAdjoin:
    def test_relation_report(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "adjoin",
            "--base-rank",
            "2",
            "--root-of",
            "x1",
            "--prime",
            "2",
            "--depth",
            "2",
        )
        data = json.loads(out)
        assert code == 0
        assert data["relation"] == "t^4 = x1"

    def test_normalize_expression(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "adjoin",
            "--base-rank",
            "2",
            "--root-of",
            "x1",
            "--prime",
            "2",
            "--depth",
            "1",
            "--normalize",
            "t^2 x1^-1",
        )
        data = json.loads(out)
        assert code == 0
        assert data["normal_form"] == "1"
        assert data["prufer_image"] == "0"

    def test_root_of_obeys_max_length(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "--max-length", "10", "adjoin", "--base-rank", "1",
            "--root-of", "x1^300000", "--prime", "2", "--depth", "1",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "300000 letters" in err and "limit 10" in err

    def test_normalize_obeys_max_length(self, capsys):
        adjoin = ("adjoin", "--base-rank", "1", "--root-of", "x1", "--prime", "2", "--depth", "1")
        start = time.perf_counter()
        for expression in ("t^4000000", "t^4000000000", "x1^300000", "t x1^5 t^20"):
            code, out, err = invoke(
                capsys, "--max-length", "10", *adjoin, "--normalize", expression
            )
            assert code == 1 and out == ""
            assert "letters" in err and "limit 10" in err
        assert time.perf_counter() - start < 1.0
        code, out, _ = invoke(capsys, "--max-length", "10", *adjoin, "--normalize", "t^2 x1^-1")
        assert code == 0 and "normal_form=1\nprufer_image=0\n" in out

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_rebase_is_reported(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "adjoin",
            "--base-rank",
            "1",
            "--root-of",
            "x1^2",
            "--prime",
            "3",
            "--depth",
            "1",
        )
        data = json.loads(out)
        assert code == 0
        assert data["root_of"] == "x1"
        assert data["rebased_from"] == "x1^2"


class TestWitness:
    def test_report(self, capsys):
        code, out, _ = invoke(
            capsys, "witness", "--level", "2", "--prime", "2", "--depth", "1"
        )
        assert code == 0
        data_code, json_out, _ = invoke(
            capsys,
            "--json",
            "witness",
            "--level",
            "2",
            "--prime",
            "2",
            "--depth",
            "1",
        )
        data = json.loads(json_out)
        assert data["quotient"] == "Z/2"
        assert data["rootless"] is True
        assert data["base_rank"] == 4

    def test_large_prime_power_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = invoke(
            capsys, "witness", "--level", "2", "--prime", "101", "--depth", "4"
        )
        assert code == 0
        assert time.perf_counter() - start < 1.0
        assert "quotient=Z/104060401" in out

    def test_max_length_guard(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "--max-length", "100", "witness", "--level", "5", "--prime", "2", "--depth", "1"
        )
        assert code == 1 and out == ""
        assert "4^5" in err and "limit 100" in err
        code, _, err = invoke(
            capsys, "--max-length", "100", "witness", "--level", "1000000000", "--prime", "2", "--depth", "1"
        )
        assert code == 1 and "limit 100" in err
        assert time.perf_counter() - start < 1.0
        code, out, _ = invoke(
            capsys, "--max-length", "100", "witness", "--level", "3", "--prime", "2", "--depth", "1"
        )
        assert code == 0 and "quotient=Z/2" in out


class TestPrufer:
    def test_sum(self, capsys):
        code, out, _ = invoke(capsys, "prufer", "--prime", "2", "1/4", "1/4")
        assert code == 0
        assert out == "sum=1/2\norder=2\n"

    def test_bad_element(self, capsys):
        code, _, err = invoke(capsys, "prufer", "--prime", "2", "1/3", "0")
        assert code == 1


class TestGlobalBehavior:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "reduce", "x0")
        assert code == 2 and "parse error" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_max_length_guard(self, capsys):
        code, _, err = invoke(capsys, "--max-length", "100", "reduce", "x1^200")
        assert code == 1 and "limit" in err

    def test_reproducible_output(self, capsys):
        args = ("subgroup", "x1*x2", "x2^2", "--word", "x1*x2^3", "--graph")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second and first[0] == 0

    def test_json_round_trip_everywhere(self, capsys):
        cases = [
            ("reduce", "x1*x2"),
            ("root", "x1^6"),
            ("centralizer", "x2^3"),
            ("subgroup", "x1", "--word", "x1^2"),
            ("tower", "phi", "x2", "--level", "1"),
            ("abelianize", "--triangle", "2", "3", "5"),
            ("prufer", "--prime", "3", "1/3", "2/9"),
        ]
        for case in cases:
            code, out, _ = invoke(capsys, "--json", *case)
            assert code == 0
            assert isinstance(json.loads(out), dict)
