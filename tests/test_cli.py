"""Command-line interface: output formats, exit codes, reproducibility."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loctower
from loctower.adjunction import (
    AdjunctionGroup,
    amalgam_normalize,
    parse_prufer,
    prufer_quotient_map,
)
from loctower.cli import run
from loctower.words import format_word, parse_word, power, substitute, word

from conftest import oracle_amalgam_expression, oracle_prufer_text, words_strategy

SRC = Path(loctower.__file__).resolve().parent.parent


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

    def test_non_ascii_digits_are_parse_errors(self, capsys):
        for text, column in (("x²", 2), ("x1^²", 4), ("x١", 2)):
            code, out, err = invoke(capsys, "reduce", text)
            assert (code, out) == (2, "")
            assert err == f"parse error: column {column}: " + (
                "expected an integer\n" if column == 4 else "expected generator index after 'x'\n"
            )

    def test_power_beyond_an_index_is_refused(self, capsys):
        power = "x1^999999999999999999999999999999"
        code, out, err = invoke(capsys, "--max-length", "10", "reduce", power)
        assert (code, out) == (1, "")
        assert err == "error: column 1: power of 999999999999999999999999999999 letters (limit 10)\n"
        # a budget beyond any index leaves the refusal to sys.maxsize
        code, out, err = invoke(capsys, "--max-length", "9" * 40, "reduce", power)
        assert (code, out) == (1, "")
        assert err.startswith("error: column 1: power of 999999999999999999999999999999 letters")
        assert "sys.maxsize" in err


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

    def test_identity_drops_to_level_zero_at_once(self, capsys):
        deep = "3000000"
        for argv, expected in (
            (("normalize", "1", "--level", deep), "level=0\n"),
            (("root", "1", "--level", deep, "--prime", "2", "--max-level", deep), "base_level=0\n"),
        ):
            start = time.perf_counter()
            code, out, _ = invoke(capsys, "tower", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 0 and expected in out

    def test_deep_level_is_refused_without_building_it(self, capsys):
        deep = ("--level", "1000000000")
        for argv in (
            ("phi", "x1", *deep),
            ("normalize", "x1", *deep),
            ("root", "x1", *deep, "--prime", "2", "--max-level", "1000000000"),
            ("centralizer-check", "x1", *deep),
        ):
            start = time.perf_counter()
            code, out, err = invoke(capsys, "tower", *argv)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert "x1" in err and "level-0" in err and len(err) < 200

    def test_cross_check_levels_obey_max_length(self, capsys):
        root = ("tower", "root", "1", "--level", "0", "--prime", "2", "--cross-check")
        start = time.perf_counter()
        code, out, err = invoke(capsys, *root, "--max-level", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "limit 1000000" in err
        code, out, _ = invoke(capsys, *root, "--max-level", "9")
        assert code == 0 and "checked_levels=0,1,2,3,4,5,6,7,8,9\n" in out


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

    def test_length_refusal_exits_one_with_its_line(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        for relator in ("x1^3000001", "x1^99999999999999999999"):
            path.write_text(f"gens: 1\n{relator}\n")
            code, out, err = invoke(capsys, "abelianize", str(path))
            assert (code, out) == (1, "")
            assert err.startswith("error: line 2: ") and "letters" in err

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

    def test_rebase_is_reported(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(
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
        assert err == "" and caught == []
        assert data["root_of"] == "x1"
        assert data["rebased_from"] == "x1^2"

    def test_depth_is_bounded(self, capsys):
        start = time.perf_counter()
        for depth in ("20000", str(10**9)):
            code, out, err = invoke(
                capsys, "adjoin", "--base-rank", "1", "--root-of", "x1",
                "--prime", "2", "--depth", depth,
            )
            assert code == 1 and out == ""
            assert "MAX_RELATION_BITS" in err
        assert time.perf_counter() - start < 1.0

    NORMALIZE = ("adjoin", "--base-rank", "2", "--root-of", "x1", "--prime", "3", "--depth", "1",
                 "--normalize")

    def test_normalize_takes_grouped_words(self, capsys):
        code, out, err = invoke(capsys, *self.NORMALIZE, "(x1*x2)^2 t (x2 x1^-1)^-1")
        assert (code, err) == (0, "")
        assert "normal_form=x1*x2*x1*x2*t*x1*x2^-1\n" in out

    @pytest.mark.parametrize(
        "expression,message",
        [
            ("x1*x2^", "parse error: column 7: expected an integer"),
            ("t x2 t^ x1", "parse error: column 8: expected an integer"),
            ("t^2 x1\tt^+1", "parse error: column 10: expected an integer"),
            ("x2 t^2 (x1 x2", "parse error: column 14: expected ')'"),
            ("x2 t (x1 t)^2", "parse error: column 10: unexpected character 't'"),
            ("t\nx2^300000", "error: column 3: power of 300000 letters (limit 10)"),
            ("x2*t*x1^6 x2^5", "error: column 11: word of 11 letters (limit 10)"),
        ],
    )
    def test_normalize_columns_count_in_the_whole_expression(self, capsys, expression, message):
        code, out, err = invoke(capsys, "--max-length", "10", *self.NORMALIZE, expression)
        assert (code, out, err) == (2 if "parse" in message else 1, "", message + "\n")

    @settings(max_examples=100)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["t", "t^2", "t^-1", "t^-04"]),
                words_strategy(2, 6).map(format_word),
            ),
            max_size=6,
        ),
        st.lists(st.sampled_from([" ", "*", " * ", "\t", "\n "]), min_size=7, max_size=7),
    )
    def test_normalize_splits_as_the_factor_syntax_did(self, factors, separators):
        """An expression of blank- or '*'-separated factors, the only kind
        the first syntax took, normalizes to the same element when the text
        between two t-powers is read as one word."""
        text = "".join(sep + factor for sep, factor in zip(separators, factors))
        group = AdjunctionGroup(2, word(1), 3, 1)
        element = amalgam_normalize(group, oracle_amalgam_expression(text))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["--json", *self.NORMALIZE, text]) == 0
        data = json.loads(out.getvalue())
        assert data["normal_form"] == str(element)
        assert data["prufer_image"] == str(prufer_quotient_map(group, element))


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

    def test_negative_level_is_refused(self, capsys):
        code, out, err = invoke(capsys, "witness", "--level", "-1", "--prime", "2", "--depth", "1")
        assert (code, out, err) == (1, "", "error: target level -1 is below current level 0\n")

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
        # level 0 obeys the budget too: x1 is one letter
        code, out, err = invoke(
            capsys, "--max-length", "0", "witness", "--level", "0", "--prime", "2", "--depth", "1"
        )
        assert (code, out) == (1, "")
        assert err == "error: promotion from level 0 to 0 would give 4^0*1 letters (limit 0)\n"
        code, out, _ = invoke(
            capsys, "--max-length", "1", "witness", "--level", "0", "--prime", "2", "--depth", "1"
        )
        assert code == 0 and "distinguished=x1\n" in out

    def test_depth_is_bounded(self, capsys):
        start = time.perf_counter()
        for depth in ("20000", str(10**9)):
            code, out, err = invoke(
                capsys, "witness", "--level", "1", "--prime", "2", "--depth", depth
            )
            assert code == 1 and out == ""
            assert "MAX_RELATION_BITS" in err
        assert time.perf_counter() - start < 1.0


class TestPrufer:
    def test_sum(self, capsys):
        code, out, _ = invoke(capsys, "prufer", "--prime", "2", "1/4", "1/4")
        assert code == 0
        assert out == "sum=1/2\norder=2\n"
        assert invoke(capsys, "prufer", "--prime", "2", "1/2", "1/2") == (0, "sum=0\norder=1\n", "")
        code, out, _ = invoke(capsys, "--json", "prufer", "--prime", "3", "1/3", "2/9")
        assert code == 0 and out == '{"order": 9, "sum": "5/9"}\n'

    def test_negative_operands_need_no_separator(self, capsys):
        expected = (0, "sum=23/27\norder=27\n", "")
        assert invoke(capsys, "prufer", "--prime", "3", "-1/3", "5/27") == expected
        assert invoke(capsys, "prufer", "--prime", "3", "--", "-1/3", "5/27") == expected
        assert invoke(capsys, "prufer", "--prime", "3", "5/27", "-1/3") == expected
        assert invoke(capsys, "prufer", "--prime", "3", "-1/3", "-5/27")[1] == "sum=13/27\norder=27\n"

    def test_bad_element(self, capsys):
        for operand in ("1/3", "1/0", "1/-4"):  # domain refusals, not parse errors
            code, out, err = invoke(capsys, "prufer", "--prime", "2", operand, "0")
            assert (code, out, err) == (1, "", "error: denominator must be a power of 2\n")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 101]), st.data())
    def test_matches_canonicalization_oracle(self, p, data):
        terms = []
        for _ in range(2):
            k = data.draw(st.integers(0, 6))
            multiple = st.integers(-3, 3).map(lambda m: m * p**k)
            terms.append((data.draw(st.one_of(st.integers(-10**4, 10**4), multiple)), k))
        for a, k in terms:
            x = parse_prufer(p, f"{a}/{p**k}")
            assert str(x) == oracle_prufer_text(p, a, k)
            assert parse_prufer(p, str(x)) == x
        (a, k), (b, j) = terms
        top = max(k, j)
        expected = oracle_prufer_text(p, a * p ** (top - k) + b * p ** (top - j), top)
        order = 1 if expected == "0" else int(expected.split("/")[1])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # "--" lets argparse read a negative operand as a positional
            code = run(["prufer", "--prime", str(p), "--", f"{a}/{p**k}", f"{b}/{p**j}"])
        assert code == 0 and out.getvalue() == f"sum={expected}\norder={order}\n"


class TestIntegerText:
    """Every entry point reads integers as ASCII digits with an optional
    '-', at most MAX_INTEGER_DIGITS of them; anything else, such as '٣',
    '+3' or '3_000', which int() accepts, is a parse error."""

    ADJOIN = ("adjoin", "--base-rank", "1", "--root-of", "x1", "--prime", "3", "--depth", "1")

    def refused(self, capsys, *argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: ") and "int()" not in err, argv
        return err

    @pytest.mark.parametrize(
        "exponent,message",
        [
            ("٣", "column 3: expected an integer"),
            ("+3", "column 3: expected an integer"),
            ("3_000", "column 4: unexpected character '_'"),
            ("", "column 3: expected an integer"),
            ("-", "column 4: expected an integer"),
        ],
    )
    def test_t_powers(self, capsys, exponent, message):
        err = self.refused(capsys, *self.ADJOIN, "--normalize", f"t^{exponent}")
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "operand,message",
        [
            ("٣/9", "column 1: expected an integer"),
            ("1_0/9", "column 2: unexpected character '_'"),
            ("+1/9", "column 1: expected an integer"),
            ("a/4", "column 1: expected an integer"),
            ("1/+9", "column 3: expected an integer"),
            ("x", "column 1: expected 'a/m' or '0'"),
        ],
    )
    def test_prufer_operands(self, capsys, operand, message):
        for argv in ((operand, "0"), ("0", operand)):
            err = self.refused(capsys, "prufer", "--prime", "3", *argv)
            assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("count", ["٣", "+3", "3_000", "3.0"])
    def test_generator_count(self, capsys, tmp_path, count):
        path = tmp_path / "pres.txt"
        path.write_text(f"gens: {count}\nx1*x2^-1\n", encoding="utf-8")
        err = self.refused(capsys, "abelianize", str(path))
        assert err.startswith("parse error: line 1: invalid generator count: column ")

    def test_overlong_integers_are_refused_without_echo(self, capsys):
        digits = "1" * 5000
        start = time.perf_counter()
        for argv in (
            (*self.ADJOIN, "--normalize", f"t^{digits}"),
            (*self.ADJOIN, "--normalize", f"t^-{digits}"),
            ("prufer", "--prime", "3", f"{digits}/9", "0"),
            ("prufer", "--prime", "3", "1/9", f"-{digits}/9"),
            ("prufer", "--prime", "3", f"1/{digits}", "0"),
        ):
            err = self.refused(capsys, *argv)
            assert "exceeds the limit of 4000 digits (MAX_INTEGER_DIGITS)" in err
            assert digits[:100] not in err
        assert time.perf_counter() - start < 1.0

    def test_valid_integers_read_as_before(self, capsys):
        assert invoke(capsys, "prufer", "--prime", "3", "-0/9", "007/27")[:2] == (0, "sum=7/27\norder=27\n")
        # surrounding blanks are stripped, as before
        assert invoke(capsys, "prufer", "--prime", "3", " 1/9 ", "0")[:2] == (0, "sum=1/9\norder=9\n")
        code, out, _ = invoke(capsys, *self.ADJOIN, "--normalize", "t^-03 x1")
        assert code == 0 and "normal_form=1\n" in out


class TestGlobalBehavior:
    @pytest.mark.parametrize("p", ["0", "1", "-3", "4"])
    def test_every_prime_option_refuses_non_primes(self, p):
        commands = [
            ("prufer", "--prime", p, "1/4", "0"),
            ("adjoin", "--base-rank", "1", "--root-of", "x1", "--prime", p, "--depth", "1"),
            ("witness", "--level", "1", "--prime", p, "--depth", "1"),
            ("tower", "root", "x1", "--level", "0", "--prime", p, "--max-level", "2"),
            ("tower", "root", "x1", "--level", "0", "--prime", p, "--max-level", "2", "--cross-check"),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for command in commands:
            # a subprocess with a timeout, so a hang fails instead of blocking
            done = subprocess.run(
                [sys.executable, "-m", "loctower.cli", *command],
                env=env, capture_output=True, text=True, timeout=10,
            )
            assert done.returncode == 1 and done.stdout == "", command
            assert "prime" in done.stderr and "Traceback" not in done.stderr, command

    def test_parse_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "reduce", "x0")
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("template", ["x{}", "x1^{}", "x2*x1^-{}"])
    def test_overlong_integers_exit_two(self, capsys, template):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "reduce", template.format("1" * 5000))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "parse error" in err and "column" in err and "MAX_INTEGER_DIGITS" in err

    def test_deeply_nested_groups_parse(self, capsys):
        depth = 500
        text = "(" * depth + "x1" + ")" * depth
        assert invoke(capsys, "reduce", text) == (0, "word=x1\nlength=1\n", "")

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


# Runs one command line in a fresh interpreter and reports, as the last
# line of stderr, its exit code, its seconds and its tracemalloc peak.
PROBE = """
import sys, time, tracemalloc
from loctower.cli import run
tracemalloc.start()
start = time.perf_counter()
try:
    code = run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""
# a 300,000-letter tuple alone takes 2.4 MB
PEAK_BYTES = 1_000_000
BIG = "x2^300000"
ADJOIN_X1 = ("adjoin", "--base-rank", "1", "--root-of", "x1", "--prime", "2", "--depth", "1")
ADVERSARIAL = [
    ("reduce", "x1^100000000"),
    ("reduce", "(x1*x2)^-50000000"),
    ("reduce", "x1^1000000000000"),
    ("reduce", "x1^20*x1^-20"),
    ("reduce", "x1^999999999999999999999999999999"),
    ("reduce", "x1^" + "9" * 5000),
    ("root", BIG),
    ("centralizer", BIG),
    ("subgroup", BIG, "x1", "--word", "x1"),
    ("subgroup", "x1", "--word", BIG),
    ("tower", "phi", "x2^3000000", "--level", "1"),
    ("tower", "normalize", BIG, "--level", "1"),
    ("tower", "root", BIG, "--level", "1", "--prime", "2", "--max-level", "1"),
    ("tower", "root", "x2", "--level", "1", "--prime", "2", "--max-level", "1000000000", "--cross-check"),
    ("tower", "centralizer-check", BIG, "--level", "1"),
    ("tower", "centralizer-check", "x2^10", "--level", "1"),
    ("adjoin", "--base-rank", "2", "--root-of", BIG, "--prime", "2", "--depth", "1"),
    (*ADJOIN_X1, "--normalize", f"t {BIG}"),
    (*ADJOIN_X1, "--normalize", "t^1000000000000"),
    ("witness", "--level", "1000000000", "--prime", "2", "--depth", "1"),
    ("prufer", "--prime", "3", "1" * 5000 + "/9", "0"),
    ("abelianize", "{file}"),
    ("abelianize", "--triangle", "2", "3", "1000000"),
    # integer options read as integer text is everywhere
    ("--max-length", "1_000", "reduce", "x1^3"),
    ("witness", "--level", "٠", "--prime", "2", "--depth", "1"),
    ("witness", "--level", "0", "--prime", "2", "--depth", "+1"),
    ("tower", "root", "x1", "--level", "0", "--prime", " 2", "--max-level", "2"),
    ("tower", "root", "x1", "--level", "0", "--prime", "2", "--max-level", "0x2"),
    ("adjoin", "--base-rank", "1.0", "--root-of", "x1", "--prime", "2", "--depth", "1"),
    ("abelianize", "--triangle", "3", "8", "2_0"),
]


class TestAdversarialInput:
    """Every subcommand and the file path, fed oversized words or malformed
    integers under --max-length 10, exits 1 or 2 without a traceback, in
    under 1 s and under PEAK_BYTES of traced memory: each refusal comes
    before the word is built."""

    @pytest.mark.parametrize("argv", ADVERSARIAL, ids=lambda argv: " ".join(a[:24] for a in argv))
    def test_refused_fast_and_small(self, argv, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("gens: 2\nx1^3000001\n")
        argv = [str(path) if a == "{file}" else a for a in argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # a subprocess with a timeout, so a hang fails instead of blocking
        done = subprocess.run(
            [sys.executable, "-c", PROBE, "--max-length", "10", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )
        *_, last = done.stderr.splitlines()
        code, seconds, peak = last.split()
        assert int(code) in (1, 2) and done.stdout == ""
        assert "Traceback" not in done.stderr
        assert float(seconds) < 1.0
        assert int(peak) < PEAK_BYTES

    @pytest.mark.parametrize(
        "option,argv",
        [
            ("--max-length", ("--max-length", "1_000", "reduce", "x1^3")),
            ("--level", ("witness", "--level", "٣", "--prime", "2", "--depth", "1")),
            ("--prime", ("prufer", "--prime", "+3", "1/3", "0")),
            ("--depth", ("witness", "--level", "3", "--prime", "2", "--depth", "+1")),
            ("--max-level", ("tower", "root", "x1", "--level", "0", "--prime", "2", "--max-level", " 2")),
            ("--base-rank", ADJOIN_X1[:2] + ("٢",) + ADJOIN_X1[3:]),
            ("--triangle", ("abelianize", "--triangle", "3", "8", "2.0")),
        ],
    )
    def test_integer_options_name_the_option(self, capsys, option, argv):
        with pytest.raises(SystemExit) as info:
            run(list(argv))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}" in err and ": column " in err
