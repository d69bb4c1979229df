"""Fact-file parsing, output formatting, and the command-line contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pargue
from conftest import format_af, frameworks
from pargue import ArgumentationFramework, BetaLabel, ParseError
from pargue.beta import (
    ALEATORY_LABELS,
    DEFAULT_ALEATORY_EDGES,
    DEFAULT_EPISTEMIC_EDGES,
    EPISTEMIC_LABELS,
)
from pargue.cli import emit_json, parse_af, parse_labels, run

FRAMEWORK_TEXT = """\
arg(a). arg(b).
arg(c).
arg(d).
att(a,c). att(b,c).
att(c,d).
"""

LABEL_TEXT = """\
beta(a,1,1). beta(b,17,2).
beta(c,4,15).
beta(d,5,1.5).
"""


@pytest.fixture
def fact_files(tmp_path):
    af_path = tmp_path / "af.apx"
    af_path.write_text(FRAMEWORK_TEXT)
    label_path = tmp_path / "labels.apx"
    label_path.write_text(LABEL_TEXT)
    return str(af_path), str(label_path)


class TestParseFramework:
    def test_worked_example(self, example_af):
        assert parse_af(FRAMEWORK_TEXT) == example_af

    def test_comments_and_blank_lines(self):
        text = "% header\narg(a).\n\narg(b). % trailing\natt(a,b).\n"
        af = parse_af(text)
        assert af.arguments == ("a", "b")
        assert af.attacks == frozenset({("a", "b")})

    def test_undeclared_attack_endpoint(self):
        with pytest.raises(ParseError, match="line 2: .*undeclared"):
            parse_af("arg(a).\natt(a,z).\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="line 1: missing '.'"):
            parse_af("arg(a)\n")

    def test_garbage_between_facts(self):
        with pytest.raises(ParseError, match="line 2: cannot parse"):
            parse_af("arg(a).\narg(b). nonsense arg(c).\n")
        with pytest.raises(ParseError) as info:
            parse_af("arg(a).\n???\n")
        assert info.value.line == 2

    def test_unknown_fact_kind(self):
        with pytest.raises(ParseError, match="cannot parse fact"):
            parse_af("argument(a).\n")

    def test_roundtrip_worked_example(self, example_af):
        assert parse_af(format_af(example_af)) == example_af

    @given(frameworks(max_args=5))
    def test_roundtrip_any_framework(self, af):
        assert parse_af(format_af(af)) == af


class TestParseLabels:
    def test_mixed_fact_kinds(self, example_af):
        text = "prob(a,0.3).\nbeta(b,17,2).\nfuzzy(c,likely,some_confidence).\nprob(d,1).\n"
        labels = parse_labels(text, example_af)
        assert labels["a"] == 0.3
        assert labels["b"] == BetaLabel(17.0, 2.0)
        assert labels["c"].alpha == pytest.approx(5.0, abs=1e-6)
        assert labels["d"] == 1.0

    def test_decimal_points_inside_facts(self, example_af):
        # the '.' inside beta(d,5,1.5) must not terminate the fact early
        labels = parse_labels(LABEL_TEXT, example_af)
        assert labels["d"] == BetaLabel(5.0, 1.5)
        assert len(labels) == 4

    def test_undeclared_argument(self, example_af):
        with pytest.raises(ParseError, match="undeclared argument 'z'"):
            parse_labels("prob(z,0.5).\n", example_af)

    def test_duplicate_label(self, example_af):
        with pytest.raises(ParseError, match="line 2: .*labeled twice"):
            parse_labels("prob(a,0.5).\nbeta(a,2,2).\n", example_af)

    def test_probability_out_of_range(self, example_af):
        with pytest.raises(ParseError, match="out of \\[0,1\\]"):
            parse_labels("prob(a,1.2).\n", example_af)

    def test_malformed_number(self, example_af):
        with pytest.raises(ParseError, match="not a number"):
            parse_labels("prob(a,high).\n", example_af)

    def test_invalid_beta_parameters(self, example_af):
        with pytest.raises(ParseError, match="line 1: beta parameters"):
            parse_labels("beta(a,0,2).\n", example_af)

    def test_unknown_fuzzy_word(self, example_af):
        with pytest.raises(ParseError, match="unknown likelihood word"):
            parse_labels("fuzzy(a,probable,no_confidence).\n", example_af)


class TestJsonOutput:
    def test_fixed_key_order_and_digits(self, fact_files, capsys):
        af_path, label_path = fact_files
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d", "--json"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == (
            '{"argument": "d", "semantics": "AD", "mode": "prob", '
            '"mean": 0.575325, "variance": 0.018428, '
            '"alpha": 7.05258, "beta": 5.20585, '
            '"aleatory_label": "somewhat_likely", "epistemic_label": "some_confidence", '
            '"circuit_nodes": 16, "model_count": 7}'
        )

    def test_degenerate_result_marks_infinity(self, fact_files, capsys):
        af_path, label_path = fact_files
        run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "c", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == 0.0
        assert payload["alpha"] == 1.0
        assert payload["beta"] == "inf"
        assert payload["epistemic_label"] == "total_confidence"

    def test_repeated_runs_are_identical(self, fact_files, capsys):
        af_path, label_path = fact_files
        argv = ["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "b", "--json"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first

    def test_constellation_mode(self, fact_files, capsys):
        af_path, label_path = fact_files
        run(
            [
                "query", "-f", af_path, "-l", label_path, "-s", "AD",
                "-a", "c", "--mode", "prob-c", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "prob-c"
        assert payload["mean"] == pytest.approx(0.0110803, abs=1e-6)
        assert payload["aleatory_label"] == "very_unlikely"


class TestTextOutput:
    def test_single_line(self, fact_files, capsys):
        af_path, label_path = fact_files
        run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"])
        out = capsys.readouterr().out
        assert out == (
            "prob(d, AD) mean=0.575325 variance=0.018428 "
            "Beta(7.05, 5.21) somewhat_likely/some_confidence\n"
        )

    def test_pretty_adds_diagnostics(self, fact_files, capsys):
        af_path, label_path = fact_files
        run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d", "--pretty"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].strip() == "circuit nodes: 16"
        assert lines[2].strip() == "model count:   7"


class TestExtensionsCommand:
    def test_worked_example_listing(self, fact_files, capsys):
        af_path, _ = fact_files
        assert run(["extensions", "-f", af_path, "-s", "AD"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["{}", "{a}", "{a,b}", "{a,b,d}", "{a,d}", "{b}", "{b,d}"]

    def test_grounded_is_unique(self, fact_files, capsys):
        af_path, _ = fact_files
        run(["extensions", "-f", af_path, "-s", "GR"])
        assert capsys.readouterr().out == "{a,b,d}\n"


class TestOracleCommand:
    def test_seeded_runs_repeat(self, fact_files, capsys):
        af_path, label_path = fact_files
        argv = [
            "oracle", "-f", af_path, "-l", label_path, "-s", "AD",
            "-a", "a", "--samples", "5000", "--seed", "3", "--json",
        ]
        assert run(argv) == 0
        first = json.loads(capsys.readouterr().out)
        run(argv)
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["samples"] == 5000 and first["seed"] == 3
        assert first["mean"] == pytest.approx(0.3947, abs=0.02)

    def test_text_line_mentions_settings(self, fact_files, capsys):
        af_path, label_path = fact_files
        run(
            [
                "oracle", "-f", af_path, "-l", label_path, "-s", "AD",
                "-a", "a", "--samples", "1000", "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert out.startswith("mc(a, AD, prob) mean=")
        assert "samples=1000 seed=5" in out


class TestCompileCommand:
    def test_writes_circuit_file(self, fact_files, tmp_path, capsys):
        af_path, _ = fact_files
        out_path = tmp_path / "theory.nnf"
        assert run(["compile", "-f", af_path, "-s", "AD", "-o", str(out_path)]) == 0
        message = capsys.readouterr().out
        assert message == f"wrote {out_path}: 16 nodes, 19 edges, 4 vars, 7 models\n"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "nnf 16 19 4"
        assert lines[1] == "c var 1 a"


class TestCheckCommand:
    def test_worked_example_passes(self, fact_files, capsys):
        af_path, _ = fact_files
        assert run(["check", "-f", af_path, "-s", "AD"]) == 0
        out = capsys.readouterr().out
        assert "ok: circuit decomposable" in out
        assert "ok: circuit deterministic" in out
        assert "ok: circuit smooth" in out
        assert "ok: circuit models match extensions (7)" in out
        assert "ok: model count 7" in out
        assert "ok: prob matches brute force on 4 arguments" in out
        assert "fail" not in out

    @pytest.mark.parametrize("semantics", ["CF", "AD", "CO", "GR", "ST", "PR"])
    def test_every_semantics_passes(self, fact_files, capsys, semantics):
        af_path, _ = fact_files
        assert run(["check", "-f", af_path, "-s", semantics]) == 0
        assert "fail" not in capsys.readouterr().out


class TestExitCodes:
    def test_missing_file(self, capsys):
        code = run(["extensions", "-f", "/nonexistent/af.apx", "-s", "AD"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_parse_error_carries_line(self, tmp_path, capsys):
        path = tmp_path / "bad.apx"
        path.write_text("arg(a).\natt(a,z).\n")
        assert run(["extensions", "-f", str(path), "-s", "AD"]) == 1
        assert "error: line 2:" in capsys.readouterr().err

    def test_bad_flag_value(self, fact_files, capsys):
        af_path, _ = fact_files
        assert run(["extensions", "-f", af_path, "-s", "XX"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_query_argument(self, fact_files, capsys):
        af_path, label_path = fact_files
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "z"])
        assert code == 1

    def test_incomplete_labels(self, fact_files, tmp_path, capsys):
        af_path, _ = fact_files
        partial = tmp_path / "partial.apx"
        partial.write_text("prob(a,0.5).\n")
        code = run(["query", "-f", af_path, "-l", str(partial), "-s", "AD", "-a", "a"])
        assert code == 1
        assert "unlabeled arguments" in capsys.readouterr().err

    def test_negative_oracle_seed(self, fact_files, capsys):
        af_path, label_path = fact_files
        argv = ["oracle", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "a"]
        assert run(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")

    @pytest.mark.parametrize("which", ["-f", "-l", "--cov", "PARGUE_LABEL_CONFIG"])
    def test_file_not_utf8(self, fact_files, tmp_path, capsys, monkeypatch, which):
        af_path, label_path = fact_files
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"% caf\xe9\narg(a).\n")
        files = {"-f": af_path, "-l": label_path}
        if which == "PARGUE_LABEL_CONFIG":
            monkeypatch.setenv(which, str(bad))
        else:
            files[which] = str(bad)
        argv = ["query", "-s", "AD", "-a", "a"]
        for flag, path in files.items():
            argv += [flag, path]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "utf-8" in err

    def test_overflowing_beta_label(self, tmp_path, capsys):
        # alpha + beta overflows, which used to answer mean=0.0 for a mean of 0.5
        af_path = tmp_path / "af.apx"
        af_path.write_text("arg(a).\n")
        label_path = tmp_path / "labels.apx"
        label_path.write_text("beta(a,1e308,1e308).\n")
        assert run(["query", "-f", str(af_path), "-l", str(label_path), "-s", "AD", "-a", "a"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    def test_subnormal_answer_variance_is_a_point_mass(self, tmp_path, capsys):
        # The answer's variance is about 3e-310, so its moment-matched
        # strength overflows; the label is rendered as a point mass.
        af_path = tmp_path / "af.apx"
        af_path.write_text("arg(a). arg(b). att(b,a).\n")
        label_path = tmp_path / "labels.apx"
        label_path.write_text("beta(a,2e307,1e308). prob(b,0.5).\n")
        assert run(["query", "-f", str(af_path), "-l", str(label_path), "-s", "CF", "-a", "a"]) == 0
        assert "Beta(inf, inf)" in capsys.readouterr().out

    def test_huge_beta_parameters_print_short(self, tmp_path, capsys):
        # Fixed-point rendering printed every digit of 2e307, about 700 characters.
        af_path = tmp_path / "af.apx"
        af_path.write_text("arg(a).\n")
        label_path = tmp_path / "labels.apx"
        label_path.write_text("beta(a,2e307,1e308).\n")
        assert run(["query", "-f", str(af_path), "-l", str(label_path), "-s", "AD", "-a", "a"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert len(line) < 120
        assert "Beta(2e+307, 1e+308)" in line

    def test_capacity_refusal(self, tmp_path, capsys):
        path = tmp_path / "big.apx"
        path.write_text("".join(f"arg(n{i}).\n" for i in range(26)))
        assert run(["extensions", "-f", str(path), "-s", "AD"]) == 2
        assert capsys.readouterr().err.startswith("capacity:")

    def test_grounded_past_the_recursion_limit_is_a_capacity_refusal(
        self, tmp_path, capsys, monkeypatch
    ):
        # GR meets no enumeration cap; the compile cap refuses a chain longer
        # than the recursion limit before its fixed point runs or its theory
        # is encoded. n_i attacks n_{i+1}, so the last argument's cone is the
        # whole chain, and the first argument's is itself.
        calls = []
        engine, encode = pargue.engine, sys.modules["pargue.encode"]
        n = max(1200, sys.getrecursionlimit() + 100)
        names = [f"n{i}" for i in range(n)]
        af_path, label_path = tmp_path / "chain.apx", tmp_path / "chain_labels.apx"
        af_path.write_text(format_af(ArgumentationFramework(names, list(zip(names, names[1:])))))
        label_path.write_text("".join(f"prob({name},0.5).\n" for name in names))

        def argv(argument, mode):
            return ["query", "-f", str(af_path), "-l", str(label_path), "-s", "GR",
                    "-a", argument, "--mode", mode]

        assert run(argv("n0", "prob-c")) == 0
        assert capsys.readouterr().out.startswith("prob_c(n0, GR) mean=0.5 ")
        for module, name in ((engine, "encode"), (engine, "encode_constellation"),
                             (encode, "extensions"), (encode, "_extension_masks")):
            monkeypatch.setattr(module, name, lambda *args, _name=name: calls.append(_name))
        for argument, mode in (("n0", "prob"), (names[-1], "prob-c")):
            assert run(argv(argument, mode)) == 2
            assert capsys.readouterr().err == (
                f"capacity: compilation supports at most 25 variables, got {n}\n"
            )
        assert calls == []


class TestCovarianceFlag:
    def test_covariance_widens_variance(self, fact_files, tmp_path, capsys):
        af_path, label_path = fact_files
        argv = ["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d", "--json"]
        run(argv)
        base = json.loads(capsys.readouterr().out)["variance"]
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("id,a,b\na,0,0.003\nb,0.003,0\n")
        run(argv + ["--cov", str(cov_path)])
        wide = json.loads(capsys.readouterr().out)["variance"]
        # both gradients are positive, so positive covariance adds variance
        assert wide > base

    def test_warnings_are_one_line_each(self, fact_files, tmp_path):
        # A diagonal cell is ignored and 0.05 exceeds the Cauchy-Schwarz
        # bound of a and b; each warning is one line, with no source path.
        af_path, label_path = fact_files
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("id,a,b\na,0.1,0.05\nb,0.05,0\n")
        src = str(Path(pargue.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        argv = ["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"]
        done = subprocess.run(
            [sys.executable, "-m", "pargue", *argv, "--cov", str(cov_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0 and done.stdout.startswith("prob(d, AD)")
        lines = done.stderr.splitlines()
        assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
        assert "diagonal entries are ignored" in lines[0]
        assert "Cauchy-Schwarz" in lines[1]
        assert ".py:" not in done.stderr

    def test_oversized_cell_rejected(self, fact_files, tmp_path, capsys):
        af_path, label_path = fact_files
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("id,a\na," + "1" * 200_000 + "\n")
        argv = ["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"]
        assert run(argv + ["--cov", str(cov_path)]) == 1
        assert capsys.readouterr().err.startswith("error: covariance matrix is not valid CSV")

    def test_non_finite_covariance_rejected(self, tmp_path, capsys):
        af_path = tmp_path / "af.apx"
        af_path.write_text("arg(a). arg(b). att(a,b).\n")
        label_path = tmp_path / "labels.apx"
        label_path.write_text("beta(a,2,3). beta(b,4,1).\n")
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text("id,a,b\na,0,inf\nb,inf,0\n")
        argv = ["query", "-f", str(af_path), "-l", str(label_path), "-s", "AD", "-a", "a"]
        assert run(argv + ["--cov", str(cov_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""


class TestLabelConfigOverride:
    @pytest.mark.parametrize(
        "text",
        [
            '{"epistemic_edges": [0, 0.001, 0.0119, 0.049, 0.066, 1' + "0" * 400 + "]}",
            '{"epistemic_edges": [' + "9" * 5000 + "]}",
            "[" * 100_000,
        ],
        ids=["int-past-float", "int-past-digit-limit", "deep-nesting"],
    )
    def test_unreadable_config_is_an_input_error(
        self, fact_files, tmp_path, capsys, monkeypatch, text
    ):
        af_path, label_path = fact_files
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        monkeypatch.setenv("PARGUE_LABEL_CONFIG", str(config_path))
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_environment_config_changes_words(self, fact_files, tmp_path, capsys, monkeypatch):
        af_path, label_path = fact_files
        argv = ["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d", "--json"]
        run(argv)
        assert json.loads(capsys.readouterr().out)["epistemic_label"] == "some_confidence"
        config_path = tmp_path / "labels.json"
        config_path.write_text(
            json.dumps({"epistemic_edges": [0.0, 0.001, 0.005, 0.01, 0.02, 0.25]})
        )
        monkeypatch.setenv("PARGUE_LABEL_CONFIG", str(config_path))
        run(argv)
        assert json.loads(capsys.readouterr().out)["epistemic_label"] == "low_confidence"

    def test_broken_config_is_an_input_error(self, fact_files, tmp_path, capsys, monkeypatch):
        af_path, label_path = fact_files
        config_path = tmp_path / "broken.json"
        config_path.write_text("{")
        monkeypatch.setenv("PARGUE_LABEL_CONFIG", str(config_path))
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_representative(self, fact_files, tmp_path, capsys, monkeypatch):
        af_path, label_path = fact_files
        config_path = tmp_path / "words.json"
        config_path.write_text(
            json.dumps({"representatives": {"likely/some_confidence": ["x", 0.01]}})
        )
        monkeypatch.setenv("PARGUE_LABEL_CONFIG", str(config_path))
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: representative moments")

    def test_non_finite_edge_is_an_input_error(self, fact_files, tmp_path, capsys, monkeypatch):
        # NaN passes every ordering check, so it must be rejected as a number.
        af_path, label_path = fact_files
        config_path = tmp_path / "nan.json"
        config_path.write_text('{"epistemic_edges": [0.0, 0.001, 0.0119, NaN, 0.066, 0.25]}')
        monkeypatch.setenv("PARGUE_LABEL_CONFIG", str(config_path))
        code = run(["query", "-f", af_path, "-l", label_path, "-s", "AD", "-a", "d"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""


# Inputs for the fuzz test. Half the cases are well-formed throughout; in the
# others each value may stray out of range or go missing. At most one input
# also gets free text spliced in.
_JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
)
_TOKENS = st.one_of(_NUMBERS.map(str), st.sampled_from(["x", "1e400", "5e-324", "-0"]))
_RARELY = st.integers(0, 9).map(lambda k: k == 0)


@st.composite
def _stray(draw, strays, valid, wild):
    return draw(wild) if strays and draw(_RARELY) else draw(valid)


@st.composite
def _label_text(draw, af, strays):
    def value(low, high):
        return draw(_stray(strays, st.floats(low, high).map(repr), _TOKENS))

    lines = []
    for name in af.arguments:
        kind = draw(_stray(strays, st.sampled_from(["prob", "beta", "fuzzy"]), st.just(None)))
        if kind == "prob":
            lines.append(f"prob({name},{value(0.0, 1.0)}).")
        elif kind == "beta":
            lines.append(f"beta({name},{value(0.01, 50.0)},{value(0.01, 50.0)}).")
        elif kind == "fuzzy":
            aleatory = draw(_stray(strays, st.sampled_from(ALEATORY_LABELS), st.just("probable")))
            epistemic = draw(st.sampled_from(EPISTEMIC_LABELS))
            lines.append(f"fuzzy({name},{aleatory},{epistemic}).")
    return "\n".join(lines) + "\n"


@st.composite
def _covariance_text(draw, af, strays):
    names = st.sampled_from(af.arguments)
    ids = draw(st.lists(_stray(strays, names, st.just("z")), min_size=1, max_size=3, unique=True))
    cells = {}
    for i, first in enumerate(ids):
        for second in ids[i:]:
            cells[first, second] = cells[second, first] = draw(
                _stray(strays, st.floats(-0.01, 0.01).map(repr), _TOKENS)
            )
    rows = [",".join(["id", *ids])]
    rows += [",".join([first, *(cells[first, second] for second in ids)]) for first in ids]
    return "\n".join(rows) + "\n"


@st.composite
def _config_text(draw, strays):
    config = {}
    for key, default in (
        ("aleatory_edges", DEFAULT_ALEATORY_EDGES),
        ("epistemic_edges", DEFAULT_EPISTEMIC_EDGES),
    ):
        if draw(st.booleans()):
            config[key] = draw(_stray(strays, st.just(default), st.lists(_NUMBERS, max_size=11)))
    if draw(st.booleans()):
        key = f"{draw(st.sampled_from(ALEATORY_LABELS))}/{draw(st.sampled_from(EPISTEMIC_LABELS))}"
        pair = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.05)).map(list)
        wild = st.lists(_NUMBERS, max_size=3)
        config["representatives"] = {key: draw(_stray(strays, pair, wild))}
    return json.dumps(config)


@st.composite
def cli_inputs(draw):
    """Files (name -> text), argv with ``{dir}`` placeholders, and whether a config is set."""
    af = draw(frameworks(max_args=5))
    strays = draw(st.booleans())
    files = {
        "af.apx": format_af(af),
        "labels.apx": draw(_label_text(af, strays)),
        "cov.csv": draw(_covariance_text(af, strays)),
        "config.json": draw(_config_text(strays)),
    }
    spoiled = draw(st.sampled_from([None, None, None, *files]))
    if spoiled is not None:
        text = files[spoiled]
        at = draw(st.integers(0, len(text)))
        files[spoiled] = text[:at] + draw(_JUNK) + text[at:]

    command = draw(st.sampled_from(["extensions", "query", "oracle", "compile", "check"]))
    names = st.sampled_from(["CF", "AD", "CO", "GR", "ST", "PR"])
    semantics = draw(_stray(strays, names, st.just("XX")))
    argv = [command, "-f", "{dir}/af.apx", "-s", semantics]
    if command in ("query", "oracle"):
        argument = draw(_stray(strays, st.sampled_from(af.arguments), st.just("z")))
        argv += ["-l", "{dir}/labels.apx", "-a", argument]
        argv += ["--mode", draw(st.sampled_from(["prob", "prob-c"]))]
        if draw(st.booleans()):
            argv.append("--json")
    if command == "query":
        if draw(st.booleans()):
            argv += ["--cov", "{dir}/cov.csv"]
        if draw(st.booleans()):
            argv.append("--pretty")
    if command == "oracle":
        argv += ["--samples", str(draw(_stray(strays, st.integers(1, 100), st.integers(-1, 0))))]
        argv += ["--seed", str(draw(_stray(strays, st.integers(0, 2**70), st.just(-1))))]
    if command == "compile":
        argv += ["-o", "{dir}/out.nnf"]
    if strays and draw(_RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-a", "x"])))
    return files, argv, draw(st.booleans())


class TestFuzz:
    @given(cli_inputs())
    def test_exit_code_contract(self, case):
        files, argv, use_config = case
        with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as mp:
            for name, text in files.items():
                with open(os.path.join(folder, name), "w", encoding="utf-8") as handle:
                    handle.write(text)
            if use_config:
                mp.setenv("PARGUE_LABEL_CONFIG", os.path.join(folder, "config.json"))
            else:
                mp.delenv("PARGUE_LABEL_CONFIG", raising=False)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([arg.replace("{dir}", folder) for arg in argv])
        assert code in (0, 1, 2)
        if code:
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("error:" if code == 1 else "capacity:")
