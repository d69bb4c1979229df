"""Fact-file parsing, output formatting, and the command-line contract."""

import json

import pytest
from hypothesis import given

from conftest import frameworks
from pargue import ArgumentationFramework, BetaLabel, ParseError
from pargue.cli import emit_json, format_af, parse_af, parse_labels, run

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
        assert "ok: theory models match extensions (7)" in out
        assert "ok: model count 7" in out
        assert "ok: prob matches brute force on 4 arguments" in out
        assert "fail" not in out

    def test_enumerative_semantics_pass(self, fact_files, capsys):
        af_path, _ = fact_files
        assert run(["check", "-f", af_path, "-s", "PR"]) == 0
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

    def test_capacity_refusal(self, tmp_path, capsys):
        path = tmp_path / "big.apx"
        path.write_text("".join(f"arg(n{i}).\n" for i in range(26)))
        assert run(["extensions", "-f", str(path), "-s", "AD"]) == 2
        assert capsys.readouterr().err.startswith("capacity:")


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
