"""Command-line front end: file parsing, queries, machine-readable output.

Framework files use the usual solver exchange syntax (``arg(a).`` and
``att(a,b).`` facts, ``%`` comments); label files add ``prob``, ``beta``
and ``fuzzy`` facts. Exit codes: 0 success, 1 input error (``error:`` on
stderr), 2 capacity refusal (``capacity:`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Iterator, Sequence

from .af import ArgumentationFramework, Semantics, extensions
from .beta import DEFAULT_LABEL_CONFIG, BetaLabel, FuzzyLabel, LabelConfig, from_fuzzy
from .circuit import validate, write_nnf
from .engine import (
    MAX_BRUTE_FORCE_ARGUMENTS,
    ProbabilisticGraph,
    _compiled,
    _theory,
    brute_force_prob,
    mc_oracle,
    prob,
    prob_c,
)
from .errors import CapacityError, InputError, ParseError
from .formula import models
from .propagate import load_covariance_csv
from .results import QueryResult

_ARG_FACT = re.compile(r"arg\(\s*([A-Za-z0-9_]+)\s*\)\Z")
_ATT_FACT = re.compile(r"att\(\s*([A-Za-z0-9_]+)\s*,\s*([A-Za-z0-9_]+)\s*\)\Z")
_PROB_FACT = re.compile(r"prob\(\s*([A-Za-z0-9_]+)\s*,\s*([^,()\s]+)\s*\)\Z")
_BETA_FACT = re.compile(
    r"beta\(\s*([A-Za-z0-9_]+)\s*,\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)\Z"
)
_FUZZY_FACT = re.compile(
    r"fuzzy\(\s*([A-Za-z0-9_]+)\s*,\s*([a-z_]+)\s*,\s*([a-z_]+)\s*\)\Z"
)


_FACT = re.compile(r"[A-Za-z0-9_]+\([^()]*\)")
_TERMINATED_FACT = re.compile(r"([A-Za-z0-9_]+\([^()]*\))\s*\.")


def _statements(text: str) -> Iterator[tuple[int, str]]:
    # One or more '.'-terminated facts per line; '.' inside parentheses (for
    # numeric arguments) does not terminate a fact.
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("%", 1)[0].strip()
        if not line:
            continue
        pos = 0
        for match in _TERMINATED_FACT.finditer(line):
            gap = line[pos : match.start()].strip()
            if gap:
                raise ParseError(f"cannot parse {gap!r}", lineno)
            yield lineno, match.group(1)
            pos = match.end()
        rest = line[pos:].strip()
        if rest:
            if _FACT.fullmatch(rest):
                raise ParseError("missing '.' after fact", lineno)
            raise ParseError(f"cannot parse {rest!r}", lineno)


def parse_af(text: str) -> ArgumentationFramework:
    """Parse ``arg``/``att`` facts into a framework."""
    names: dict[str, None] = {}
    attacks: list[tuple[int, str, str]] = []
    for lineno, fact in _statements(text):
        m = _ARG_FACT.match(fact)
        if m:
            names[m.group(1)] = None
            continue
        m = _ATT_FACT.match(fact)
        if m:
            attacks.append((lineno, m.group(1), m.group(2)))
            continue
        raise ParseError(f"cannot parse fact {fact!r}", lineno)
    for lineno, source, target in attacks:
        if source not in names or target not in names:
            raise ParseError(
                f"att({source},{target}) references an undeclared argument", lineno
            )
    return ArgumentationFramework(names, [(s, t) for _, s, t in attacks])


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} is not a number: {token!r}", lineno) from None


def parse_labels(
    text: str, af: ArgumentationFramework, config: LabelConfig | None = None
) -> dict[str, float | BetaLabel]:
    """Parse ``prob``/``beta``/``fuzzy`` facts against a framework."""
    out: dict[str, float | BetaLabel] = {}

    def claim(name: str, lineno: int) -> None:
        if name not in af:
            raise ParseError(f"label for undeclared argument {name!r}", lineno)
        if name in out:
            raise ParseError(f"argument {name!r} labeled twice", lineno)

    for lineno, fact in _statements(text):
        m = _PROB_FACT.match(fact)
        if m:
            claim(m.group(1), lineno)
            p = _parse_float(m.group(2), lineno, "probability")
            if not 0.0 <= p <= 1.0:
                raise ParseError(f"probability out of [0,1]: {p}", lineno)
            out[m.group(1)] = p
            continue
        m = _BETA_FACT.match(fact)
        if m:
            claim(m.group(1), lineno)
            alpha = _parse_float(m.group(2), lineno, "alpha")
            beta = _parse_float(m.group(3), lineno, "beta")
            try:
                out[m.group(1)] = BetaLabel(alpha, beta)
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        m = _FUZZY_FACT.match(fact)
        if m:
            claim(m.group(1), lineno)
            try:
                out[m.group(1)] = from_fuzzy(
                    FuzzyLabel(m.group(2), m.group(3)), config
                )
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        raise ParseError(f"cannot parse fact {fact!r}", lineno)
    return out


def format_af(af: ArgumentationFramework) -> str:
    """Render back as facts; parse(format(af)) == af."""
    lines = [f"arg({name})." for name in af.arguments]
    lines.extend(f"att({s},{t})." for s, t in sorted(af.attacks))
    return "\n".join(lines) + "\n"


def _sig(value: float) -> float | str:
    if math.isinf(value):
        return "inf"
    return float(f"{value:.6g}")


def emit_json(result: QueryResult) -> str:
    """One-line JSON with fixed key order and 6-significant-digit numbers."""
    payload = {
        "argument": result.argument,
        "semantics": result.semantics.value,
        "mode": result.mode,
        "mean": _sig(result.mean),
        "variance": _sig(result.variance),
        "alpha": _sig(result.matched.alpha),
        "beta": _sig(result.matched.beta),
        "aleatory_label": result.fuzzy.aleatory,
        "epistemic_label": result.fuzzy.epistemic,
        "circuit_nodes": result.circuit_nodes,
        "model_count": result.model_count,
    }
    return json.dumps(payload)


def _beta_text(label: BetaLabel) -> str:
    def side(x: float) -> str:
        return "inf" if math.isinf(x) else f"{x:.2f}"

    return f"Beta({side(label.alpha)}, {side(label.beta)})"


def _print_result(result: QueryResult, as_json: bool, pretty: bool) -> None:
    if as_json:
        print(emit_json(result))
        return
    name = result.mode.replace("-", "_")
    line = (
        f"{name}({result.argument}, {result.semantics.value}) "
        f"mean={_sig(result.mean)} variance={_sig(result.variance)} "
        f"{_beta_text(result.matched)} {result.fuzzy}"
    )
    if pretty:
        print(line)
        print(f"  circuit nodes: {result.circuit_nodes}")
        print(f"  model count:   {result.model_count}")
    else:
        print(line)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad flags are input errors, exit code 1
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pargue", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("-f", "--framework", required=True, help="framework fact file")
        return p

    p = add("extensions", "enumerate extensions")
    p.add_argument("-s", "--semantics", required=True, choices=[s.value for s in Semantics])

    for name in ("query", "oracle"):
        p = add(name, "evaluate a query" if name == "query" else "Monte-Carlo estimate")
        p.add_argument("-l", "--labels", required=True, help="label fact file")
        p.add_argument("-s", "--semantics", required=True, choices=[s.value for s in Semantics])
        p.add_argument("--mode", default="prob", choices=["prob", "prob-c"])
        p.add_argument("-a", "--argument", required=True)
        p.add_argument("--json", action="store_true", dest="as_json")
        if name == "query":
            p.add_argument("--cov", help="covariance CSV file")
            p.add_argument("--pretty", action="store_true")
        else:
            p.add_argument("--samples", type=int, default=200_000)
            p.add_argument("--seed", type=int, default=0)

    p = add("compile", "compile a semantics theory to an .nnf file")
    p.add_argument("-s", "--semantics", required=True, choices=[s.value for s in Semantics])
    p.add_argument("-o", "--output", required=True)

    p = add("check", "self-test: validators plus oracle equivalence")
    p.add_argument("-s", "--semantics", required=True, choices=[s.value for s in Semantics])
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None


def _load_config() -> LabelConfig:
    path = os.environ.get("PARGUE_LABEL_CONFIG")
    if path:
        return LabelConfig.load(path)
    return DEFAULT_LABEL_CONFIG


def _cmd_extensions(ns: argparse.Namespace, config: LabelConfig) -> int:
    af = parse_af(_read(ns.framework))
    for group in extensions(af, Semantics(ns.semantics)):
        print("{" + ",".join(sorted(group)) + "}")
    return 0


def _cmd_query(ns: argparse.Namespace, config: LabelConfig) -> int:
    af = parse_af(_read(ns.framework))
    graph = ProbabilisticGraph(af, parse_labels(_read(ns.labels), af, config))
    covariance = load_covariance_csv(_read(ns.cov)) if ns.cov else None
    run = prob if ns.mode == "prob" else prob_c
    result = run(graph, Semantics(ns.semantics), ns.argument, covariance, config)
    _print_result(result, ns.as_json, ns.pretty)
    return 0


def _cmd_oracle(ns: argparse.Namespace, config: LabelConfig) -> int:
    af = parse_af(_read(ns.framework))
    graph = ProbabilisticGraph(af, parse_labels(_read(ns.labels), af, config))
    pair = mc_oracle(
        graph, Semantics(ns.semantics), ns.argument, ns.mode, ns.samples, ns.seed
    )
    if ns.as_json:
        payload = {
            "argument": ns.argument,
            "semantics": ns.semantics,
            "mode": ns.mode,
            "samples": ns.samples,
            "seed": ns.seed,
            "mean": _sig(pair.mean),
            "variance": _sig(pair.variance),
        }
        print(json.dumps(payload))
    else:
        print(
            f"mc({ns.argument}, {ns.semantics}, {ns.mode}) "
            f"mean={_sig(pair.mean)} variance={_sig(pair.variance)} "
            f"samples={ns.samples} seed={ns.seed}"
        )
    return 0


def _cmd_compile(ns: argparse.Namespace, config: LabelConfig) -> int:
    af = parse_af(_read(ns.framework))
    circuit, count = _compiled(af, Semantics(ns.semantics), None)
    try:
        write_nnf(circuit, ns.output)
    except OSError as exc:
        raise InputError(f"cannot write {ns.output!r}: {exc}") from None
    print(
        f"wrote {ns.output}: {len(circuit.nodes)} nodes, {circuit.edge_count} edges, "
        f"{len(circuit.variables)} vars, {count} models"
    )
    return 0


def _cmd_check(ns: argparse.Namespace, config: LabelConfig) -> int:
    af = parse_af(_read(ns.framework))
    semantics = Semantics(ns.semantics)
    circuit, count = _compiled(af, semantics, None)
    report = validate(circuit)
    failed = False
    for prop in ("decomposable", "deterministic", "smooth"):
        ok = getattr(report, prop)
        print(f"{'ok' if ok else 'fail'}: circuit {prop}")
        failed = failed or not ok

    if len(af.arguments) > MAX_BRUTE_FORCE_ARGUMENTS:
        print(
            f"note: oracle equivalence skipped "
            f"({len(af.arguments)} arguments > {MAX_BRUTE_FORCE_ARGUMENTS})"
        )
    else:
        expected = set(extensions(af, semantics))
        got = set(models(_theory(af, semantics), af.arguments))
        if got == expected:
            print(f"ok: theory models match extensions ({len(expected)})")
        else:
            print("fail: theory models do not match extensions")
            failed = True
        if count == len(expected):
            print(f"ok: model count {count}")
        else:
            print(f"fail: model count {count} != {len(expected)}")
            failed = True
        graph = ProbabilisticGraph(af, {name: 0.5 for name in af.arguments})
        worst = 0.0
        for name in af.arguments:
            got_p = prob(graph, semantics, name).mean
            want_p = brute_force_prob(graph, semantics, name)
            worst = max(worst, abs(got_p - want_p))
        if worst <= 1e-9:
            print(f"ok: prob matches brute force on {len(af.arguments)} arguments")
        else:
            print(f"fail: prob deviates from brute force by {worst}")
            failed = True
    if failed:
        raise InputError("self-test failed")
    return 0


_COMMANDS = {
    "extensions": _cmd_extensions,
    "query": _cmd_query,
    "oracle": _cmd_oracle,
    "compile": _cmd_compile,
    "check": _cmd_check,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors onto the exit-code contract."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns, _load_config())
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
