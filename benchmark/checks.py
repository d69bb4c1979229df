"""Output checks that stay off the encode -> compile -> evaluate path.

Every answer is checked against properties the method must have; answers
on frameworks of at most 12 arguments are also checked against the
enumeration oracles. Returns the indices of the ops whose answers fail.

* 0 <= prob <= p_a, where p_a is the mean label of the argument.
* prob: ST <= PR <= CO <= AD <= CF and GR <= CO.
* prob-c: AD = CO = PR; CF = p_a, or 0 if a attacks itself; ST, GR <= AD.
* prob under AD <= prob-c under AD.
* A beta-label answer's mean equals the point answer at the label means.

Engine answers are held to 1e-12 on properties and 1e-9 against the
oracles; command-line answers carry 6 significant digits and are held to
that precision.
"""

from __future__ import annotations

import json
from collections import defaultdict

from pargue import ProbabilisticGraph, Semantics, brute_force_prob, brute_force_prob_c
from pargue.cli import parse_af, parse_labels

ORACLE_MAX_ARGUMENTS = 12
PROPERTY_TOL = 1e-12
ORACLE_TOL = 1e-9
# Two values printed to 6 significant digits differ by at most this share.
CLI_REL_TOL = 1e-5

# prob: (lower, upper) pairs of semantics, lower <= upper.
PROB_ORDER = (("ST", "PR"), ("PR", "CO"), ("ST", "CO"), ("CO", "AD"), ("AD", "CF"), ("GR", "CO"))
# prob-c: pairs that must be equal, and (lower, upper) pairs.
PROB_C_EQUAL = (("AD", "CO"), ("AD", "PR"))
PROB_C_ORDER = (("ST", "AD"), ("GR", "AD"))


class Checker:
    def __init__(self, absolute: float, relative: float = 0.0):
        self.absolute = absolute
        self.relative = relative
        self.failed: dict[int, str] = {}

    def _slack(self, x: float, y: float) -> float:
        return self.absolute + self.relative * max(abs(x), abs(y))

    def fail(self, ops: tuple[int, ...], why: str) -> None:
        for i in ops:
            self.failed.setdefault(i, why)

    def le(self, ops: tuple[int, ...], x: float, y: float, why: str) -> None:
        if not x <= y + self._slack(x, y):
            self.fail(ops, f"{why}: {x!r} > {y!r}")

    def eq(self, ops: tuple[int, ...], x: float, y: float, why: str) -> None:
        if not abs(x - y) <= self._slack(x, y):
            self.fail(ops, f"{why}: {x!r} != {y!r}")


def _graph(af_text: str, labels_text: str) -> ProbabilisticGraph:
    af = parse_af(af_text)
    return ProbabilisticGraph(af, parse_labels(labels_text, af))


def _oracle_mean(graph: ProbabilisticGraph, mode: str, semantics: str, argument: str) -> float:
    # The mean depends on the label means alone; asking at the means skips
    # the oracle's quadratic mixture variance.
    points = ProbabilisticGraph(graph.framework, graph.point_means())
    oracle = brute_force_prob if mode == "prob" else brute_force_prob_c
    return float(oracle(points, Semantics(semantics), argument))


def _check_answers(
    checker: Checker,
    ops: list[dict],
    means: list[float | None],
    graph_of,
) -> None:
    """Range, oracle and cross-semantics checks over ops with answers."""
    by_query: dict[tuple, dict[str, tuple[int, float]]] = defaultdict(dict)
    for i, (op, mean) in enumerate(zip(ops, means)):
        if mean is None:
            continue
        graph = graph_of(op)
        argument = op["argument"]
        p_a = graph.point_means()[argument]
        checker.le((i,), 0.0, mean, "negative answer")
        checker.le((i,), mean, p_a, "answer above the argument's label mean")
        if len(graph.framework.arguments) <= ORACLE_MAX_ARGUMENTS:
            oracle = Checker(ORACLE_TOL, checker.relative)
            oracle.eq((i,), mean, _oracle_mean(graph, op["mode"], op["semantics"], argument), "oracle")
            checker.failed.update(oracle.failed)
        if op["mode"] == "prob-c" and op["semantics"] == "CF":
            expected = 0.0 if (argument, argument) in graph.framework.attacks else p_a
            checker.eq((i,), mean, expected, "prob-c CF closed form")
        key = (op["framework"], op.get("labels"), argument)
        by_query[key + (op["mode"],)][op["semantics"]] = (i, mean)

    for key, row in by_query.items():
        if key[-1] == "prob":
            pairs_le, pairs_eq = PROB_ORDER, ()
        else:
            pairs_le, pairs_eq = PROB_C_ORDER, PROB_C_EQUAL
        for low, high in pairs_le:
            if low in row and high in row:
                checker.le((row[low][0], row[high][0]), row[low][1], row[high][1],
                           f"{key[-1]} {low} above {high}")
        for x, y in pairs_eq:
            if x in row and y in row:
                checker.eq((row[x][0], row[y][0]), row[x][1], row[y][1], f"prob-c {x} != {y}")
        if key[-1] == "prob" and "AD" in row:
            other = by_query.get(key[:-1] + ("prob-c",), {}).get("AD")
            if other is not None:
                checker.le((row["AD"][0], other[0]), row["AD"][1], other[1],
                           "prob AD above prob-c AD")


def _check_engine(spec: dict, answers: list[list[float]]) -> dict[int, str]:
    checker = Checker(PROPERTY_TOL)
    graphs = []
    for f in spec["frameworks"]:
        given = _graph(f["af"], f["labels"])
        graphs.append({"given": given, "point": ProbabilisticGraph(given.framework, given.point_means())})
    ops = spec["ops"]
    means = [a[0] for a in answers]
    for i, (op, (_, variance)) in enumerate(zip(ops, answers)):
        checker.le((i,), 0.0, variance, "negative variance")
    _check_answers(checker, ops, means, lambda op: graphs[op["framework"]][op["labels"]])

    # Answers under the given labels against their point twins at the means.
    twins: dict[tuple, dict[str, int]] = {}
    for i, op in enumerate(ops):
        twins.setdefault((op["framework"], op["mode"], op["semantics"], op["argument"]), {})[op["labels"]] = i
    for pair in twins.values():
        if len(pair) == 2:
            checker.eq((pair["given"], pair["point"]), means[pair["given"]], means[pair["point"]],
                       "beta mean differs from the point answer at the label means")
    return checker.failed


def _check_cli(spec: dict, runs: list[dict]) -> dict[int, str]:
    checker = Checker(PROPERTY_TOL, CLI_REL_TOL)
    files = spec["files"]
    graphs = [_graph(files[f["af"]], files[f["labels"]]) for f in spec["frameworks"]]
    ops = spec["ops"]
    means: list[float | None] = []
    for i, (op, run) in enumerate(zip(ops, runs)):
        try:
            payload = json.loads(run["stdout"]) if run["code"] == 0 else None
        except json.JSONDecodeError:
            payload = None
        if payload is None:
            checker.fail((i,), f"exit code {run['code']}: {run['stdout'][-200:]!r}")
            means.append(None)
            continue
        echoed = (payload["argument"], payload["semantics"], payload["mode"])
        if echoed != (op["argument"], op["semantics"], op["mode"]):
            checker.fail((i,), f"answer is for {echoed}")
        checker.le((i,), 0.0, payload["variance"], "negative variance")
        means.append(payload["mean"])
    _check_answers(checker, ops, means, lambda op: graphs[op["framework"]])

    # A covariance file changes the variance only; a point twin (labels
    # replaced by their means) gives the same mean.
    plain = {}
    for i, op in enumerate(ops):
        if op["cov"] is None:
            plain[(op["framework"], op["semantics"], op["argument"], op["mode"])] = i
    for i, op in enumerate(ops):
        twin_of = spec["frameworks"][op["framework"]].get("twin_of")
        source = twin_of if twin_of is not None else op["framework"]
        if op["cov"] is None and twin_of is None:
            continue
        j = plain.get((source, op["semantics"], op["argument"], op["mode"]))
        if j is not None and means[i] is not None and means[j] is not None:
            checker.eq((i, j), means[i], means[j], "mean differs from its twin query")
    return checker.failed


def check(spec: dict, answers: list) -> dict[str, str]:
    """Failed op indices (as strings, for JSON) with the first reason each."""
    if "files" in spec:
        failed = _check_cli(spec, answers)
    else:
        failed = _check_engine(spec, answers)
    return {str(i): why for i, why in sorted(failed.items())}
