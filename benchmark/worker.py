"""Child processes of the benchmark; each imports ``pargue`` fresh.

    worker.py warm SPEC [--trace]   set up, then one pass per ``pass`` line
                                    on stdin, until stdin closes
    worker.py cold SPEC [--trace]   set up and run one pass, then exit
    worker.py check SPEC ANSWERS    output checks; prints failed op indices
    worker.py cli-trace OUT ARGS..  ``pargue`` command line with tracing

Every reply is one JSON line on stdout. The orchestrator in ``run.py``
never imports ``pargue`` itself: a child inherits its parent's peak RSS at
exec, so the parent has to stay small for the children's figures to hold.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_pargue(traced: bool) -> tuple[float, object]:
    """Import the package, timed in ms; with ``traced``, wrap its layers.

    Returns the import time and the tracer, or None.
    """
    start = time.perf_counter()
    import pargue.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1000.0
    if not traced:
        return import_ms, None
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    return import_ms, tracer


def _calls(spec: dict) -> list[tuple]:
    """(function, graph, semantics, argument) per op of a warm-table or
    prob-c spec, with the inputs built by the public parsers."""
    from pargue import ProbabilisticGraph, Semantics, cli, engine

    graphs = []
    for f in spec["frameworks"]:
        af = cli.parse_af(f["af"])
        given = ProbabilisticGraph(af, cli.parse_labels(f["labels"], af))
        graphs.append({"given": given, "point": ProbabilisticGraph(af, given.point_means())})
    run = {"prob": engine.prob, "prob-c": engine.prob_c}
    return [
        (run[op["mode"]], graphs[op["framework"]][op["labels"]], Semantics(op["semantics"]), op["argument"])
        for op in spec["ops"]
    ]


def _timed_pass(calls: list[tuple]) -> dict:
    clock = time.perf_counter
    times, answers = [], []
    for fn, graph, semantics, argument in calls:
        start = clock()
        result = fn(graph, semantics, argument)
        times.append(clock() - start)
        answers.append([result.mean, result.variance])
    return {"times": times, "answers": answers}


def _warm(spec: dict, traced: bool) -> None:
    import_ms, tracer = _import_pargue(traced)
    calls = _calls(spec)
    # The first answer per (framework, semantics) compiles its circuit.
    seen = set()
    for call, op in zip(calls, spec["ops"]):
        key = (op["framework"], op["semantics"])
        if key not in seen:
            seen.add(key)
            fn, graph, semantics, argument = call
            fn(graph, semantics, argument)
    done = time.perf_counter()
    _reply({"setup_s": done - _START})
    for line in sys.stdin:
        if line.strip() == "pass":
            _reply(_timed_pass(calls))
    _finish(tracer, import_ms)


def _cold(spec: dict, traced: bool) -> None:
    import_ms, tracer = _import_pargue(traced)
    calls = _calls(spec)
    setup = time.perf_counter() - _START
    result = _timed_pass(calls)
    result["setup_s"] = setup
    _reply(result)
    _finish(tracer, import_ms)


def _finish(tracer, import_ms: float) -> None:
    payload = {"peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        payload["trace"] = dict(tracer.summary(), import_ms=import_ms)
    _reply(payload)


def _cli_trace(out: str, argv: list[str]) -> int:
    import_ms, tracer = _import_pargue(traced=True)
    import pargue.cli

    code = pargue.cli.run(argv)
    sys.stdout.flush()
    with open(out, "w") as handle:
        json.dump(dict(tracer.summary(), import_ms=import_ms), handle)
    return code


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "cli-trace":
        return _cli_trace(argv[1], argv[2:])
    with open(argv[1]) as handle:
        spec = json.load(handle)
    if command == "warm":
        _warm(spec, "--trace" in argv)
    elif command == "cold":
        _cold(spec, "--trace" in argv)
    elif command == "check":
        from checks import check

        with open(argv[2]) as handle:
            answers = json.load(handle)
        _reply({"failed": check(spec, answers)})
    else:
        raise SystemExit(f"unknown worker command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
