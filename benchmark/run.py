#!/usr/bin/env python3
"""Benchmark of pargue's query pipeline on three seeded workloads.

    python3 benchmark/run.py --workload warm-table --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ``src/pargue`` is imported from
there. Every timing is built from per-operation best times: each op (one
answer) runs in several passes spread over the run, and only its fastest
time counts, because the host's speed drifts by tens of percent within
seconds. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = str(HERE / "worker.py")
# Hard cap on one run, so a stuck child cannot hold the benchmark.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Run:
    """One benchmark run: its deadline, work directory and the passes so far."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.started = time.monotonic()
        self.spec = corpus.WORKLOADS[workload](seed)
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec))
        self.ops = len(self.spec["ops"])
        self.best = [math.inf] * self.ops
        self.passes = 0
        self.pass_totals: list[float] = []
        self.answers: list | None = None
        self.unstable: set[int] = set()
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.traces: list[dict] = []

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left

    def child(self, args: list[str], stdin: str = "") -> list[dict]:
        """Run a worker to completion; its stdout lines as JSON."""
        done = subprocess.run(
            [sys.executable, WORKER, *args], input=stdin, capture_output=True,
            text=True, env=_env(), timeout=self.remaining(),
        )
        if done.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {done.returncode}: {done.stderr[-2000:]}")
        return [json.loads(line) for line in done.stdout.splitlines()]

    def add_pass(self, times: list[float], answers: list) -> None:
        if len(times) != self.ops:
            raise BenchError(f"pass returned {len(times)} times for {self.ops} ops")
        self.passes += 1
        self.pass_totals.append(math.fsum(times))
        self.best = [min(b, t) for b, t in zip(self.best, times)]
        if self.answers is None:
            self.answers = answers
        else:
            self.unstable.update(i for i, (a, b) in enumerate(zip(self.answers, answers)) if a != b)

    def rounds(self):
        """Yield once per round while another round of average length fits."""
        since = time.monotonic()
        count = 0
        while True:
            yield count
            count += 1
            spent = time.monotonic() - since
            if spent + spent / count > self.seconds:
                return


def _warm_table(run: Run, traced: bool) -> None:
    """One long-lived worker answers pass after pass from compiled circuits.

    A fresh set-up child runs between passes, so set-up samples are spread
    over the run like the passes are. A traced run instead makes each round
    a fresh traced worker doing set-up plus one pass.
    """
    if traced:
        for _ in run.rounds():
            setup, timed, finish = run.child(["warm", str(run.spec_path), "--trace"], "pass\n")
            run.setups.append(setup["setup_s"])
            run.add_pass(timed["times"], timed["answers"])
            run.rss.append(finish["peak_rss_mb"])
            run.traces.append(finish["trace"])
        return
    worker = subprocess.Popen(
        [sys.executable, WORKER, "warm", str(run.spec_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(),
    )
    try:
        def reply() -> dict:
            line = worker.stdout.readline()
            if not line:
                raise BenchError(f"warm worker exited {worker.wait()}")
            return json.loads(line)

        run.setups.append(reply()["setup_s"])
        for index in run.rounds():
            run.remaining()
            worker.stdin.write("pass\n")
            worker.stdin.flush()
            timed = reply()
            run.add_pass(timed["times"], timed["answers"])
            # A set-up costs about half a pass; every other round keeps
            # most of the run for passes.
            if index % 2 == 0:
                (setup, _) = run.child(["warm", str(run.spec_path)])
                run.setups.append(setup["setup_s"])
        worker.stdin.close()
        run.rss.append(reply()["peak_rss_mb"])
        if worker.wait(timeout=run.remaining()) != 0:
            raise BenchError("warm worker failed")
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()


def _prob_c(run: Run, traced: bool) -> None:
    """Each pass is a fresh child, so every pass starts equally cold."""
    args = ["cold", str(run.spec_path)] + (["--trace"] if traced else [])
    for _ in run.rounds():
        timed, finish = run.child(args)
        run.setups.append(timed["setup_s"])
        run.add_pass(timed["times"], timed["answers"])
        run.rss.append(finish["peak_rss_mb"])
        if traced:
            run.traces.append(finish["trace"])


def _cli_argv(run: Run, op: dict) -> list[str]:
    framework = run.spec["frameworks"][op["framework"]]
    argv = ["query", "-f", str(run.work / framework["af"]), "-l", str(run.work / framework["labels"]),
            "-s", op["semantics"], "-a", op["argument"], "--mode", op["mode"], "--json"]
    if op["cov"]:
        argv += ["--cov", str(run.work / op["cov"])]
    return argv


def _cli(run: Run, traced: bool) -> None:
    """One ``pargue query`` process per op, one at a time.

    The set-up sample of a round is a fresh interpreter importing pargue,
    which every invocation pays. Traced rounds run each query through a
    shim that wraps the layers before calling the same command line.
    """
    for name, text in run.spec["files"].items():
        (run.work / name).write_text(text)
    env = _env()
    for _ in run.rounds():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pargue"], check=True, env=env,
                       timeout=run.remaining())
        run.setups.append(time.perf_counter() - start)
        times, outputs, round_traces = [], [], []
        for i, op in enumerate(run.spec["ops"]):
            argv = _cli_argv(run, op)
            trace_path = run.work / f"trace-{i}.json"
            if traced:
                command = [sys.executable, WORKER, "cli-trace", str(trace_path), *argv]
            else:
                command = [sys.executable, "-m", "pargue", *argv]
            start = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, env=env,
                                  timeout=run.remaining())
            times.append(time.perf_counter() - start)
            outputs.append({"code": done.returncode, "stdout": done.stdout.strip() or done.stderr.strip()})
            if traced:
                round_traces.append(json.loads(trace_path.read_text()))
        run.add_pass(times, outputs)
        if traced:
            run.traces.append(_merge_traces(round_traces))
    # The largest child: every query process, and import probes that are smaller.
    run.rss.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def _merge_traces(traces: list[dict]) -> dict:
    merged = {"self_ms": {}, "counts": {}, "import_ms": statistics.fmean(t["import_ms"] for t in traces)}
    for t in traces:
        for part in ("self_ms", "counts"):
            for key, value in t[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
    return merged


RUNNERS = {"warm-table": _warm_table, "prob-c": _prob_c, "cli": _cli}

# Per-layer metrics: self ms per answer of a layer, counts per round, and
# counts per answer.
LAYER_TIMES = {
    "cli.parse_ms": "cli.parse",
    "af.extensions_ms": "af.extensions",
    "encode.theory_ms": "encode.theory",
    "circuit.compile_ms": "circuit.compile",
    "circuit.condition_ms": "circuit.condition",
    "circuit.model_count_ms": "circuit.model_count",
    "semiring.evaluate_ms": "semiring.evaluate",
    "propagate.ms": "propagate",
    "beta.render_ms": "beta.render",
    "engine.self_ms": "engine",
}
LAYER_COUNTS = {
    "af.extensions_found": "extensions_found",
    "encode.theory_nodes": "theory_nodes",
    "circuit.nodes": "circuit_nodes",
    "circuit.edges": "circuit_edges",
}
LAYER_RATIOS = {
    "semiring.evaluates_per_answer": "evaluates",
    "engine.compiles_per_answer": "compiles",
}


def _layer_metrics(trace: dict) -> dict[str, float]:
    answers = trace["counts"]["answers"]
    out = {"cli.import_ms": trace["import_ms"]}
    for name, layer in LAYER_TIMES.items():
        out[name] = trace["self_ms"].get(layer, 0.0) / answers
    for name, key in LAYER_COUNTS.items():
        out[name] = trace["counts"].get(key, 0)
    for name, key in LAYER_RATIOS.items():
        out[name] = trace["counts"].get(key, 0) / answers
    return out


def _unit(name: str) -> str:
    if name in LAYER_COUNTS:
        return "count"
    if name in LAYER_RATIOS:
        return "count/answer"
    return "ms"


def _end_to_end(run: Run) -> dict[str, dict]:
    values = {
        "setup_s": (statistics.median(run.setups), "s"),
        "answers_per_s": (run.ops / math.fsum(run.best), "1/s"),
        "op_p50_ms": (statistics.median(run.best) * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(run.rss), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _per_layer(run: Run) -> dict[str, dict]:
    rounds = [_layer_metrics(t) for t in run.traces]
    first = rounds[0]
    for other in rounds[1:]:
        for name in (*LAYER_COUNTS, *LAYER_RATIOS):
            if other[name] != first[name]:
                print(f"warning: {name} differs between traced rounds: {first[name]} vs {other[name]}",
                      file=sys.stderr)
    metrics = {}
    for name in first:
        if name in LAYER_COUNTS or name in LAYER_RATIOS:
            value = first[name]
        else:
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = {"value": value, "unit": _unit(name)}
    return metrics


def _check(run: Run) -> dict[str, str]:
    answers_path = run.work / "answers.json"
    answers_path.write_text(json.dumps(run.answers))
    (result,) = run.child(["check", str(run.spec_path), str(answers_path)])
    failed = dict(result["failed"])
    for i in run.unstable:
        failed.setdefault(str(i), "answer changed between passes")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pargue" / "__init__.py").is_file():
        print(f"error: no pargue sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        RUNNERS[args.workload](run, bool(args.trace))
        failed = _check(run)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, why in sorted(failed.items(), key=lambda item: int(item[0])):
        print(f"failed op {i} {run.spec['ops'][int(i)]}: {why}", file=sys.stderr)
    end_to_end = _end_to_end(run)
    result = {
        # Failed checks are counted per op in ``failed``; the run is correct
        # when every op of the corpus was answered and checked.
        "correct": run.answers is not None and len(run.answers) == run.ops,
        "attempted": run.ops * run.passes,
        "failed": len(failed) * run.passes,
        "metrics": _per_layer(run) if args.trace else end_to_end,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  passes=run.passes, pass_totals_s=run.pass_totals, setup_samples=run.setups, rss_samples=run.rss,
                  op_best_s=run.best, failures=failed)
    if args.trace:
        # Traced passes give end-to-end figures too; against an untraced
        # run they show what the tracing costs.
        record["traced_end_to_end"] = end_to_end
        record["traces"] = run.traces
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    if args.trace:
        print(json.dumps({"traced_end_to_end": end_to_end}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
