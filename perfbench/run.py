#!/usr/bin/env python3
"""trispinor benchmark runner.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--out FILE]

Run from the root of a checkout. One client runs operations back to back
(closed loop) in whole blocks of inputs drawn from the seed, and checks
every output against the benchmark's own expectation. The run and its
children stay on one CPU, and every time is scaled to the reference speed
by the ruler read on that CPU between operations (ruler.py); the wall
times are kept in the record's detail. A run takes a fixed number of
blocks, sized to last about S at the reference speed on the seed commit,
and stops early only after 1.6 S of wall time.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed amount of
work, first untraced and then under the tracer and cProfile, and prints the
per-layer metrics; its spans go to perfbench/results/spans-*.json.

The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics. The same record, with machine metadata and details,
is appended to --out (default perfbench/results/runs.jsonl), which
compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib.metadata
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import oracle
import stats
import tracer
from ruler import Ruler
from workloads import ROOT, SRC, WORKLOADS, Outcome, child_env

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SETUP_IMPORTS = 11
# A run stops early after this many times --seconds of wall time.
WALL_CAP = 1.6
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import trispinor; "
    "print(repr(time.perf_counter() - t))"
)
# Traced runs measure a fixed amount of work, so their counts repeat
# exactly: one block per this many seconds of --seconds, at least one.
TRACE_SECONDS_PER_BLOCK = {"cli-suite": 10, "param-sweep": 4, "deep-terms": 15}


def _check_output(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, check=True)


def import_seconds() -> float:
    """Wall time of `import trispinor`, timed inside a fresh interpreter."""
    return float(_check_output([sys.executable, "-c", IMPORT_SNIPPET]).stdout)


def timed_import(ruler: Ruler) -> tuple[float, int]:
    """import_seconds() and the ruler mark before it; reads the ruler after."""
    mark = ruler.mark()
    seconds = import_seconds()
    ruler.read()
    return seconds, mark


def import_layers() -> dict[str, float]:
    """setup.numpy_s and setup.trispinor_s from `-X importtime`, as medians.

    numpy is its cumulative import time; trispinor is the self time of the
    trispinor modules themselves.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import trispinor"]
    _check_output(argv)
    numpy, own = [], []
    for _ in range(SETUP_IMPORTS):
        numpy_us = own_us = 0
        for line in _check_output(argv).stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == "numpy":
                numpy_us = int(fields[1])
            elif name == "trispinor" or name.startswith("trispinor."):
                own_us += int(fields[0])
        numpy.append(numpy_us / 1e6)
        own.append(own_us / 1e6)
    return {"setup.numpy_s": statistics.median(numpy), "setup.trispinor_s": statistics.median(own)}


class Tally:
    """Attempted, failed and wrong operations, with the names at fault."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.blame: Counter[str] = Counter()

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.blame.update(outcome.blame)


def run_one(workload, inp, tally: Tally, profiler: cProfile.Profile | None = None,
            span=None, **call_kwargs) -> float:
    """Time one operation, the call only, then check its output.

    With a profiler, it profiles the call; with a span (a context manager),
    the span encloses the call.
    """
    failure = out = None
    with span or contextlib.nullcontext():
        start = time.perf_counter()
        if profiler:
            profiler.enable()
        try:
            out = workload.call(inp, **call_kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            failure = Outcome(failed=True, blame=[type(exc).__name__])
        finally:
            if profiler:
                profiler.disable()
            elapsed = time.perf_counter() - start
    try:
        tally.add(failure or workload.check(inp, out))
    except Exception as exc:  # output too malformed to check
        tally.add(Outcome(failed=True, wrong=True, blame=[f"check {type(exc).__name__}"]))
    return elapsed


def measure(workload, seconds: float, tally: Tally,
            ruler: Ruler) -> tuple[list[tuple[float, int]], list[tuple[float, int]]]:
    """Closed loop over a fixed number of whole blocks.

    The run takes round(seconds / workload.BLOCK_SECONDS) blocks, the
    number that takes about `seconds` at the reference speed on the seed
    commit, and stops early only after WALL_CAP * `seconds` of wall time.
    A fixed count keeps the sample the same size on a slow host and a fast
    one, so the tail's percentile does not move with the host's speed.

    Returns (wall seconds, ruler mark) of every operation and of
    SETUP_IMPORTS fresh imports. The imports are taken between blocks
    spread over the run, so that a slow stretch of the machine cannot set
    the set-up time alone.
    """
    count = max(1, round(seconds / workload.BLOCK_SECONDS))
    import_seconds()  # writes the bytecode caches; not counted
    blocks = workload.blocks()
    block = next(blocks)
    run_one(workload, block[0], Tally())  # warm-up, not counted
    ruler.read()
    latencies: list[tuple[float, int]] = []
    imports: list[tuple[float, int]] = []
    start = time.perf_counter()
    for done in range(1, count + 1):
        for inp in block:
            mark = ruler.mark()
            latencies.append((run_one(workload, inp, tally), mark))
            ruler.read_if_due()
        while len(imports) * count < done * SETUP_IMPORTS:
            imports.append(timed_import(ruler))
        if time.perf_counter() - start >= WALL_CAP * seconds:
            break
        block = next(blocks)
    imports += [timed_import(ruler) for _ in range(SETUP_IMPORTS - len(imports))]
    ruler.read()
    return latencies, imports


def end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    ruler = Ruler()
    timed, imports = measure(workload, seconds, tally, ruler)
    latencies = [ruler.scale(t, mark) for t, mark in timed]
    setup = [ruler.scale(t, mark) for t, mark in imports]
    wall = [t for t, _ in timed]
    tail, tail_pct, beyond = stats.tail(latencies)
    if workload.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak = workload.peak_rss_mb
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "pass_ratio": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": peak,
    }
    detail = {
        "samples": len(latencies),
        "setup_imports": len(setup),
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
        "fail_ratio": tally.failed / tally.attempted,
        "ruler_factor": ruler.factor(),
        "wall": {
            "setup_s": statistics.median(t for t, _ in imports),
            "ops_per_s": len(wall) / sum(wall),
            "latency_p50_s": statistics.median(wall),
            "latency_tail_s": stats.tail(wall)[0],
        },
    }
    return metrics, detail


def per_layer(workload, seconds: float, tally: Tally, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics; their times are scaled by the whole run's ruler factor."""
    ruler = Ruler()
    ruler.read()
    metrics = import_layers()
    ruler.read()
    blocks = max(1, int(seconds // TRACE_SECONDS_PER_BLOCK[workload.name]))
    inputs = [inp for block in islice(workload.blocks(), blocks) for inp in block]
    run_one(workload, inputs[0], Tally())  # warm-up, not counted

    def timed(*args, **kwargs) -> tuple[float, int]:
        mark = ruler.mark()
        elapsed = run_one(*args, **kwargs)
        ruler.read_if_due()
        return elapsed, mark

    untraced = [timed(workload, inp, tally) for inp in inputs]

    spans = tracer.Tracer()
    profile = pstats.Stats()
    scratch = RESULTS / f".trace-{os.getpid()}"
    if workload.in_process:
        profiler = cProfile.Profile()
        spans.install()
    traced: list[tuple[float, int]] = []
    try:
        for op, inp in enumerate(inputs):
            spans.op = op
            root = len(spans.spans)
            span = spans.span(workload.name)
            if workload.in_process:
                traced.append(timed(workload, inp, tally, profiler, span))
            else:
                files = (scratch.with_suffix(".prof"), scratch.with_suffix(".json"))
                traced.append(timed(workload, inp, tally, span=span, trace_files=files))
                if all(f.exists() for f in files):  # a crashed child is a failed op
                    profile.add(str(files[0]))
                    spans.add(json.loads(files[1].read_text()), root)
                for f in files:
                    f.unlink(missing_ok=True)
    finally:
        spans.uninstall()
    ruler.read()
    if workload.in_process:
        profile.add(profiler)

    metrics.update(tracer.profile_metrics(profile))
    metrics.update(tracer.span_metrics(spans.spans, oracle.IDENTITIES))
    factor = ruler.factor()
    metrics = {name: value * factor if name.endswith(("_s", ".s")) else value
               for name, value in metrics.items()}
    metrics["trace.overhead_ratio"] = (sum(ruler.scale(t, m) for t, m in traced)
                                       / sum(ruler.scale(t, m) for t, m in untraced))
    spans_file = RESULTS / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(spans.spans))
    return metrics, {"traced_ops": len(inputs), "spans": len(spans.spans), "ruler_factor": factor,
                     "spans_file": str(spans_file.relative_to(ROOT))}


def pin_cpu() -> int:
    """Keep this process and its children on one CPU, the one the ruler reads."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine(cpus_usable: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl",
                        help="results file the run record is appended to")
    args = parser.parse_args(argv)
    if not (SRC / "trispinor" / "__init__.py").is_file():
        print(f"error: no trispinor sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    cpus_usable = len(os.sched_getaffinity(0))
    cpu = pin_cpu()
    sys.path.insert(0, str(SRC))
    rng = random.Random(f"{args.workload}:{args.seed}")
    tally = Tally()
    workload = WORKLOADS[args.workload](rng)
    if args.trace:
        values, detail = per_layer(workload, args.seconds, tally, args.seed)
    else:
        values, detail = end_to_end(workload, args.seconds, tally)
    detail["fail_by"] = dict(tally.blame)
    detail["cpu"] = cpu
    # BENCHMARK.json names the metrics of each kind of run and their units.
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(cpus_usable), "detail": detail, **result}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as f:
        f.write(json.dumps(record) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:<12} {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<12} detail {json.dumps(detail)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
