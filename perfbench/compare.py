#!/usr/bin/env python3
"""Compare two benchmark results files, workload by workload.

usage: python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are results files that run.py appends to (one JSON record
per run). For every metric named in BENCHMARK.json this prints, per side,
the number of runs, the median and the quartiles, then the change of the
median, the pairwise wins of AFTER (runs paired by seed, or in file order
when no seeds match; ties count for neither) and a verdict:

  gain        AFTER wins at least 9 of 10 pairs and the medians differ by
              more than BEFORE's interquartile distance
  regression  AFTER's median is worse by more than the metric's bound
  unresolved  the run-to-run spread is wider than the bound, and not every
              AFTER run beats every BEFORE run
  ok          none of these: no worse than the bound allows

Per-layer metrics have no bound; they get no verdict, except that counts
are marked `same` or `differs`. The exit status is 1 if any end-to-end
metric regressed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    with path.open() as f:
        return [json.loads(line) for line in f if line.strip()]


def pairs(before: list[dict], after: list[dict], metric: str) -> list[tuple[float, float]]:
    """(before, after) values of runs with the same seed, else in file order."""
    by_seed = {r["seed"]: r["metrics"][metric]["value"] for r in before}
    matched = [(by_seed[r["seed"]], r["metrics"][metric]["value"])
               for r in after if r["seed"] in by_seed]
    if matched:
        return matched
    return [(b["metrics"][metric]["value"], a["metrics"][metric]["value"])
            for b, a in zip(before, after)]


def wins(spec: dict, paired: list[tuple[float, float]]) -> int:
    """Pairs in which AFTER reads better than BEFORE; ties count for neither."""
    sign = 1 if spec["better"] == "higher" else -1
    return sum(1 for b, a in paired if sign * (a - b) > 0)


def verdict(spec: dict, before: list[float], after: list[float],
            paired: list[tuple[float, float]]) -> str:
    """Judge AFTER against BEFORE for one end-to-end metric (see module doc)."""
    sign = 1 if spec["better"] == "higher" else -1
    b1, bmed, b3 = stats.quartiles(before)
    amed = stats.quartiles(after)[1]
    if paired and wins(spec, paired) >= GAIN_WIN_SHARE * len(paired) and sign * (amed - bmed) > b3 - b1:
        return "gain"
    all_better = min(after) > max(before) if sign > 0 else max(after) < min(before)
    if max(stats.spread(before), stats.spread(after)) > spec["bound"] and not all_better:
        return "unresolved"
    if bmed and sign * (bmed - amed) / abs(bmed) > spec["bound"]:
        return "regression"
    return "ok"


def _cell(runs: int, q: tuple[float, float, float]) -> str:
    return f"{runs:>3}  {q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(before: list[dict], after: list[dict], benchmark: dict) -> tuple[list[str], bool]:
    """Render the comparison table; also say whether anything regressed."""
    lines = [f"{'workload':<12} {'metric':<34} {'runs, before median [q1, q3]':<40} "
             f"{'runs, after median [q1, q3]':<40} {'change':>8} {'wins':>7}  verdict"]
    regressed = False
    workloads = sorted({r["workload"] for r in before} | {r["workload"] for r in after})
    sections = ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"]))
    for workload in workloads:
        for trace, specs in sections:
            side_b = [r for r in before if r["workload"] == workload and r["trace"] == trace]
            side_a = [r for r in after if r["workload"] == workload and r["trace"] == trace]
            if not side_b or not side_a:
                continue
            for spec in specs:
                name = spec["name"]
                vb = [r["metrics"][name]["value"] for r in side_b]
                va = [r["metrics"][name]["value"] for r in side_a]
                paired = pairs(side_b, side_a, name)
                bq, aq = stats.quartiles(vb), stats.quartiles(va)
                change = f"{(aq[1] - bq[1]) / abs(bq[1]):+.1%}" if bq[1] else "n/a"
                if "bound" in spec:
                    judged = verdict(spec, vb, va, paired)
                    regressed |= judged == "regression"
                elif spec["unit"] == "count":
                    judged = "same" if all(b == a for b, a in paired) else "differs"
                else:
                    judged = "-"
                lines.append(
                    f"{workload:<12} {name:<34} {_cell(len(vb), bq):<40} {_cell(len(va), aq):<40} "
                    f"{change:>8} {wins(spec, paired):>3}/{len(paired):<3}  {judged}"
                )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    lines, regressed = compare(load(Path(argv[0])), load(Path(argv[1])), benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
