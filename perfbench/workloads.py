"""The benchmark's workloads: inputs drawn from a seed, the timed operation,
and the check of its output against the benchmark's own expectation.

Each workload hands out inputs in blocks; a run measures whole blocks, so
a stratified block keeps the mix of input sizes the same in every run.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Iterator

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass
class Outcome:
    """Check result of one operation.

    failed: the operation raised or the program itself reported a failure
    (a FAIL report or a nonzero exit); wrong: the output disagrees with the
    expectation without the program saying so. Both count as failed
    operations; only `wrong` makes the run incorrect. `blame` names the
    identities or operation kinds at fault.
    """

    failed: bool = False
    wrong: bool = False
    blame: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, float]:
    """Run a child to completion; return its exit code, output and peak RSS in MB.

    stderr goes into the output, so a clean run is one that wrote nothing
    but its result.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def _status_outcome(pairs: list[tuple[str, str, str]]) -> Outcome:
    """Outcome from (identity, reported status, expected status) triples."""
    outcome = Outcome()
    for identity, got, want in pairs:
        if got == want:
            continue
        outcome.blame.append(identity)
        outcome.failed = True
        outcome.wrong = outcome.wrong or got != "fail"
    return outcome


class Deck:
    """Draws from a fixed list without replacement, refilled and reshuffled
    when it runs out.

    Each draw is uniform on the list, as with independent draws, but over a
    run every value comes up about equally often, so runs differ less.
    """

    def __init__(self, rng: Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()


class CliSuite:
    """Fresh `python -m trispinor suite` processes on the tribonacci preset."""

    name = "cli-suite"
    in_process = False
    # Reference seconds one block takes on the seed commit, its check, ruler
    # readings and share of the set-up imports included (one suite process).
    BLOCK_SECONDS = 1.9
    NMAX = 50
    # Suite seeds come from a small pool, so seeds repeat within a run and
    # the output for a repeated seed can be compared.
    POOL = 4

    def __init__(self, rng: Random) -> None:
        self.pool = [rng.randrange(1 << 31) for _ in range(self.POOL)]
        self.rng = rng
        self.seen: dict[int, bytes] = {}
        self.peak_rss_mb = 0.0

    def blocks(self) -> Iterator[list[int]]:
        while True:
            yield [self.rng.choice(self.pool)]

    def argv(self, k: int) -> list[str]:
        return ["suite", "--preset", "tribonacci", "--nmax", str(self.NMAX),
                "--seed", str(k), "--json"]

    def call(self, k: int, trace_files: tuple[Path, Path] | None = None):
        """Run one suite process; with trace_files (profile, spans) it runs
        under the benchmark's tracer, which writes those two files."""
        if trace_files:
            prefix = [sys.executable, str(HERE / "child_trace.py"), *map(str, trace_files)]
        else:
            prefix = [sys.executable, "-m", "trispinor"]
        code, out, rss = run_child(prefix + self.argv(k))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out

    def check(self, k: int, result) -> Outcome:
        code, out = result
        try:
            reports = json.loads(out)
        except ValueError:
            return Outcome(failed=True, wrong=code == 0, blame=["output"])
        if (not isinstance(reports, list)
                or [r.get("identity") for r in reports] != list(oracle.IDENTITIES)):
            return Outcome(failed=True, wrong=True, blame=["reports"])
        outcome = _status_outcome([
            (r["identity"], r["status"], oracle.expected_status(r["identity"], oracle.TRIBONACCI))
            for r in reports
        ])
        tribonacci = {name: str(v) for name, v in zip(("r", "s", "t", "v0", "v1", "v2"),
                                                       oracle.TRIBONACCI)}
        checks = {
            "exit code": code == (1 if "fail" in {r["status"] for r in reports} else 0),
            "re-render": (json.dumps(reports, indent=2, sort_keys=True) + "\n").encode() == out,
            "params": all(r["params"] in (tribonacci, None) for r in reports),
            "triple_product seed": f"seed {k}" in reports[5]["note"],
            "repeat": self.seen.setdefault(k, out) == out,
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            outcome.failed = outcome.wrong = True
            outcome.blame += bad
        return outcome


class ParamSweep:
    """Every parameter-dependent identity on one fresh integer parameter set."""

    name = "param-sweep"
    in_process = True
    # Reference seconds one block takes on the seed commit, as for CliSuite
    # (one parameter set).
    BLOCK_SECONDS = 0.93
    NMAX = 60
    # triple_product ignores the parameter set; cli-suite covers it.
    IDS = tuple(i for i in oracle.IDENTITIES if i != "triple_product")

    def __init__(self, rng: Random) -> None:
        from trispinor import identities, sequences

        self.rng = rng
        self.identities = identities
        self.sequences = sequences
        self.ids = [identities.IdentityId(i) for i in self.IDS]

    def blocks(self) -> Iterator[list]:
        # The acceptance distribution: uniform on [-5, 5]^6.
        while True:
            values = tuple(Fraction(self.rng.randint(-5, 5)) for _ in range(6))
            yield [(values, self.sequences.SeqParams(*values))]

    def call(self, inp) -> list:
        _, p = inp
        return [self.identities.run_identity(i, p, nmax=self.NMAX) for i in self.ids]

    def check(self, inp, reports) -> Outcome:
        values, p = inp
        if [r.identity.value for r in reports] != list(self.IDS) or any(r.params != p for r in reports):
            return Outcome(failed=True, wrong=True, blame=["reports"])
        return _status_outcome([
            (r.identity.value, r.status.value, oracle.expected_status(r.identity.value, values))
            for r in reports
        ])


class DeepTerms:
    """Single deep terms, spinors and long slices, integer and rational."""

    name = "deep-terms"
    in_process = True
    # Reference seconds one block takes on the seed commit, as for CliSuite
    # (48 operations). At --seconds 30 a run takes 18 blocks and deals each
    # rational corpus once.
    BLOCK_SECONDS = 1.65
    KINDS = ("seq_term", "trib_spinor", "seq_slice")
    LOG2_N = (4, 12)  # n is log-uniform in [16, 4096]
    STRATA = 8
    # Each stratum is cut into this many equal bins of log n.
    BINS = 18
    # A rational cell deals its (set, bin) pairs from a fixed corpus of this
    # many, one per bin, drawn once for every run from the same constant
    # seed; the run's seed sets the order and n within the bin. The few
    # largest rational operations set ops_per_s and the tail; with fresh
    # sets and sizes in every run those two would follow the luck of the draw.
    CORPUS = 18

    def __init__(self, rng: Random) -> None:
        from trispinor import sequences, spinors

        self.rng = rng
        self.sequences = sequences
        self.spinors = spinors
        cells = list(itertools.product(range(self.STRATA), self.KINDS, (False, True)))
        self.decks = {cell: Deck(rng, self.rational_corpus(cell) if cell[2] else
                                 [(None, b) for b in range(self.BINS)]) for cell in cells}

    @classmethod
    def rational_corpus(cls, cell) -> list[tuple[tuple[Fraction, ...], int]]:
        """CORPUS (set, bin) pairs: numerators in [-5, 5], denominators in
        1..4, every bin equally often."""
        fixed = Random(f"deep-terms corpus {cell}")
        return [(tuple(Fraction(fixed.randint(-5, 5), fixed.randint(1, 4)) for _ in range(6)),
                 i % cls.BINS) for i in range(cls.CORPUS)]

    def _draw(self, cell) -> tuple[tuple[Fraction, ...], int]:
        """A parameter set and a bin of log n for one operation of the cell.

        Integer sets are drawn fresh from the seed, and their bins dealt
        from a deck, so that over a run every bin comes up equally often.
        """
        values, b = self.decks[cell].draw()
        if values is None:
            values = tuple(Fraction(self.rng.randint(-5, 5)) for _ in range(6))
        return values, b

    def blocks(self) -> Iterator[list]:
        # One block covers every (size stratum, kind, integer/rational) cell
        # once, so each run sees the same mix of sizes and kinds.
        lo, hi = self.LOG2_N
        width = (hi - lo) / self.STRATA
        while True:
            block = []
            for cell in self.decks:
                stratum, kind, _ = cell
                values, b = self._draw(cell)
                offset = (b + self.rng.random()) / self.BINS
                n = min(round(2 ** (lo + width * (stratum + offset))), 2 ** hi)
                block.append((kind, values, self.sequences.SeqParams(*values), n))
            self.rng.shuffle(block)
            yield block

    def call(self, inp):
        kind, _, p, n = inp
        if kind == "seq_term":
            return self.sequences.seq_term(p, n)
        if kind == "trib_spinor":
            return self.spinors.trib_spinor(p, n)
        return self.sequences.seq_slice(p, 0, n + 1)

    def check(self, inp, out) -> Outcome:
        kind, values, _, n = inp
        if kind == "seq_term":
            ok = out == oracle.terms(values, n, 1)[0]
        elif kind == "trib_spinor":
            v = oracle.terms(values, n, 4)
            ok = (out.c1.re, out.c1.im, out.c2.re, out.c2.im) == (v[3], v[0], v[1], v[2])
        else:
            ok = oracle.slice_ok(values, out, n)
        return Outcome() if ok else Outcome(failed=True, wrong=True, blame=[kind])


WORKLOADS = {w.name: w for w in (CliSuite, ParamSweep, DeepTerms)}
