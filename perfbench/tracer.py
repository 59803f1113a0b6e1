"""Spans and per-module profiles, recorded from outside the library.

The tracer rebinds a few public functions of trispinor in every module that
imported them, so each call opens a span; a cProfile profile around each
operation supplies self time per module and call counts. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layers are the library's modules plus the stdlib scalar kernel beneath them.
MODULES = ("cli", "identities", "analytic", "quaternions", "spinors", "gauss", "sequences")
LAYERS = MODULES + ("fractions",)

# (layer, function name in the profile) -> per-layer counter name.
CALL_COUNTERS = {
    ("sequences", "seq_slice"): "sequences.seq_slice.calls",
    ("sequences", "seq_term"): "sequences.seq_term.calls",
    ("sequences", "companion_power"): "sequences.companion_power.calls",
    ("quaternions", "qmul"): "quaternions.qmul.calls",
    ("quaternions", "qv_matrix"): "quaternions.qv_matrix.calls",
    ("spinors", "breve"): "spinors.breve.calls",
    ("spinors", "__matmul__"): "spinors.matmul.calls",
    # GaussScalar is the only class in gauss.py with a __post_init__, which
    # runs once per construction.
    ("gauss", "__post_init__"): "gauss.GaussScalar.new",
    ("fractions", "__new__"): "fractions.Fraction.new",
    ("analytic", "cubic_roots"): "analytic.cubic_roots.calls",
}


def _span_args(module: str, name: str, args: dict) -> tuple[str, dict]:
    # sequences.terms counts the terms a call iterates, from its arguments.
    if name == "run_identity":
        return f"identities.{args['identity'].value}", {}
    if name == "seq_slice":
        return "sequences.seq_slice", {"terms": args["n0"] + args["length"]}
    if name == "seq_term":
        return "sequences.seq_term", {"terms": args["n"] + 1}
    return f"{module}.{name}", {}


# Public functions whose calls open spans: (defining module, name).
SPANNED = (
    ("identities", "run_identity"),
    ("sequences", "seq_slice"),
    ("sequences", "seq_term"),
    ("sequences", "companion_power"),
)


class Tracer:
    """Collects spans: name, start, end, parent span and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans), "op": self.op, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, records: list[dict], parent: int | None) -> None:
        """Adopt spans recorded in another process under span `parent`."""
        offset = len(self.spans)
        for rec in records:
            rec = dict(rec, id=rec["id"] + offset, op=self.op)
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + offset
            self.spans.append(rec)

    def install(self) -> None:
        """Wrap SPANNED functions wherever trispinor modules bound them."""
        import trispinor

        modules = [trispinor] + [sys.modules[f"trispinor.{m}"] for m in MODULES
                                 if f"trispinor.{m}" in sys.modules]
        for owner, name in SPANNED:
            original = getattr(sys.modules[f"trispinor.{owner}"], name)
            wrapper = self._wrap(owner, name, original)
            for module in modules:
                if vars(module).get(name) is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _wrap(self, owner: str, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span_name, attrs = _span_args(owner, name, bound)
            with self.span(span_name, **attrs):
                return fn(*args, **kwargs)
        return wrapper


def layer_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "trispinor" and path.stem in MODULES:
        return path.stem
    if filename == fractions.__file__:
        return "fractions"
    return None


def profile_metrics(stats: pstats.Stats) -> dict[str, float]:
    """Self time per layer and the CALL_COUNTERS, from a cProfile profile."""
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({counter: 0 for counter in CALL_COUNTERS.values()})
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        layer = layer_of(filename)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += tottime
        counter = CALL_COUNTERS.get((layer, func))
        if counter:
            out[counter] += ncalls
    return out


def span_metrics(spans: list[dict], identities: tuple[str, ...]) -> dict[str, float]:
    """Span time per identity, companion-power time and terms iterated."""
    out: dict[str, float] = {f"identities.{i}.s": 0.0 for i in identities}
    out["sequences.companion_power.s"] = 0.0
    out["sequences.terms"] = 0
    for rec in spans:
        key = rec["name"] + ".s"
        if key in out:
            out[key] += rec["end"] - rec["start"]
        out["sequences.terms"] += rec.get("terms", 0)
    return out
