"""Spans around calls into each layer's public functions, and their self times.

The tracer replaces each boundary function with a wrapper in every module
namespace that holds it (and on the class, for methods), so calls from
inside the package are caught as well as calls from the benchmark.  Spans are
kept in memory as ``[name, start, end, parent, item]`` and summarized at the
end; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import sys
import time

from nilqp.exact import ExactMatrix, RowReducer, Subspace
from nilqp.liealg import LieAlgebra

# (metric prefix, owner, attribute).  A string owner names a module.
BOUNDARIES = (
    ("checker.check", "nilqp.checker", "check"),
    ("bigrading.search_bigrading", "nilqp.bigrading", "search_bigrading"),
    ("bigrading.verify_bigrading", "nilqp.bigrading", "verify_bigrading"),
    ("liealg.bracket", LieAlgebra, "bracket"),
    ("liealg.lower_central_series", "nilqp.liealg", "lower_central_series"),
    ("liealg.center", "nilqp.liealg", "center"),
    ("liealg.commutator_ideal", "nilqp.liealg", "commutator_ideal"),
    ("liealg.apply_basis_change", "nilqp.liealg", "apply_basis_change"),
    ("cohomology.ce_differential", "nilqp.cohomology", "ce_differential"),
    ("cohomology.betti_numbers", "nilqp.cohomology", "betti_numbers"),
    ("cohomology.bigraded_cohomology", "nilqp.cohomology", "bigraded_cohomology"),
    ("exact.rank", ExactMatrix, "rank"),
    ("exact.rref", ExactMatrix, "rref"),
    ("exact.from_spanning", Subspace, "from_spanning"),
    ("exact.rowreducer_add", RowReducer, "add"),
    ("kernel.rank_q", "nilqp.kernel", "rank_q"),
    ("kernel.rank_qi", "nilqp.kernel", "rank_qi"),
    ("kernel.rref_q", "nilqp.kernel", "rref_q"),
    ("kernel.rref_qi", "nilqp.kernel", "rref_qi"),
)

# Counts reported as they are, and outcomes reported as a share of the calls.
COUNTS = (
    "kernel.cells",
    "cohomology.ce_differential.cells",
    "cohomology.ce_differential.nonzeros",
    "bigrading.verify_bigrading.lax_calls",
)
OUTCOMES = (("exact.rowreducer_add", "useful"), ("bigrading.search_bigrading", "found"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS + tuple(f"{b}.{o}" for b, o in OUTCOMES), 0)
        self.item = -1
        self._restore: list = []

    def enter(self, name: str | None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- installing the wrappers ---------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every boundary; ``extra_modules`` also get their imported names replaced."""
        namespaces = [
            m for name, m in sys.modules.items() if name == "nilqp" or name.startswith("nilqp.")
        ] + list(extra_modules)
        for name, owner, attr in BOUNDARIES:
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, key, wrapper)
            else:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced


def _count_kernel(tracer, args, kwargs, result):
    tracer.counts["kernel.cells"] += len(args[0]) * args[1]


def _count_differential(tracer, args, kwargs, result):
    # Counting the nonzeros walks the whole grid, so it runs in an unnamed
    # span that keeps it out of the caller's self time.
    idx = tracer.enter(None)
    tracer.counts["cohomology.ce_differential.cells"] += result.rows * result.cols
    tracer.counts["cohomology.ce_differential.nonzeros"] += sum(
        1 for row in result.entries for x in row if x
    )
    tracer.exit(idx)


def _count_rowreducer(tracer, args, kwargs, result):
    tracer.counts["exact.rowreducer_add.useful"] += bool(result)


def _count_verify(tracer, args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "strict")
    tracer.counts["bigrading.verify_bigrading.lax_calls"] += mode == "lax"


def _count_search(tracer, args, kwargs, result):
    tracer.counts["bigrading.search_bigrading.found"] += result.found


_COUNTERS = {
    "kernel.rank_q": _count_kernel,
    "kernel.rank_qi": _count_kernel,
    "kernel.rref_q": _count_kernel,
    "kernel.rref_qi": _count_kernel,
    "cohomology.ce_differential": _count_differential,
    "exact.rowreducer_add": _count_rowreducer,
    "bigrading.verify_bigrading": _count_verify,
    "bigrading.search_bigrading": _count_search,
}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """{name: (calls, self seconds)}; a span's self time excludes its children.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it.  Unnamed spans count as children but are not reported.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        if name is None:
            continue
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``<boundary>.calls``, ``<boundary>.self_s`` and the counts."""
    summary = self_times(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in BOUNDARIES:
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counts
    for name in COUNTS:
        out[name] = (c[name], "count")
    for boundary, outcome in OUTCOMES:
        calls = summary.get(boundary, (0,))[0]
        out[f"{boundary}.{outcome}_ratio"] = (_ratio(c[f"{boundary}.{outcome}"], calls), "ratio")
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
