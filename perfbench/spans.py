"""In-memory span tracing of the library's public functions.

The library has no tracing of its own, so the benchmark wraps module
attributes from outside: every call made while the tracer is active records
a span (name, start, end, parent) and, for some calls, a work count.  A
span's self time is its duration minus the durations of its direct children;
children of one span never overlap because the library is single-threaded.

Wrapping happens in the namespace the callers look the name up in.
`syncprim.automaton` binds its kernels with `from ._kernels import ...`, so
the kernels are wrapped there; wrapping `syncprim._kernels` alone would
record nothing.  `classify` reaches `automaton`, `group` and `perm` through
module attributes (`am.minimal_syn_dfa`, `gr.is_primitive`, ...), so those
are wrapped on their own modules.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

KERNELS = ("subset_reach", "moore_refine", "reset_word_bfs")
AUTOMATON_FUNCS = (
    "minimal_syn_dfa",
    "build_subset_automaton",
    "all_nonsingleton_distinguishable_witness",
    "different_cardinality_reachable_witness",
    "all_2subsets_distinguishable",
    "disjoint_2subsets_distinguishable",
    "shortest_reset_word",
)
PREDICATES = (
    "sync_maximal",
    "condition_2",
    "condition_3",
    "condition_4",
    "condition_5",
    "condition_6",
    "strongly_sync_maximal",
)
GROUP_FUNCS = ("is_primitive", "is_transitive", "is_k_transitive")
FAMILY_FUNCS = (
    "enumerate_idempotents_rank_n_minus_1",
    "enumerate_rank_n_minus_1",
    "enumerate_maps_of_rank",
)

MAPS_CHECKED = "automaton.build_group_automaton.calls"

# Every span the instrumentation can record.  The benchmark's tests require
# each one to record at least one call on a small run of the workloads, so a
# renamed library function fails loudly instead of reading zero.
SPAN_NAMES = (
    tuple(f"kernels.{k}" for k in KERNELS)
    + tuple(f"automaton.{f}" for f in AUTOMATON_FUNCS)
    + ("classify.classify", "classify.condition_1")
    + tuple(f"classify.{p}" for p in PREDICATES)
    + ("perm.family",)
    + tuple(f"group.{f}" for f in GROUP_FUNCS)
    + ("cli.emit",)
)

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {}
for _k in KERNELS:
    PER_LAYER[f"kernels.{_k}.calls"] = ("count", "lower")
    PER_LAYER[f"kernels.{_k}.self_s"] = ("s", "lower")
PER_LAYER["kernels.subset_reach.states"] = ("count", "lower")
PER_LAYER["kernels.moore_refine.rows"] = ("count", "lower")
PER_LAYER["kernels.moore_refine.classes"] = ("count", "lower")
for _f in AUTOMATON_FUNCS:
    PER_LAYER[f"automaton.{_f}.calls"] = ("count", "lower")
    PER_LAYER[f"automaton.{_f}.self_s"] = ("s", "lower")
PER_LAYER[MAPS_CHECKED] = ("count", "lower")
for _p in PREDICATES:
    PER_LAYER[f"classify.{_p}.s"] = ("s", "lower")
    PER_LAYER[f"classify.{_p}.scanned"] = ("count", "higher")
    PER_LAYER[f"classify.{_p}.checked"] = ("count", "lower")
    PER_LAYER[f"classify.{_p}.checked_per_scanned"] = ("ratio", "lower")
PER_LAYER["classify.self_s"] = ("s", "lower")
PER_LAYER["perm.family.maps"] = ("count", "lower")
PER_LAYER["perm.family.self_s"] = ("s", "lower")
PER_LAYER["group.calls"] = ("count", "lower")
PER_LAYER["group.self_s"] = ("s", "lower")
PER_LAYER["cli.emit.self_s"] = ("s", "lower")
PER_LAYER["trace.wall_s"] = ("s", "lower")
PER_LAYER["trace.accounted_frac"] = ("ratio", "higher")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")


class Tracer:
    """Spans and counters of the calls made while `active` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds, total seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start - inner
            row[2] += end - start
        return out


def instrument(lib, tracer: Tracer):
    """Wrap the library's public functions; returns a callable that undoes it."""
    originals = []

    def patch(module, attr, make):
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def timed(name, count=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                label = name(args, kwargs) if callable(name) else name
                before = tracer.counts[MAPS_CHECKED]
                index = tracer.begin(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if count is not None:
                    count(label, args, result, tracer.counts[MAPS_CHECKED] - before)
                return result

            return wrapper

        return make

    counts = tracer.counts

    def count_states(label, args, result, _):
        counts[f"{label}.states"] += len(result[0])

    def count_refine(label, args, result, _):
        counts[f"{label}.rows"] += args[0].shape[0]
        counts[f"{label}.classes"] += int(result.max()) + 1

    def count_predicate(label, args, result, checked):
        counts[f"{label}.scanned"] += result.scanned
        counts[f"{label}.checked"] += checked

    def condition_name(args, kwargs):
        index = args[1] if len(args) > 1 else kwargs["index"]
        return f"classify.condition_{index}"

    def counted(fn):
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[MAPS_CHECKED] += 1
            return fn(*args, **kwargs)

        return wrapper

    def family(fn):
        def wrapper(*args, **kwargs):
            maps = fn(*args, **kwargs)
            while True:
                index = tracer.begin("perm.family") if tracer.active else None
                try:
                    f = next(maps)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        tracer.end(index)
                if index is not None:
                    counts["perm.family.maps"] += 1
                yield f

        return wrapper

    am, cl = lib.automaton, lib.classify
    patch(am, "subset_reach", timed("kernels.subset_reach", count_states))
    patch(am, "moore_refine", timed("kernels.moore_refine", count_refine))
    patch(am, "reset_word_bfs", timed("kernels.reset_word_bfs"))
    for f in AUTOMATON_FUNCS:
        patch(am, f, timed(f"automaton.{f}"))
    patch(am, "build_group_automaton", counted)
    patch(cl, "classify", timed("classify.classify"))
    patch(cl, "is_sync_maximal", timed("classify.sync_maximal", count_predicate))
    patch(cl, "condition", timed(condition_name, count_predicate))
    patch(cl, "is_strongly_sync_maximal", timed("classify.strongly_sync_maximal", count_predicate))
    for f in FAMILY_FUNCS:
        patch(lib.perm, f, family)
    for f in GROUP_FUNCS:
        patch(lib.group, f, timed(f"group.{f}"))

    def undo():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return undo


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded since the last
    reset, over a traced pass that took wall_s seconds."""
    totals = tracer.totals()
    counts = tracer.counts

    def self_sum(prefix):
        return sum((row[1] for name, row in totals.items() if name.startswith(prefix)), 0.0)

    out: dict[str, float] = {}
    for name in [f"kernels.{k}" for k in KERNELS] + [f"automaton.{f}" for f in AUTOMATON_FUNCS]:
        row = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = row[0]
        out[f"{name}.self_s"] = row[1]
    for key in ("kernels.subset_reach.states", "kernels.moore_refine.rows",
                "kernels.moore_refine.classes", MAPS_CHECKED):
        out[key] = counts[key]
    for p in PREDICATES:
        name = f"classify.{p}"
        scanned, checked = counts[f"{name}.scanned"], counts[f"{name}.checked"]
        out[f"{name}.s"] = totals.get(name, (0, 0.0, 0.0))[2]
        out[f"{name}.scanned"] = scanned
        out[f"{name}.checked"] = checked
        out[f"{name}.checked_per_scanned"] = checked / scanned if scanned else 0.0
    out["classify.self_s"] = self_sum("classify.")
    out["perm.family.maps"] = counts["perm.family.maps"]
    out["perm.family.self_s"] = self_sum("perm.family")
    out["group.calls"] = sum(row[0] for name, row in totals.items() if name.startswith("group."))
    out["group.self_s"] = self_sum("group.")
    out["cli.emit.self_s"] = self_sum("cli.emit")
    out["trace.wall_s"] = wall_s
    out["trace.accounted_frac"] = sum(row[1] for row in totals.values()) / wall_s
    return out
