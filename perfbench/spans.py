"""Span tracing for the traced benchmark run, recorded from outside ``src``.

The tracer wraps the public entry points of each layer (a function or
method attribute replaced for the duration of one traced operation) and
records a span per call: layer, name, start, end, and the span that was
open when it began.  Calls that happen thousands of times per operation
(``read_many``, journal appends, store reads, workload verification) are
aggregated per enclosing span instead of recorded one by one.

Forked processes (fabric shards, engine batch workers) inherit the
wrappers.  A fork hook re-roots the child's span stack under the span
that was open in the parent when it forked; when the child's outermost
span closes, the child writes its spans to the spool directory.  The
child drops a marker file when that span opens and removes it after the
spool write, so a child that dies mid-span leaves its marker behind and
is counted in ``trace.lost_procs`` instead of disappearing silently.

:func:`attribute` turns one operation's spans into self times that sum
to the operation's wall time exactly: every instant of the root span is
split evenly among the spans open at that instant that have no open
child (in any process).
"""

from __future__ import annotations

import contextlib
import glob
import json
import math
import os
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: the layers of the self-time table, in the order they are rendered;
#: ``other`` is the benchmark's own code and anything outside a span
LAYERS = ("experiments", "workloads", "compiler", "gpu", "tensor", "ecc",
          "inject", "journal", "fabric", "certify", "other")


class Tracer:
    """Per-process span recorder with fork-aware spooling."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.enabled = False
        self._restores: List[Callable[[], None]] = []
        self._reset([])
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _reset(self, stack: List[str]) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.leaves: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.stack = stack
        self._base_depth = len(stack)
        self._serial = 0
        self._dumps = 0
        self._marker: Optional[str] = None

    def _after_fork(self) -> None:
        # Spans the parent already closed belong to the parent's spool;
        # the child keeps only the open parent span as its root's parent.
        self._reset(self.stack[-1:])

    @contextlib.contextmanager
    def span(self, layer: str, name: str, **attrs: Any
             ) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict collects extra attributes."""
        if not self.enabled:
            yield attrs
            return
        self._serial += 1
        span_id = f"{self.pid}:{self._serial}"
        parent = self.stack[-1] if self.stack else None
        child_root = (self.pid != self.main_pid
                      and len(self.stack) == self._base_depth)
        if child_root:
            self._marker = os.path.join(
                self.spool_dir, f"open-{self.pid}-{self._dumps}")
            with open(self._marker, "w", encoding="utf-8"):
                pass
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append({"id": span_id, "parent": parent,
                               "layer": layer, "name": name,
                               "start": start, "end": end, "attrs": attrs})
            if child_root:
                self._spool()

    def leaf(self, name: str, seconds: float, amount: float = 0.0) -> None:
        """Aggregate one high-frequency call under the open span."""
        key = (self.stack[-1] if self.stack else None, name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds, amount]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += amount

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a plain counter (no time attached)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def _records(self) -> Dict[str, Any]:
        return {"pid": self.pid, "spans": self.spans,
                "leaves": [[parent, name, *values] for (parent, name), values
                           in self.leaves.items()],
                "counters": self.counters}

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir,
                            f"spans-{self.pid}-{self._dumps}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self._records(), handle)
        os.replace(path + ".tmp", path)
        os.remove(self._marker)
        self._dumps += 1
        self.spans, self.leaves, self.counters = [], {}, {}

    def collect(self) -> Tuple[List[Dict[str, Any]], int]:
        """All processes' records since the last collect, plus lost count.

        Clears the main process's own buffers and the spool directory.
        """
        records = [self._records()]
        self.spans, self.leaves, self.counters = [], {}, {}
        for path in sorted(glob.glob(os.path.join(self.spool_dir,
                                                  "spans-*.json"))):
            with open(path, "r", encoding="utf-8") as handle:
                records.append(json.load(handle))
            os.remove(path)
        lost = glob.glob(os.path.join(self.spool_dir, "open-*"))
        for path in lost:
            os.remove(path)
        return records, len(lost)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, name: str,
              make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` with ``make(original)`` until unpatch."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        setattr(owner, name, make(original))
        self.on_unpatch(lambda: setattr(owner, name, original))

    def on_unpatch(self, restore: Callable[[], None]) -> None:
        """Run ``restore`` when the probes come off."""
        self._restores.append(restore)

    def unpatch(self) -> None:
        """Undo every probe (newest first) and stop recording."""
        while self._restores:
            self._restores.pop()()
        self.enabled = False

    def timed(self, layer: str, name: str,
              annotate: Optional[Callable[..., None]] = None):
        """Wrapper factory: one span per call, ``annotate`` adds attrs."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(layer, name) as attrs:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        annotate(attrs, result, *args, **kwargs)
                    return result
            return wrapper
        return make

    def aggregated(self, name: str,
                   amount: Optional[Callable[..., float]] = None,
                   depth: Optional[List[int]] = None):
        """Wrapper factory for high-frequency leaf calls.

        Calls nested inside another call sharing ``depth`` are not
        counted again (a subclass calling its parent's method, or a
        batched path falling back to the scalar one).
        """
        tracer = self
        depth = [0] if depth is None else depth

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled or depth[0]:
                    return original(*args, **kwargs)
                depth[0] += 1
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                seconds = time.perf_counter() - start
                tracer.leaf(name, seconds,
                            amount(result, *args, **kwargs)
                            if amount is not None else 0.0)
                return result
            return wrapper
        return make


# ---------------------------------------------------------------------------
# self-time attribution

def _merge(records: List[Dict[str, Any]]):
    spans: Dict[str, Dict[str, Any]] = {}
    leaves: Dict[str, List[Tuple[str, float, float, float]]] = {}
    counters: Dict[str, int] = {}
    for record in records:
        for span in record["spans"]:
            spans[span["id"]] = dict(span)
        for parent, name, calls, seconds, amount in record["leaves"]:
            leaves.setdefault(parent, []).append(
                (name, calls, seconds, amount))
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, leaves, counters


def leaf_layer(name: str) -> str:
    """The layer an aggregated leaf name belongs to."""
    layer = name.split(".", 1)[0]
    return {"store": "certify", "service": "certify",
            "merge": "fabric"}.get(layer, layer)


def attribute(records: List[Dict[str, Any]], root_id: str
              ) -> Dict[str, float]:
    """Self seconds per layer of the root span; sums to its duration.

    Every span is clipped to its parent's interval (a span whose parent
    was not recorded hangs off the root).  Each instant of the root is
    shared evenly by the open spans with no open child; a span's share
    is then split between its own layer and the aggregated leaf calls
    made inside it, in proportion to their time.
    """
    spans, leaves, _ = _merge(records)
    for span_id, span in spans.items():
        if span_id != root_id and span["parent"] not in spans:
            span["parent"] = root_id
    depth: Dict[str, int] = {root_id: 0}
    for span_id in spans:
        chain = []
        while span_id not in depth:
            chain.append(span_id)
            span_id = spans[span_id]["parent"]
        for item in reversed(chain):
            depth[item] = depth[spans[item]["parent"]] + 1
    for span_id in sorted(spans, key=depth.get):
        span = spans[span_id]
        if span_id == root_id:
            continue
        parent = spans[span["parent"]]
        span["start"] = min(max(span["start"], parent["start"]),
                            parent["end"])
        span["end"] = min(max(span["end"], span["start"]), parent["end"])

    events = []
    for span_id, span in spans.items():
        events.append((span["start"], 1, depth[span_id], span_id))
        events.append((span["end"], 0, -depth[span_id], span_id))
    events.sort()
    share: Dict[str, float] = dict.fromkeys(spans, 0.0)
    open_children: Dict[str, int] = dict.fromkeys(spans, 0)
    active = set()
    leaf_set = set()
    previous = None
    for moment, kind, _, span_id in events:
        if previous is not None and moment > previous and leaf_set:
            weight = (moment - previous) / len(leaf_set)
            for member in leaf_set:
                share[member] += weight
        previous = moment
        parent = spans[span_id]["parent"] if span_id != root_id else None
        if kind == 1:
            active.add(span_id)
            leaf_set.add(span_id)
            if parent is not None:
                open_children[parent] += 1
                leaf_set.discard(parent)
        else:
            active.discard(span_id)
            leaf_set.discard(span_id)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaf_set.add(parent)

    in_process_children: Dict[str, float] = {}
    for span_id, span in spans.items():
        parent = span["parent"]
        if span_id != root_id and \
                parent.split(":")[0] == span_id.split(":")[0]:
            in_process_children[parent] = \
                in_process_children.get(parent, 0.0) + \
                span["end"] - span["start"]
    result = dict.fromkeys(LAYERS, 0.0)
    for span_id, span in spans.items():
        amount = share[span_id]
        exclusive = span["end"] - span["start"] - \
            in_process_children.get(span_id, 0.0)
        inner = leaves.get(span_id, [])
        leaf_total = sum(seconds for _, _, seconds, _ in inner)
        if exclusive > 0 and leaf_total > 0:
            in_leaves = min(1.0, leaf_total / exclusive)
            for name, _, seconds, _ in inner:
                result[leaf_layer(name)] += \
                    amount * in_leaves * seconds / leaf_total
            amount *= 1.0 - in_leaves
        result[span["layer"] if span["layer"] in result else "other"] += \
            amount
    return result


# ---------------------------------------------------------------------------
# per-layer metrics

def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def layer_metrics(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics averaged over traced operations.

    Each op is ``{"records": [...], "root": id, "wall_s": float,
    "lost": int, "retries": int}``.  Times and counts are per traced
    operation (``trace.lost_procs`` is the run's total); percentiles
    pool every traced operation's samples.
    """
    totals: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    for op in ops:
        spans, leaves, counters = _merge(op["records"])
        for layer, seconds in attribute(op["records"], op["root"]).items():
            add(f"self.{layer}_s", seconds)
        add("trace.wall_s", op["wall_s"])
        add("trace.lost_procs", op["lost"])
        shard_busy = []
        coordinator = 0.0
        runner_s = 0.0
        for span in spans.values():
            name, attrs = span["name"], span["attrs"]
            seconds = span["end"] - span["start"]
            samples.setdefault(name, []).append(seconds)
            add(name + "#s", seconds)
            add(name + "#n", 1)
            for key, value in attrs.items():
                if isinstance(value, (int, float)) and \
                        not isinstance(value, bool):
                    add(f"{name}#{key}", value)
            if name == "fabric.shard":
                shard_busy.append(seconds)
            elif name == "fabric.coordinator":
                coordinator += seconds
            elif name == "inject.runner":
                runner_s += seconds
            elif name == "service.lookup":
                samples.setdefault("lookup." + attrs.get("cache", "?"),
                                   []).append(seconds)
        for entries in leaves.values():
            for name, calls, seconds, amount in entries:
                add(name + "#n", calls)
                add(name + "#s", seconds)
                add(name + "#amount", amount)
        for name, value in counters.items():
            add(name, value)
        if shard_busy:
            add("fabric.shard_busy_max_s", max(shard_busy))
            add("fabric.shard_busy_min_s", min(shard_busy))
            add("fabric.coord_overhead_s", coordinator - max(shard_busy))
            add("inject.engine_overhead_s", sum(shard_busy) - runner_s)
        add("inject.retries", op.get("retries", 0))

    count = max(1, len(ops))

    def per_op(name: str) -> float:
        return totals.get(name, 0.0) / count

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = per_op(f"self.{layer}_s")
    metrics["trace.wall_s"] = per_op("trace.wall_s")
    metrics["trace.ops"] = len(ops)
    metrics["trace.lost_procs"] = totals.get("trace.lost_procs", 0.0)

    launches = per_op("gpu.launch#n")
    metrics.update({
        "gpu.launch_s": per_op("gpu.launch#s"),
        "gpu.launches": launches,
        "gpu.sim_cycles": per_op("gpu.launch#cycles"),
        "gpu.warp_insts": per_op("gpu.launch#issued"),
        "gpu.launch_us_per_warp_inst": ratio(
            per_op("gpu.launch#s") * 1e6, per_op("gpu.launch#issued")),
        "gpu.functional_s": per_op("gpu.functional#s"),
        "gpu.functional_calls": per_op("gpu.functional#n"),
        "compiler.compile_s": per_op("compiler.compile#s"),
        "compiler.compiles": per_op("compiler.compile#n"),
        "experiments.fig12_s": per_op("experiments.fig12#s"),
        "experiments.fig15_s": per_op("experiments.fig15#s"),
        "experiments.fig16_s": per_op("experiments.fig16#s"),
        "experiments.cells": per_op("experiments.cell#n"),
        "experiments.cell_p50_s": percentile(
            samples.get("experiments.cell", []), 0.5),
        "experiments.cell_p90_s": percentile(
            samples.get("experiments.cell", []), 0.9),
        "tensor.run_trials_s": per_op("tensor.run_trials#s"),
        "tensor.calls": per_op("tensor.run_trials#n"),
        "tensor.trials": per_op("tensor.run_trials#trials"),
        "tensor.fallbacks": per_op("tensor.run_trials#fallbacks"),
        "tensor.us_per_trial": ratio(
            per_op("tensor.run_trials#s") * 1e6,
            per_op("tensor.run_trials#trials")),
        "inject.batches": per_op("inject.batch#n"),
        "inject.batch_p50_s": percentile(samples.get("inject.batch", []),
                                         0.5),
        "inject.batch_p90_s": percentile(samples.get("inject.batch", []),
                                         0.9),
        "inject.runner_s": per_op("inject.runner#s"),
        "inject.engine_overhead_s": per_op("inject.engine_overhead_s"),
        "inject.retries": per_op("inject.retries"),
        "inject.trials_drawn": per_op("inject.runner#drawn"),
        "inject.trials_visible": per_op("inject.runner#visible"),
        "inject.not_hit": per_op("inject.runner#not_hit"),
        "inject.visible_ratio": ratio(per_op("inject.runner#visible"),
                                      per_op("inject.runner#drawn")),
        "inject.drawn_per_s": ratio(per_op("inject.runner#drawn"),
                                    per_op("trace.wall_s")),
        "workloads.build_s": per_op("workloads.build#s"),
        "workloads.builds": per_op("workloads.build#n"),
        "workloads.verify_s": per_op("workloads.verify#s"),
        "workloads.verifies": per_op("workloads.verify#n"),
        "ecc.read_many_s": per_op("ecc.read_many#s"),
        "ecc.read_many_calls": per_op("ecc.read_many#n"),
        "ecc.read_many_words": per_op("ecc.read_many#amount"),
        "ecc.read_s": per_op("ecc.read#s"),
        "ecc.reads": per_op("ecc.read#n"),
        "journal.records": per_op("journal.append#n"),
        "journal.bytes": per_op("journal.append#amount"),
        "journal.append_s": per_op("journal.append#s"),
        "fabric.shard_busy_max_s": per_op("fabric.shard_busy_max_s"),
        "fabric.shard_busy_min_s": per_op("fabric.shard_busy_min_s"),
        "fabric.coord_overhead_s": per_op("fabric.coord_overhead_s"),
        "fabric.leases_granted": per_op("fabric.leases_granted"),
        "fabric.leases_stolen": per_op("fabric.leases_stolen"),
        "merge.merge_s": per_op("merge.merge#s"),
        "certify.sweep_s": per_op("certify.sweep#s"),
        "certify.sweeps": per_op("certify.sweep#n"),
        "certify.incremental_s": ratio(
            sum(samples.get("lookup.incremental", [])), count),
        "store.get_s": per_op("store.get#s"),
        "store.gets": per_op("store.get#n"),
        "store.put_s": per_op("store.put#s"),
        "store.puts": per_op("store.put#n"),
        "service.hits": len(samples.get("lookup.hit", [])) / count,
        "service.misses": len(samples.get("lookup.miss", [])) / count,
        "service.incremental": len(samples.get("lookup.incremental",
                                               [])) / count,
        "service.hit_p50_ms": percentile(samples.get("lookup.hit", []),
                                         0.5) * 1e3,
        "service.hit_p99_ms": percentile(samples.get("lookup.hit", []),
                                         0.99) * 1e3,
    })
    return metrics


def render_self_table(metrics: Dict[str, float]) -> str:
    """The self-time table of one traced run, one row per layer."""
    wall = metrics.get("trace.wall_s", 0.0)
    lines = [f"{'layer':<12} {'self s/op':>10} {'share':>7}"]
    for layer in LAYERS:
        seconds = metrics.get(f"self.{layer}_s", 0.0)
        share = seconds / wall * 100 if wall else 0.0
        lines.append(f"{layer:<12} {seconds:>10.4f} {share:>6.1f}%")
    total = sum(metrics.get(f"self.{layer}_s", 0.0) for layer in LAYERS)
    lines.append(f"{'sum':<12} {total:>10.4f} "
                 f"(traced wall_s {wall:.4f} per op, "
                 f"{int(metrics.get('trace.ops', 0))} traced ops)")
    lines.append(f"trace.overhead_frac "
                 f"{metrics.get('trace.overhead_frac', 0.0):+.4f} "
                 f"(median traced / median untraced op wall - 1)")
    return "\n".join(lines)


def overhead_fraction(traced: List[float], untraced: List[float]) -> float:
    """Traced versus untraced median op wall time, as a fraction."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0
