"""Span tracing for the tooldrift CLI, from outside the package.

``install`` replaces the public functions of each module with timing wrappers,
at the name its caller looks up (``tooldrift.mcts.parse_action``,
``tooldrift.adapt.invoke``, ...), so no code under ``src/`` changes. A span is
``(id, parent, name, start, end)``; spans live in memory and are written once,
when the traced process ends. Counts (errors, bytes, candidates) are recorded
at the same boundaries.

The rest of the module is the arithmetic that turns spans into per-layer
metrics: self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording a span per call, parented to the caller's
        open span on the same thread; exceptions count as ``<name>.errors``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(f"{name}.errors")
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(tracer, name, result)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        doc = {"spans": self.spans, "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _count_bytes(tracer: Tracer, name: str, text: str) -> None:
    tracer.count(f"{name}.bytes", len(text.encode("utf-8")))


def _count_observation(tracer: Tracer, name: str, observation) -> None:
    if observation.kind.endswith("_error"):
        tracer.count(f"{name}.{observation.kind}s")


def _count_candidates(tracer: Tracer, name: str, texts: list[str]) -> None:
    tracer.count(f"{name}.candidates", len(texts))
    tracer.count(f"{name}.distinct_candidates", len(set(texts)))


def _count_nodes(tracer: Tracer, name: str, tree) -> None:
    tracer.count("mcts.nodes", len(tree.nodes))


def _count_records(tracer: Tracer, name: str, records: int) -> None:
    tracer.count("trajectory.records", records)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of an imported ``tooldrift``."""
    import requests

    from tooldrift import adapt, cli, mcts, policy, trajectory

    patches = [
        (cli, "load_corpus", "corpus.load_corpus", None),
        (cli, "mutate_registry", "mutation.mutate_registry", None),
        (cli, "verify_mutation", "mutation.verify_mutation", None),
        (cli, "run_search", "mcts.run_search", _count_nodes),
        (cli, "tree_to_json", "mcts.tree_to_json", _count_bytes),
        (cli, "tree_from_json", "mcts.tree_from_json", None),
        (cli, "collect_from_trees", "trajectory.collect_from_trees", None),
        (cli, "export_sft", "trajectory.export_sft", _count_records),
        (mcts, "select_leaf", "mcts.select_leaf", None),
        (mcts, "expand", "mcts.expand", None),
        (mcts, "simulate_cached", "mcts.simulate_cached", None),
        (mcts, "backpropagate", "mcts.backpropagate", None),
        (mcts, "parse_action", "react.parse_action", None),
        (mcts, "execute_action", "adapt.execute_action", None),
        (mcts, "reflection_gate", "adapt.reflection_gate", None),
        (adapt, "invoke", "env.invoke", _count_observation),
        (policy, "render_prompt", "react.render_prompt", _count_bytes),
        (trajectory, "render_prompt", "react.render_prompt", _count_bytes),
        (policy.ScriptedPolicy, "propose", "policy.propose", _count_candidates),
        (policy.RemotePolicy, "propose", "policy.propose", _count_candidates),
        (requests.Session, "post", "policy.http_post", None),
    ]
    for owner, attr, name, on_result in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, _, start, end in spans
    }


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples it rests on."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1], len(ordered)


class LayerStats:
    """Calls, self time and durations per span name, over many trace files."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()

    def add(self, doc: dict) -> float:
        """Fold in one process's trace; returns the time its root spans cover."""
        spans = [tuple(span) for span in doc["spans"]]
        own = self_times(spans)
        for span_id, _, name, start, end in spans:
            self.calls[name] += 1
            self.self_s[name] += own[span_id]
            self.durations[name].append(end - start)
        self.counts.update(doc["counts"])
        return covered((start, end) for _, parent, _, start, end in spans if parent is None)
