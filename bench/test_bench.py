"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest
import requests

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from spans import LayerStats, Tracer, covered, percentile, self_times  # noqa: E402
from stub_server import Oracle, StubServer  # noqa: E402
from tooldrift.corpus import load_corpus  # noqa: E402
from tooldrift.mutation import MutationPlan, mutate_registry  # noqa: E402
from tooldrift.react import ActionParseError, StateRecord, parse_action, render_prompt  # noqa: E402
from tooldrift.adapt import execute_action  # noqa: E402


class TestSpanArithmetic:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(0, 2), (1, 3), (5, 6)]) == 4
        assert covered([(0, 10)], lo=2, hi=5) == 3
        assert covered([(0, 1), (1, 2)]) == 2
        assert covered([]) == 0

    def test_self_time_subtracts_children(self):
        spans = [
            (0, None, "root", 0.0, 10.0),
            (1, 0, "a", 1.0, 4.0),
            (2, 1, "b", 2.0, 3.0),
            (3, 0, "c", 5.0, 6.0),
        ]
        assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}

    def test_overlapping_children_count_once(self):
        # Children from two threads under one parent may overlap in time.
        spans = [(0, None, "p", 0.0, 10.0), (1, 0, "x", 1.0, 5.0), (2, 0, "y", 3.0, 7.0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_layer_stats_sums_per_name_and_returns_root_cover(self):
        stats = LayerStats()
        doc = {
            "spans": [[0, None, "r", 0.0, 4.0], [1, 0, "x", 1.0, 2.0], [2, None, "r", 3.0, 6.0]],
            "counts": {"x.bytes": 7},
        }
        assert stats.add(doc) == 6.0
        assert stats.calls == {"r": 2, "x": 1}
        assert stats.self_s["r"] == pytest.approx(6.0)
        assert stats.counts["x.bytes"] == 7


class TestPercentile:
    def test_nearest_rank_with_sample_count(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == (50, 100)
        assert percentile(values, 99) == (99, 100)
        assert percentile(values, 100) == (100, 100)
        assert percentile([3.0], 99) == (3.0, 1)

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == (3, 5)

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)


class TestTracer:
    def test_nested_calls_record_parent_and_errors(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))

        inner = tracer.wrap("inner", lambda x: x + 1)

        def fail():
            raise ValueError("boom")

        failing = tracer.wrap("failing", fail)
        outer = tracer.wrap("outer", lambda: inner(1))

        assert outer() == 2
        with pytest.raises(ValueError):
            failing()
        by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
        assert by_name["inner"][1] == by_name["outer"][0]
        assert by_name["outer"][1] is None
        assert by_name["failing"][1] is None
        assert tracer.counts["failing.errors"] == 1

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: None)
        root = tracer.wrap("root", lambda: [leaf() for _ in range(50)])
        threads = [threading.Thread(target=root) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        roots = {span_id for span_id, _, name, _, _ in tracer.spans if name == "root"}
        leaves = [parent for _, parent, name, _, _ in tracer.spans if name == "leaf"]
        assert len(roots) == 4 and len(leaves) == 200
        assert all(parent in roots for parent in leaves)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def oracle(corpus):
    return Oracle(corpus)


def deprecated_state(corpus):
    """A state one step in: the base LoadDB call hit a deprecation error."""
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=5))
    state = StateRecord(task=corpus.tasks[3], tool_manual=tuple(corpus.manual), demos=tuple(corpus.demos))
    call = corpus.plans[state.task.id].calls[0]
    text = f"Thought: {call.thought}\nAction: {call.tool}\nAction Input: {json.dumps(call.args)}"
    return execute_action(state, parse_action(text), registry).state


class TestStubDeterminism:
    def test_state_is_rebuilt_from_the_last_question(self, corpus, oracle):
        state = deprecated_state(corpus)
        rebuilt = oracle.state_from_prompt(render_prompt(state))
        assert rebuilt.task == state.task
        assert rebuilt.tool_manual == state.tool_manual
        assert [(s.action_name, s.observation) for s in rebuilt.steps] == [
            (s.action_name, s.observation) for s in state.steps
        ]

    def test_same_prompt_same_distinct_choices(self, corpus, oracle):
        prompt = render_prompt(deprecated_state(corpus))
        first = oracle.choices(prompt, 5)
        assert first == Oracle(corpus).choices(prompt, 5)
        assert len(set(first)) == 5
        with pytest.raises(ActionParseError):
            parse_action(first[-1])
        assert len({parse_action(t).action_name for t in first[:4]}) == 2

    def test_unknown_question_is_rejected(self, oracle):
        with pytest.raises(ValueError):
            oracle.choices("Tools:\n[1] X\n\nQuestion: nothing we know", 5)

    def test_http_replies_are_deterministic(self, corpus, oracle):
        server = StubServer(oracle)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/"
            prompt = render_prompt(deprecated_state(corpus))
            payload = {"prompt": prompt, "n": 5, "temperature": 0.7, "stop": ["Observation:"]}
            with requests.Session() as session:
                replies = [session.post(url, json=payload, timeout=10) for _ in range(3)]
                bad = session.post(url, json={"prompt": "?", "n": 5}, timeout=10)
            assert all(r.status_code == 200 for r in replies)
            assert len({r.content for r in replies}) == 1
            assert [c["text"] for c in replies[0].json()["choices"]] == oracle.choices(prompt, 5)
            assert bad.status_code == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
