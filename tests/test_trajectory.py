from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tooldrift.adapt import UPDATE_TOOL_OK_TEXT, execute_action
from tooldrift.env import evaluate, invoke
from tooldrift.mcts import SearchConfig, run_search, step_reward
from tooldrift.mutation import MutationPlan, draw, mutate_registry
from tooldrift.policy import ScriptedAdaptivePolicy
from tooldrift.react import ActionRecord, StateRecord, render_prompt
from tooldrift.trajectory import (
    collect_from_trees,
    export_sft,
    load_sft,
    parse_target,
    render_target,
)


def path_steps(tree, record):
    """The record's path actions as the SFT text carries them: without kind."""
    return tuple(replace(a, kind=None) for a in tree.actions(record.leaf_id))


@pytest.fixture(scope="module")
def adaptive_tree(corpus, mutated_registry):
    return run_search(
        corpus.task("coffee-hard-4"),
        mutated_registry,
        ScriptedAdaptivePolicy(corpus),
        SearchConfig(max_simulations=30, rng_seed=7),
        corpus.manual,
        corpus.demos,
        tree_id="coffee-hard-4__t0",
    )


@pytest.fixture(scope="module")
def failed_tree(corpus, base_registry):
    """Reflection disabled + a policy that fumbles its first call: every path
    dies at an invocation-error terminal."""
    from tooldrift.policy import ScriptedSemiAdaptivePolicy

    return run_search(
        corpus.task("coffee-easy-1"),
        base_registry,
        ScriptedSemiAdaptivePolicy(corpus),
        SearchConfig(max_simulations=10, rng_seed=7, no_self_reflection=True),
        corpus.manual,
        corpus.demos,
        tree_id="coffee-easy-1__t0",
    )


class TestExtract:
    def test_tree_without_success_yields_nothing(self, failed_tree):
        assert collect_from_trees([failed_tree]) == []

    def test_subsample_is_capped_and_stable(self, adaptive_tree):
        assert len(adaptive_tree.successful_leaves()) > 4
        first = collect_from_trees([adaptive_tree], max_per_task=4, seed=5)
        second = collect_from_trees([adaptive_tree], max_per_task=4, seed=5)
        assert len(first) == 4
        assert first == second
        everything = collect_from_trees([adaptive_tree], max_per_task=10**9, seed=5)
        assert len(everything) == len(adaptive_tree.successful_leaves())

    def test_only_positive_rewards_exported(self, adaptive_tree):
        for record in collect_from_trees([adaptive_tree], max_per_task=10**9):
            assert record.reward == 1
            assert parse_target(record.target)[-1].action_name == "Finish"

    def test_replay_reproduces_observations(self, corpus, mutated_registry, adaptive_tree):
        records = collect_from_trees([adaptive_tree], max_per_task=4, seed=0)
        assert records
        for record in records:
            task = corpus.task(record.task_id)
            for step in parse_target(record.target):
                if step.action_name == "Finish":
                    observed = evaluate(task, step.action_input["answer"]).text
                elif step.action_name == "UpdateTool":
                    observed = UPDATE_TOOL_OK_TEXT
                else:
                    observed = invoke(mutated_registry, step.action_name, step.action_input).text
                assert observed == step.observation

    def test_records_replay_from_the_root_to_plus_one(self, corpus):
        """The seed-7 mutated_in pipeline's records, one tree per task as
        ``search`` seeds them: each target, run from the root state through
        ``execute_action`` on the same registry, reproduces every recorded
        observation and ends in a +1 Finish."""
        registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
        policy = ScriptedAdaptivePolicy(corpus)
        trees = [
            run_search(
                task, registry, policy, SearchConfig(rng_seed=draw(7, task.id, "0")),
                corpus.manual, corpus.demos, tree_id=f"{task.id}__t0",
            )
            for task in corpus.tasks
        ]
        records = collect_from_trees(trees, seed=7)
        assert len(records) == 4 * len(corpus.tasks)
        for record in records:
            state = StateRecord(corpus.task(record.task_id), tuple(corpus.manual), tuple(corpus.demos))
            assert render_prompt(state) == record.input
            steps = parse_target(record.target)
            for index, step in enumerate(steps):
                outcome = execute_action(state, replace(step, observation=None), registry)
                assert outcome.step.observation == step.observation
                assert (step_reward(outcome.step, False) is not None) == (index == len(steps) - 1)
                state = outcome.state
            assert step_reward(outcome.step, False) == 1

    def test_collect_from_trees_caps_per_task(self, corpus, mutated_registry):
        config = SearchConfig(max_simulations=12, rng_seed=3)
        trees = [
            run_search(
                corpus.task("coffee-easy-2"), mutated_registry, ScriptedAdaptivePolicy(corpus),
                config, corpus.manual, corpus.demos, tree_id=f"coffee-easy-2__t{i}",
            )
            for i in range(3)
        ]
        collected = collect_from_trees(trees, max_per_task=4, seed=1)
        assert len(collected) == 4
        assert {r.task_id for r in collected} == {"coffee-easy-2"}
        assert len({(r.tree_id, r.leaf_id) for r in collected}) == 4


class TestExport:
    def test_record_count_matches_lines(self, adaptive_tree, tmp_path):
        records = collect_from_trees([adaptive_tree], max_per_task=4, seed=0)
        out = tmp_path / "sft.jsonl"
        count = export_sft(records, out)
        assert count == len(records) == len(out.read_text().splitlines())

    def test_round_trip(self, adaptive_tree, tmp_path):
        records = collect_from_trees([adaptive_tree], max_per_task=4, seed=0)
        out = tmp_path / "sft.jsonl"
        export_sft(records, out)
        loaded = load_sft(out)
        assert len(loaded) == len(records)
        for doc, record in zip(loaded, records):
            assert doc["task_id"] == record.task_id
            assert tuple(parse_target(doc["target"])) == path_steps(adaptive_tree, record)
            assert doc["input"] == record.input

    def test_input_contains_base_manual_only(self, corpus, adaptive_tree):
        records = collect_from_trees([adaptive_tree], max_per_task=10**9)
        with_updates = [
            r for r in records if any(s.action_name == "UpdateTool" for s in parse_target(r.target))
        ]
        assert with_updates
        root_render = render_prompt(adaptive_tree.state(adaptive_tree.root_id))
        for record in with_updates:
            assert record.input == root_render
            for entry in corpus.manual:
                assert entry in record.input
            assert "updated version of" not in record.input
            assert "updated version of" in record.target

    def test_deterministic_bytes(self, adaptive_tree, tmp_path):
        records = collect_from_trees([adaptive_tree], max_per_task=4, seed=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_sft(records, a)
        export_sft(collect_from_trees([adaptive_tree], max_per_task=4, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises(self, adaptive_tree, tmp_path):
        records = collect_from_trees([adaptive_tree], max_per_task=1)
        with pytest.raises(OSError):
            export_sft(records, tmp_path / "missing_dir" / "sft.jsonl")

    def test_sft_record_shape(self, adaptive_tree):
        record = collect_from_trees([adaptive_tree], max_per_task=1)[0]
        assert record.registry_generation == "mutated-11"
        assert record.reward == 1
        assert record.target.startswith("Thought: ")
        assert record.target == render_target(path_steps(adaptive_tree, record))


_words = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=20).filter(
    lambda s: s.strip() == s
)
# A thought may itself hold "\n\nThought: ", as when a policy opens each step
# with a thought of its own.
_thoughts = st.lists(_words, min_size=1, max_size=3).map("\n\nThought: ".join)
_steps = st.lists(
    st.builds(
        ActionRecord,
        thought=_thoughts,
        action_name=st.sampled_from(["LoadDB", "Filter_DB", "Finish", "UpdateTool"]),
        action_input=st.dictionaries(_words, _words, max_size=2),
        observation=_words,
    ),
    min_size=1,
    max_size=4,
)


@given(steps=_steps)
@example(steps=[ActionRecord(
    thought="Let me think.\n\nThought: load", action_name="LoadDB", action_input={"DBName": "coffee"}, observation="ok"
)] * 2)
def test_parse_target_inverts_render_target(steps):
    assert parse_target(render_target(tuple(steps))) == steps


class _ThinksFirst:
    """The adaptive policy with each step opened by a thought of its own."""

    def __init__(self, corpus):
        self.inner = ScriptedAdaptivePolicy(corpus)

    def propose(self, state, k):
        return [f"Thought: Let me think.\n\n{text}" for text in self.inner.propose(state, k)]


def test_records_of_a_policy_that_thinks_first_parse_back(corpus, mutated_registry):
    tree = run_search(
        corpus.task("coffee-hard-4"), mutated_registry, _ThinksFirst(corpus),
        SearchConfig(max_simulations=30, rng_seed=7), corpus.manual, corpus.demos,
    )
    records = collect_from_trees([tree], max_per_task=4)
    assert records
    for record in records:
        steps = tuple(parse_target(record.target))
        assert steps == path_steps(tree, record)
        assert all(step.thought.startswith("Let me think.\n\nThought: ") for step in steps)
