from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tooldrift import mcts
from tooldrift.env import INVOCATION_ERROR_TEXT, TaskInstance
from tooldrift.mcts import (
    FAILED_ACTION_NAME,
    SearchConfig,
    SearchTree,
    TreeNode,
    backpropagate,
    best_child,
    expand,
    puct_score,
    run_search,
    select_leaf,
    simulate_cached,
    tree_from_json,
    tree_to_json,
)
from tooldrift.mutation import MutationPlan, mutate_registry
from tooldrift.policy import PolicyConfig, PolicyError, ScriptedAdaptivePolicy, ScriptedRigidPolicy, build_policy
from tooldrift.react import ActionRecord, StateRecord


def dummy_state() -> StateRecord:
    task = TaskInstance(id="t", description="q", gold_answer="1", dataset="coffee", difficulty="easy")
    return StateRecord(task=task, tool_manual=("Tool[x]: t.",))


def bare_tree(config: SearchConfig | None = None) -> SearchTree:
    root = dummy_state()
    tree = SearchTree(task=root.task, config=config or SearchConfig(), manual=root.tool_manual)
    tree.add_node(parent=None)
    return tree


def add_child(tree, parent=0, q=0.0, n=0, prior=0.2, cached=False, terminal=False, observation="fine"):
    action = ActionRecord(thought="x", action_name="Tool", action_input={}, observation=observation)
    node = tree.add_node(
        parent,
        action=action,
        prior=prior,
        cached=cached,
        terminal=terminal,
        reward=-1 if terminal else None,
    )
    node.q_value, node.visit_count = q, n
    return node


class TestPuctScore:
    def test_reference_value(self):
        child = TreeNode(id=1, parent=0, q_value=0.5, visit_count=1, prior=0.2)
        assert puct_score(8, child, 1.25) == pytest.approx(0.8535533906, abs=1e-9)

    def test_zero_parent_visits_reduces_to_q(self):
        child = TreeNode(id=1, parent=0, q_value=0.37, visit_count=2, prior=0.9)
        assert puct_score(0, child, 5.0) == 0.37

    def test_fresh_child_pure_exploration(self):
        child = TreeNode(id=1, parent=0, q_value=0.0, visit_count=0, prior=1.0)
        assert puct_score(4, child, 1.0) == pytest.approx(2.0, abs=1e-12)


class TestSelectLeaf:
    def test_fresh_tree_returns_root(self):
        tree = bare_tree()
        assert select_leaf(tree) == 0

    def test_prefers_unvisited_sibling(self):
        tree = bare_tree()
        tree.node(0).visit_count = 3
        first = add_child(tree, q=0.4, n=0, prior=0.5)
        second = add_child(tree, q=0.4, n=3, prior=0.5)
        chosen = select_leaf(tree)
        # exhaustive oracle over the two children
        scores = {
            c: puct_score(tree.node(0).visit_count, tree.node(c), tree.config.c_puct)
            for c in (first.id, second.id)
        }
        assert scores[first.id] > scores[second.id]
        assert chosen == first.id

    def test_tie_breaks_to_smallest_index(self):
        tree = bare_tree()
        tree.node(0).visit_count = 5
        a = add_child(tree, q=0.1, n=1, prior=0.5)
        b = add_child(tree, q=0.1, n=1, prior=0.5)
        assert select_leaf(tree) == a.id

    def test_cached_best_child_is_skipped(self):
        tree = bare_tree()
        tree.node(0).visit_count = 4
        hidden = add_child(tree, q=1.0, n=0, prior=0.9, cached=True)
        visible = add_child(tree, q=0.0, n=2, prior=0.1)
        assert select_leaf(tree) == visible.id

    def test_exhausted_tree_returns_none(self):
        tree = bare_tree()
        tree.node(0).terminal, tree.node(0).reward = True, -1
        assert select_leaf(tree) is None

    def test_walks_past_expanded_level(self):
        tree = bare_tree()
        mid = add_child(tree, q=0.9, n=1, prior=1.0)
        deep = add_child(tree, parent=mid.id, q=0.0, n=0, prior=1.0)
        assert select_leaf(tree) == deep.id

    def test_leaf_at_max_depth_is_never_returned(self):
        tree = bare_tree(SearchConfig(max_depth=2))
        tree.node(0).visit_count = 4
        mid = add_child(tree, q=0.9, n=1, prior=0.5)
        deep = add_child(tree, parent=mid.id, prior=1.0)
        other = add_child(tree, q=-0.5, n=1, prior=0.5)
        assert deep.depth == 2
        assert select_leaf(tree) == other.id
        other.terminal, other.reward = True, -1
        assert select_leaf(tree) is None

    def test_subtree_with_only_terminal_children_is_passed_over(self):
        tree = bare_tree()
        tree.node(0).visit_count = 4
        mid = add_child(tree, q=0.9, n=2, prior=0.5)
        for _ in range(2):
            add_child(tree, parent=mid.id, prior=0.5, terminal=True)
        other = add_child(tree, q=-0.5, n=1, prior=0.5)
        assert best_child(tree, 0, tree.config.c_puct) == mid.id
        assert select_leaf(tree) == other.id


class TestBestChild:
    def test_matches_exhaustive_argmax(self):
        rng = random.Random(1)
        for _ in range(300):
            tree = bare_tree()
            parent = tree.node(0)
            parent.visit_count = rng.randint(0, 50)
            m = rng.randint(1, 8)
            for _ in range(m):
                add_child(
                    tree,
                    q=rng.choice([-1.0, -0.5, 0.0, 0.25, 0.25, 1.0]),
                    n=rng.randint(0, 9),
                    prior=rng.choice([0.1, 0.2, 0.2, 0.5]),
                )
            got = best_child(tree, 0, 1.25)
            best, best_score = None, -math.inf
            for cid in parent.children:
                s = puct_score(parent.visit_count, tree.node(cid), 1.25)
                if s > best_score:
                    best, best_score = cid, s
            assert got == best


class TestBackpropagate:
    def test_first_update_sets_q_to_reward(self):
        tree = bare_tree()
        child = add_child(tree)
        backpropagate(tree, child.id, 1)
        assert (child.q_value, child.visit_count) == (1.0, 1)
        assert (tree.node(0).q_value, tree.node(0).visit_count) == (1.0, 1)

    def test_reference_second_update(self):
        tree = bare_tree()
        child = add_child(tree, q=1.0, n=1)
        tree.node(0).q_value, tree.node(0).visit_count = 1.0, 1
        backpropagate(tree, child.id, -1)
        assert (child.q_value, child.visit_count) == (0.0, 2)

    @given(rewards=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_q_is_running_mean(self, rewards):
        tree = bare_tree()
        child = add_child(tree)
        for r in rewards:
            backpropagate(tree, child.id, r)
        mean = sum(rewards) / len(rewards)
        assert abs(child.q_value - mean) <= 1e-12
        assert abs(tree.node(0).q_value - mean) <= 1e-12
        assert child.visit_count == len(rewards)


@pytest.fixture()
def search_setup(corpus, mutated_registry):
    config = SearchConfig(max_simulations=30, rng_seed=7)
    return corpus, mutated_registry, config


class TestExpand:
    def test_uniform_priors_and_arity(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1")
        new_ids = expand(tree, 0, ScriptedAdaptivePolicy(corpus), base_registry)
        assert len(new_ids) == 5
        assert all(tree.node(i).prior == pytest.approx(0.2) for i in new_ids)
        assert sum(tree.node(i).prior for i in new_ids) == pytest.approx(1.0)
        assert all(tree.node(i).depth == 1 for i in new_ids)

    def test_cache_reuse_skips_policy(self, corpus, base_registry):
        policy = ScriptedAdaptivePolicy(corpus)
        tree = _root_tree(corpus, "coffee-easy-1")
        expand(tree, 0, policy, base_registry)
        rng = random.Random(0)
        child = tree.node(tree.node(0).children[0])
        simulate_cached(tree, child.id, policy, base_registry, rng)
        grandchildren = list(child.children)
        assert grandchildren and all(tree.node(g).cached for g in grandchildren)
        calls_before = tree.stats["policy_calls"]
        reused = expand(tree, child.id, policy, base_registry)
        assert reused == grandchildren
        assert tree.stats["policy_calls"] == calls_before
        assert all(not tree.node(g).cached for g in grandchildren)

    def test_deprecation_leaf_expands_to_successor_invocation(self, search_setup):
        corpus, registry, _ = search_setup
        policy = ScriptedAdaptivePolicy(corpus)
        tree = _root_tree(corpus, "coffee-easy-1")
        first_level = expand(tree, 0, policy, registry)
        leaf = tree.node(first_level[0])
        assert leaf.action.kind == "deprecation_error"
        children = expand(tree, leaf.id, policy, registry)
        successor = registry.deprecated["LoadDB"].successor
        child = tree.node(children[0])
        assert child.action.action_name == successor
        assert child.action.kind == "response"

    def test_unparseable_candidates_become_failed_terminals(self, corpus, base_registry):
        class GibberishPolicy:
            def propose(self, state, k):
                return ["no labels here"] * k

        tree = _root_tree(corpus, "coffee-easy-1")
        ids = expand(tree, 0, GibberishPolicy(), base_registry)
        assert len(ids) == 5
        for nid in ids:
            node = tree.node(nid)
            assert node.terminal and node.reward == -1
            assert node.action.action_name == FAILED_ACTION_NAME

    def test_each_distinct_candidate_is_parsed_and_executed_once(self, corpus, base_registry, monkeypatch):
        load = 'Thought: t\nAction: LoadDB\nAction Input: {"DBName": "coffee"}'
        finish = 'Thought: t\nAction: Finish\nAction Input: {"answer": "x"}'

        class MixedPolicy:
            def propose(self, state, k):
                return [load, finish, load, "no labels here", finish]

        executed = []
        execute = mcts.execute_action

        def counting(state, record, *rest):
            executed.append(record.action_name)
            return execute(state, record, *rest)

        monkeypatch.setattr(mcts, "execute_action", counting)
        tree = _root_tree(corpus, "coffee-easy-1")
        ids = expand(tree, 0, MixedPolicy(), base_registry)
        nodes = [tree.node(i) for i in ids]
        assert executed == ["LoadDB", "Finish"]
        assert [n.action.action_name for n in nodes] == ["LoadDB", "Finish", "LoadDB", FAILED_ACTION_NAME, "Finish"]
        assert len(set(ids)) == 5 and all(n.prior == pytest.approx(0.2) for n in nodes)
        assert nodes[0].action is nodes[2].action and nodes[1].action is nodes[4].action
        assert (nodes[1].terminal, nodes[1].reward) == (nodes[4].terminal, nodes[4].reward) == (True, -1)
        assert nodes[0].action is not nodes[1].action and not nodes[0].terminal
        assert nodes[3].terminal and nodes[3].failure

    def test_gate_marks_invocation_error_leaf_terminal(self, corpus, base_registry):
        config = SearchConfig(no_self_reflection=True)
        tree = _root_tree(corpus, "coffee-easy-1", config)
        bad = ActionRecord(
            thought="x",
            action_name="LoadDB",
            action_input={"Nope": "coffee"},
            observation=INVOCATION_ERROR_TEXT,
            kind="invocation_error",
        )
        leaf = tree.add_node(0, action=bad, prior=1.0)
        assert expand(tree, leaf.id, ScriptedAdaptivePolicy(corpus), base_registry) == []
        assert leaf.terminal and leaf.reward == -1

    def test_policy_failure_marks_leaf_failed(self, corpus, base_registry):
        class FailingPolicy:
            def propose(self, state, k):
                raise PolicyError("connection refused")

        tree = _root_tree(corpus, "coffee-easy-1")
        assert expand(tree, 0, FailingPolicy(), base_registry) == []
        root = tree.node(0)
        assert root.terminal and root.reward == -1
        assert "connection refused" in root.failure


def _root_tree(corpus, task_id, config=None):
    tree = SearchTree(
        task=corpus.task(task_id), config=config or SearchConfig(),
        manual=tuple(corpus.manual), demos=tuple(corpus.demos),
    )
    tree.add_node(parent=None)
    return tree


class TestSimulateCached:
    def test_one_finish_step_away_scores_plus_one(self, corpus, base_registry):
        from tooldrift.adapt import execute_action

        tree = _root_tree(corpus, "coffee-easy-1")
        state = tree.state(tree.root_id)
        for call in corpus.plans[tree.task.id].calls:
            record = ActionRecord(thought=call.thought, action_name=call.tool, action_input=call.args)
            outcome = execute_action(state, record, base_registry)
            state = outcome.state
            leaf = tree.add_node(len(tree.nodes) - 1, action=outcome.step)
        assert tree.state(leaf.id) == state
        reward = simulate_cached(tree, leaf.id, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(1))
        assert reward == 1

    def test_repeat_simulation_is_free_and_identical(self, corpus, base_registry):
        policy = ScriptedAdaptivePolicy(corpus)
        tree = _root_tree(corpus, "coffee-easy-2")
        first = simulate_cached(tree, 0, policy, base_registry, random.Random(3))
        calls = tree.stats["policy_calls"]
        second = simulate_cached(tree, 0, policy, base_registry, random.Random(3))
        assert first == second == 1
        assert tree.stats["policy_calls"] == calls

    def test_depth_cutoff_counts_as_failure(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1", SearchConfig(max_depth=15))
        tree.node(0).depth = 15
        reward = simulate_cached(tree, 0, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(0))
        assert reward == -1

    def test_terminal_node_returns_stored_reward(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1")
        child = add_child(tree, terminal=True)
        child.reward = 1
        assert simulate_cached(tree, child.id, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(0)) == 1


class TestRunSearch:
    def test_adaptive_finds_success(self, search_setup):
        corpus, registry, config = search_setup
        tree = run_search(
            corpus.task("coffee-easy-1"), registry, ScriptedAdaptivePolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        assert tree.successful_leaves()

    def test_rigid_never_succeeds_on_mutated(self, search_setup):
        corpus, registry, config = search_setup
        tree = run_search(
            corpus.task("coffee-easy-1"), registry, ScriptedRigidPolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        assert tree.successful_leaves() == []

    def test_depth_bound_holds(self, search_setup):
        corpus, registry, config = search_setup
        tree = run_search(
            corpus.task("coffee-hard-4"), registry, ScriptedAdaptivePolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        assert all(n.depth <= config.max_depth for n in tree.nodes if not n.cached)

    def test_q_bounds_and_root_visit_conservation(self, search_setup):
        corpus, registry, config = search_setup
        tree = run_search(
            corpus.task("agenda-hard-1"), registry, ScriptedAdaptivePolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        assert all(-1.0 <= n.q_value <= 1.0 for n in tree.nodes)
        assert tree.node(0).visit_count == tree.stats["backprops"]
        assert tree.stats["simulations"] == config.max_simulations

    def test_selection_never_returns_cached(self, search_setup, selected_leaves):
        corpus, registry, config = search_setup
        run_search(
            corpus.task("coffee-hard-1"), registry, ScriptedAdaptivePolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        assert selected_leaves
        assert all(not was_cached for _, was_cached in selected_leaves)

    def test_byte_reproducibility(self, search_setup):
        corpus, registry, config = search_setup
        args = (corpus.task("agenda-easy-3"), registry)
        one = run_search(*args, ScriptedAdaptivePolicy(corpus), config, corpus.manual, corpus.demos)
        two = run_search(*args, ScriptedAdaptivePolicy(corpus), config, corpus.manual, corpus.demos)
        assert tree_to_json(one) == tree_to_json(two)

    def test_cache_reduces_policy_calls_with_same_outcomes(self, search_setup):
        corpus, registry, config = search_setup
        task = corpus.task("coffee-hard-4")
        cached_tree = run_search(task, registry, ScriptedAdaptivePolicy(corpus), config, corpus.manual, corpus.demos)
        uncached_tree = run_search(
            task, registry, ScriptedAdaptivePolicy(corpus), replace(config, cache_rollouts=False),
            corpus.manual, corpus.demos,
        )
        assert cached_tree.stats["policy_calls"] < uncached_tree.stats["policy_calls"]

        def visible_rewards(tree):
            return sorted(
                (tuple(p.action.action_name for p in tree.path_to(n.id)[1:]), n.reward)
                for n in tree.nodes
                if n.terminal and not n.cached
            )

        assert visible_rewards(cached_tree) == visible_rewards(uncached_tree)


class TestTreeSerialization:
    def test_round_trip_bytes_and_states(self, search_setup):
        corpus, registry, config = search_setup
        tree = run_search(
            corpus.task("coffee-hard-4"), registry, ScriptedAdaptivePolicy(corpus), config,
            corpus.manual, corpus.demos,
        )
        text = tree_to_json(tree)
        loaded = tree_from_json(text)
        assert tree_to_json(loaded) == text
        assert all(n.action.kind for n in tree.nodes[1:])
        for original, rebuilt in zip(tree.nodes, loaded.nodes):
            assert tree.state(original.id) == loaded.state(rebuilt.id)
            assert (original.children, original.depth) == (rebuilt.children, rebuilt.depth)

    @pytest.mark.parametrize("no_tool_update", [False, True])
    @pytest.mark.parametrize("inner", ["adaptive", "object_update"])
    def test_loaded_tree_replays_the_states_the_policy_saw(self, corpus, inner, no_tool_update):
        """A loaded tree derives, for every expanded node, exactly the state
        the policy was shown when that node's children were generated."""

        class ObjectUpdatePolicy:
            def propose(self, state, k):
                if not state.steps:
                    return ['Thought: t\nAction: UpdateTool\nAction Input: {"newtool_desc": {"a": "b"}}'] * k
                return ['Thought: t\nAction: Finish\nAction Input: {"answer": "x"}'] * k

        class RecordingPolicy:
            def __init__(self, inner):
                self.inner, self.states = inner, []

            def propose(self, state, k):
                self.states.append(state)
                return self.inner.propose(state, k)

        policy = RecordingPolicy(ScriptedAdaptivePolicy(corpus) if inner == "adaptive" else ObjectUpdatePolicy())
        registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
        tree = run_search(
            corpus.task("coffee-hard-4"), registry, policy, SearchConfig(rng_seed=7, no_tool_update=no_tool_update),
            corpus.manual, corpus.demos,
        )
        loaded = tree_from_json(tree_to_json(tree))
        parents = sorted({n.parent for n in tree.nodes[1:]}, key=lambda p: tree.node(p).children[0])
        assert len(parents) == len(policy.states) > 1
        assert [loaded.state(p) for p in parents] == policy.states
        grown = [s.tool_manual for s in policy.states if len(s.tool_manual) > len(corpus.manual)]
        assert bool(grown) != no_tool_update
        if inner == "object_update" and grown:
            assert grown[0][-1] == '{"a": "b"}'

    def test_rejects_garbage(self):
        with pytest.raises((KeyError, ValueError)):
            tree_from_json("{\"nodes\": []}")

    def test_tree_that_breaks_an_invariant_is_not_written(self):
        tree = bare_tree()
        add_child(tree, q=7.5, n=1, prior=1.0)
        with pytest.raises(ValueError, match="Q=7.5"):
            tree_to_json(tree)


def canonical_fields(tree: SearchTree) -> str:
    """Every field ``tree_to_json`` writes, as canonical JSON built from the
    tree object, so it does not depend on the file format."""
    return json.dumps(
        {
            "tree_id": tree.tree_id,
            "registry_generation": tree.registry_generation,
            "task": asdict(tree.task),
            "config": asdict(tree.config),
            "stats": tree.stats,
            "manual": tree.manual,
            "demos": tree.demos,
            "nodes": [
                [n.parent, n.action and asdict(n.action), n.q_value, n.visit_count, n.prior,
                 n.cached, n.terminal, n.reward, n.failure]
                for n in tree.nodes
            ],
        },
        sort_keys=True, ensure_ascii=False, separators=(",", ":"),
    )


# First 16 hex chars of sha256 over ``canonical_fields`` of coffee-hard-4 then
# agenda-easy-3, searched at rng_seed 7 on the seed-7 mutated registry; each
# tree also survives a write and a load unchanged. Any change to selection,
# expansion, rollout or backprop order changes them.
SEARCH_PINS = {
    "adaptive": ("scripted_adaptive", {}, "a9851a7f51aa47ff"),
    "rigid": ("scripted_rigid", {}, "6065df5e7c289fd7"),
    "semi_adaptive_no_self_reflection": ("scripted_semi_adaptive", {"no_self_reflection": True}, "aa96010725cd14a6"),
    "rigid_max_depth_4": ("scripted_rigid", {"max_depth": 4}, "a2ad0f3b0f7d65cc"),
    "adaptive_no_cache": ("scripted_adaptive", {"cache_rollouts": False}, "cb5937dac6a50a93"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_PINS))
def test_search_output_is_pinned(corpus, case):
    kind, overrides, expected = SEARCH_PINS[case]
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    policy = build_policy(PolicyConfig(kind=kind), corpus)
    digest = hashlib.sha256()
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        tree = run_search(
            corpus.task(task_id), registry, policy, SearchConfig(rng_seed=7, **overrides), corpus.manual, corpus.demos
        )
        text = canonical_fields(tree)
        assert canonical_fields(tree_from_json(tree_to_json(tree))) == text
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest()[:16] == expected
