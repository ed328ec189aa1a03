from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tooldrift import mcts
from tooldrift.corpus import load_corpus
from tooldrift.env import ANSWER_INCORRECT_TEXT, TaskInstance
from tooldrift.mcts import (
    FAILED_ACTION_NAME,
    SearchConfig,
    SearchTree,
    backpropagate,
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
from tooldrift.react import ActionRecord, StateRecord, render_prompt

from reference_search import ReferenceSearch

# The node lists of a SearchTree, in the order of append_node's row.
NODE_LISTS = ("parent", "action", "q_value", "visit_count", "reward", "children", "depth")


LOAD = 'Thought: t\nAction: LoadDB\nAction Input: {"DBName": "coffee"}'
WRONG_FINISH = 'Thought: t\nAction: Finish\nAction Input: {"answer": "x"}'


class MixedPolicy:
    """The first k of two distinct calls twice each and an unparseable text, whatever the state."""

    def propose(self, state, k):
        return [LOAD, WRONG_FINISH, LOAD, "no labels here", WRONG_FINISH][:k]


class DistractedPolicy:
    """The first k of the adaptive step three times, a wrong Finish and an unparseable text."""

    def __init__(self, corpus):
        self.inner = ScriptedAdaptivePolicy(corpus)

    def propose(self, state, k):
        good = self.inner.propose(state, 1)[0]
        return [good, WRONG_FINISH, good, "no labels here", good][:k]


def dummy_state() -> StateRecord:
    task = TaskInstance(id="t", description="q", gold_answer="1", dataset="coffee", difficulty="easy")
    return StateRecord(task=task, tool_manual=("Tool[x]: t.",))


def bare_tree(config: SearchConfig | None = None) -> SearchTree:
    root = dummy_state()
    return SearchTree(task=root.task, config=config or SearchConfig(), manual=root.tool_manual)


def append_node(tree, parent, action=None, q=0.0, n=0, cached=False, reward=None) -> int:
    """Append one node to ``tree`` by writing its columns; returns its id. The
    parent counts as expanded, so its children are visible, unless ``cached``."""
    node_id = len(tree.parent)
    row = (parent, action, q, n, reward, (), tree.depth[parent] + 1)
    for column, value in zip(NODE_LISTS, row):
        getattr(tree, column).append(value)
    tree.children[parent] = [*tree.children[parent], node_id]
    if not cached:
        tree.expanded.add(parent)
    return node_id


def add_child(tree, parent=0, q=0.0, n=0, cached=False, terminal=False) -> int:
    """Append a child whose action gives the reward it is set: a wrong Finish
    when ``terminal``, else a tool response."""
    if terminal:
        action = ActionRecord("x", "Finish", {"answer": "x"}, observation=ANSWER_INCORRECT_TEXT, kind="task_done")
    else:
        action = ActionRecord("x", "Tool", {}, observation="fine", kind="response")
    return append_node(tree, parent, action, q, n, cached, -1 if terminal else None)


class TestPuctScore:
    def test_reference_value(self):
        assert puct_score(8, 0.5, 0.2, 1, 1.25) == pytest.approx(0.8535533906, abs=1e-9)

    def test_zero_parent_visits_reduces_to_q(self):
        assert puct_score(0, 0.37, 0.9, 2, 5.0) == 0.37

    def test_fresh_child_pure_exploration(self):
        assert puct_score(4, 0.0, 1.0, 0, 1.0) == pytest.approx(2.0, abs=1e-12)


def child_score(tree, child) -> float:
    parent = tree.parent[child]
    return puct_score(tree.visit_count[parent], tree.q_value[child], tree.nodes[child].prior,
                      tree.visit_count[child], tree.config.c_puct)


class TestSelectLeaf:
    def test_fresh_tree_returns_root(self):
        tree = bare_tree()
        assert select_leaf(tree) == 0

    def test_prefers_unvisited_sibling(self):
        tree = bare_tree()
        tree.visit_count[0] = 3
        first = add_child(tree, q=0.4, n=0)
        second = add_child(tree, q=0.4, n=3)
        chosen = select_leaf(tree)
        # exhaustive oracle over the two children
        scores = {c: child_score(tree, c) for c in (first, second)}
        assert scores[first] > scores[second]
        assert chosen == first

    def test_tie_breaks_to_smallest_index(self):
        tree = bare_tree()
        tree.visit_count[0] = 5
        a = add_child(tree, q=0.1, n=1)
        b = add_child(tree, q=0.1, n=1)
        assert select_leaf(tree) == a

    def test_cached_best_child_is_skipped(self):
        """A rollout-built child stays hidden, however it scores, until its
        parent is expanded: until then the parent is the open leaf."""
        tree = bare_tree()
        tree.visit_count[0] = 4
        visible = add_child(tree, q=0.0, n=2)
        hidden = add_child(tree, parent=visible, q=1.0, n=0, cached=True)
        assert select_leaf(tree) == visible
        tree.expanded.add(visible)
        assert select_leaf(tree) == hidden

    def test_exhausted_tree_returns_none(self):
        tree = bare_tree()
        tree.reward[0] = -1
        assert select_leaf(tree) is None

    def test_walks_past_expanded_level(self):
        tree = bare_tree()
        mid = add_child(tree, q=0.9, n=1)
        deep = add_child(tree, parent=mid, q=0.0, n=0)
        assert select_leaf(tree) == deep

    def test_leaf_at_max_depth_is_never_returned(self):
        tree = bare_tree(SearchConfig(max_depth=2))
        tree.visit_count[0] = 4
        mid = add_child(tree, q=0.9, n=1)
        deep = add_child(tree, parent=mid)
        other = add_child(tree, q=-0.5, n=1)
        assert tree.depth[deep] == 2
        assert select_leaf(tree) == other
        tree.reward[other] = -1
        assert select_leaf(tree) is None

    def test_subtree_with_only_terminal_children_is_passed_over(self):
        tree = bare_tree()
        tree.visit_count[0] = 4
        mid = add_child(tree, q=0.9, n=2)
        for _ in range(2):
            add_child(tree, parent=mid, terminal=True)
        other = add_child(tree, q=-0.5, n=1)
        assert select_leaf(tree) == other


class TestBestChild:
    def test_matches_exhaustive_argmax(self):
        rng = random.Random(1)
        for _ in range(300):
            tree = bare_tree()
            tree.visit_count[0] = rng.randint(0, 50)
            m = rng.randint(1, 8)
            for _ in range(m):
                add_child(
                    tree,
                    q=rng.choice([-1.0, -0.5, 0.0, 0.25, 0.25, 1.0]),
                    n=rng.randint(0, 9),
                )
            got = select_leaf(tree)
            best, best_score = None, -math.inf
            for cid in tree.children[0]:
                s = child_score(tree, cid)
                if s > best_score:
                    best, best_score = cid, s
            assert got == best


class TestBackpropagate:
    def test_first_update_sets_q_to_reward(self):
        tree = bare_tree()
        child = add_child(tree)
        backpropagate(tree, child, 1)
        assert (tree.q_value[child], tree.visit_count[child]) == (1.0, 1)
        assert (tree.q_value[0], tree.visit_count[0]) == (1.0, 1)

    def test_reference_second_update(self):
        tree = bare_tree()
        child = add_child(tree, q=1.0, n=1)
        tree.q_value[0], tree.visit_count[0] = 1.0, 1
        backpropagate(tree, child, -1)
        assert (tree.q_value[child], tree.visit_count[child]) == (0.0, 2)

    @given(rewards=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_q_is_running_mean(self, rewards):
        tree = bare_tree()
        child = add_child(tree)
        for r in rewards:
            backpropagate(tree, child, r)
        mean = sum(rewards) / len(rewards)
        assert abs(tree.q_value[child] - mean) <= 1e-12
        assert abs(tree.q_value[0] - mean) <= 1e-12
        assert tree.visit_count[child] == len(rewards)


@pytest.fixture()
def search_setup(corpus, mutated_registry):
    config = SearchConfig(max_simulations=30, rng_seed=7)
    return corpus, mutated_registry, config


class TestExpand:
    def test_uniform_priors_and_arity(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1")
        new_ids = expand(tree, 0, ScriptedAdaptivePolicy(corpus), base_registry)
        assert len(new_ids) == 5
        nodes = tree.nodes
        assert all(nodes[i].prior == pytest.approx(0.2) for i in new_ids)
        assert sum(nodes[i].prior for i in new_ids) == pytest.approx(1.0)
        assert all(tree.depth[i] == 1 for i in new_ids)

    def test_cache_reuse_skips_policy(self, corpus, base_registry):
        policy = ScriptedAdaptivePolicy(corpus)
        tree = _root_tree(corpus, "coffee-easy-1")
        expand(tree, 0, policy, base_registry)
        rng = random.Random(0)
        child = tree.children[0][0]
        simulate_cached(tree, child, policy, base_registry, rng)
        grandchildren = list(tree.children[child])
        assert grandchildren and all(tree.nodes[g].cached for g in grandchildren)
        calls_before = tree.stats["policy_calls"]
        reused = expand(tree, child, policy, base_registry)
        assert reused == grandchildren
        assert tree.stats["policy_calls"] == calls_before
        assert not any(tree.nodes[g].cached for g in grandchildren)

    def test_deprecation_leaf_expands_to_successor_invocation(self, search_setup):
        corpus, registry, _ = search_setup
        policy = ScriptedAdaptivePolicy(corpus)
        tree = _root_tree(corpus, "coffee-easy-1")
        first_level = expand(tree, 0, policy, registry)
        leaf = first_level[0]
        assert tree.action[leaf].kind == "deprecation_error"
        children = expand(tree, leaf, policy, registry)
        successor = registry.deprecated["LoadDB"]
        child = tree.action[children[0]]
        assert child.action_name == successor
        assert child.kind == "response"

    def test_unparseable_candidates_become_failed_terminals(self, corpus, base_registry):
        class GibberishPolicy:
            def propose(self, state, k):
                return ["no labels here"] * k

        tree = _root_tree(corpus, "coffee-easy-1")
        ids = expand(tree, 0, GibberishPolicy(), base_registry)
        assert len(ids) == 5
        for nid in ids:
            assert tree.reward[nid] == -1
            assert tree.action[nid].action_name == FAILED_ACTION_NAME

    def test_each_distinct_candidate_is_parsed_and_executed_once(self, corpus, base_registry, monkeypatch):
        executed = []
        execute = mcts.execute_action

        def counting(state, record, *rest):
            executed.append(record.action_name)
            return execute(state, record, *rest)

        monkeypatch.setattr(mcts, "execute_action", counting)
        tree = _root_tree(corpus, "coffee-easy-1")
        ids = expand(tree, 0, MixedPolicy(), base_registry)
        actions = [tree.action[i] for i in ids]
        assert executed == ["LoadDB", "Finish"]
        assert [a.action_name for a in actions] == ["LoadDB", "Finish", "LoadDB", FAILED_ACTION_NAME, "Finish"]
        assert len(set(ids)) == 5 and all(tree.nodes[i].prior == pytest.approx(0.2) for i in ids)
        assert actions[0] is actions[2] and actions[1] is actions[4]
        assert tree.reward[ids[1]] == tree.reward[ids[4]] == -1
        assert actions[0] is not actions[1] and tree.reward[ids[0]] is None
        # A parse failure's message is its action's observation; the failure
        # map holds only failed expansions.
        assert tree.reward[ids[3]] == -1 and tree.failure == {}
        assert actions[3].observation.startswith("could not parse")
        # The memo lives for the whole tree: a later expansion elsewhere that
        # gets the same texts reuses the records and executes nothing new.
        deeper = expand(tree, ids[0], MixedPolicy(), base_registry)
        assert executed == ["LoadDB", "Finish"]
        assert [tree.action[i] for i in deeper] == actions
        assert [tree.reward[i] for i in deeper] == [tree.reward[i] for i in ids]
        assert tree.failure == {}
        assert all(tree.depth[i] == 2 for i in deeper)
        # A searched tree has a memo of its own, and its loaded copy starts
        # with an empty one.
        searched = run_search(
            corpus.task("coffee-easy-1"), base_registry, MixedPolicy(), SearchConfig(max_simulations=1),
            corpus.manual, corpus.demos,
        )
        assert executed == ["LoadDB", "Finish"] * 2
        loaded = tree_from_json(tree_to_json(searched))
        leaf = next(i for i, children in enumerate(loaded.children) if not children and loaded.reward[i] is None)
        expand(loaded, leaf, MixedPolicy(), base_registry)
        assert executed == ["LoadDB", "Finish"] * 3

    def test_a_second_registry_object_executes_anew(self, corpus, base_registry, mutated_registry, monkeypatch):
        load = 'Thought: t\nAction: LoadDB\nAction Input: {"DBName": "coffee"}'

        class LoadPolicy:
            pure = True

            def __init__(self):
                self.calls = 0

            def propose(self, state, k):
                self.calls += 1
                return [load] * k

        policy, registries = LoadPolicy(), []
        execute = mcts.execute_action

        def counting(state, record, registry, *rest):
            registries.append(registry)
            return execute(state, record, registry, *rest)

        monkeypatch.setattr(mcts, "execute_action", counting)
        tree = _root_tree(corpus, "coffee-easy-1")
        first = expand(tree, 0, policy, base_registry)
        assert tree.action[first[0]].kind == "response"
        second = expand(tree, first[0], policy, mutated_registry)
        assert registries == [base_registry, mutated_registry]
        assert tree.action[second[0]].kind == "deprecation_error"
        # A sibling on the same path of records reuses the stored children
        # under the same registry object, and is asked anew under another.
        again = expand(tree, first[1], policy, mutated_registry)
        assert (policy.calls, registries) == (2, [base_registry, mutated_registry])
        assert [tree.action[i] for i in again] == [tree.action[i] for i in second]
        third = expand(tree, first[2], policy, base_registry)
        assert (policy.calls, registries) == (3, [base_registry, mutated_registry, base_registry])
        assert tree.action[third[0]].kind == "response"

    def test_gate_marks_invocation_error_leaf_terminal(self, corpus, base_registry):
        """Under the self-reflection ablation an invocation-error child is
        terminal when it is made, so selection never visits it."""

        class BadCallPolicy:
            def propose(self, state, k):
                return ['Thought: x\nAction: LoadDB\nAction Input: {"Nope": "coffee"}'] * k

        for no_self_reflection in (False, True):
            tree = _root_tree(corpus, "coffee-easy-1", SearchConfig(no_self_reflection=no_self_reflection))
            children = expand(tree, 0, BadCallPolicy(), base_registry)
            assert {tree.action[i].kind for i in children} == {"invocation_error"}
            rewards = {tree.reward[i] for i in children}
            assert rewards == ({-1} if no_self_reflection else {None})
            assert (select_leaf(tree) is None) == no_self_reflection
            assert tree.stats["policy_calls"] == 1

    def test_policy_failure_marks_leaf_failed(self, corpus, base_registry):
        class FailingPolicy:
            def propose(self, state, k):
                raise PolicyError("connection refused")

        tree = _root_tree(corpus, "coffee-easy-1")
        assert expand(tree, 0, FailingPolicy(), base_registry) == []
        assert tree.reward[0] == -1
        assert list(tree.failure) == [0] and "connection refused" in tree.failure[0]


def _root_tree(corpus, task_id, config=None):
    return SearchTree(
        task=corpus.task(task_id), config=config or SearchConfig(),
        manual=tuple(corpus.manual), demos=tuple(corpus.demos),
    )


class TestSimulateCached:
    def test_one_finish_step_away_scores_plus_one(self, corpus, base_registry):
        from tooldrift.adapt import execute_action

        tree = _root_tree(corpus, "coffee-easy-1")
        state = tree.state(tree.root_id)
        for call in corpus.plans[tree.task.id].calls:
            record = ActionRecord(thought=call.thought, action_name=call.tool, action_input=call.args)
            outcome = execute_action(state, record, base_registry)
            state = outcome.state
            leaf = append_node(tree, len(tree.parent) - 1, action=outcome.step)
        assert tree.state(leaf) == state
        reward = simulate_cached(tree, leaf, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(1))
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
        tree.depth[0] = 15
        reward = simulate_cached(tree, 0, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(0))
        assert reward == -1

    def test_terminal_node_returns_stored_reward(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1")
        child = add_child(tree, terminal=True)
        tree.reward[child] = 1
        assert simulate_cached(tree, child, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(0)) == 1


    def test_a_stored_reward_is_returned_as_it_is(self, corpus, base_registry):
        tree = _root_tree(corpus, "coffee-easy-1")
        child = add_child(tree, terminal=True)
        tree.reward[child] = 0
        assert simulate_cached(tree, child, ScriptedAdaptivePolicy(corpus), base_registry, random.Random(0)) == 0


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
        assert tree.visit_count[0] == config.max_simulations

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


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("c_puct", 0), ("c_puct", -1), ("c_puct", math.nan), ("c_puct", math.inf), ("max_depth", 0), ("k", 0),
         ("max_simulations", 0), ("trees_per_task", 0)],
    )
    def test_value_out_of_range_is_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            replace(SearchConfig(), **{field: value})

    def test_built_config_cannot_be_assigned(self):
        config = SearchConfig()
        with pytest.raises(FrozenInstanceError):
            config.max_simulations = 0
        assert config == SearchConfig()


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
        parents = sorted(set(tree.parent[1:]), key=lambda p: tree.children[p][0])
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
        add_child(tree, q=7.5, n=1)
        with pytest.raises(ValueError, match="Q=7.5"):
            tree_to_json(tree)

    def test_siblings_that_are_not_consecutive_are_not_written(self):
        """A file stores one [parent, count] per expansion, so a hand-built
        tree whose root's children are nodes 1 and 3 cannot be written."""
        tree = bare_tree()
        first = add_child(tree)
        add_child(tree, parent=first)
        add_child(tree)
        with pytest.raises(ValueError, match="node 0: children are not consecutive ids"):
            tree_to_json(tree)

    def test_a_node_after_the_root_without_an_action_is_not_written(self):
        tree = bare_tree()
        append_node(tree, 0, cached=True)
        with pytest.raises(ValueError, match="node 1: a node after the root has no action"):
            tree_to_json(tree)

    def test_an_expanded_node_that_the_log_did_not_expand_is_not_written(self):
        tree = bare_tree()
        add_child(tree)
        with pytest.raises(ValueError, match="node 0: expanded=True is not its replay expanded=False"):
            tree_to_json(tree)
        tree.expanded.clear()
        assert tree_from_json(tree_to_json(tree)) == tree

    @pytest.mark.parametrize("node", [-1, 2])
    def test_a_failure_on_no_node_is_not_written(self, node):
        tree = bare_tree()
        add_child(tree, cached=True)
        tree.failure[node] = "x"
        with pytest.raises(ValueError, match=f"node {node}: failed to expand, but the tree has no such node"):
            tree_to_json(tree)


def canonical_fields(tree: SearchTree, stats: bool = True) -> str:
    """Every field ``tree_to_json`` writes (all but ``stats`` when ``stats`` is
    false), as canonical JSON built from the tree object, so it does not depend
    on the file format."""
    doc = {
        "tree_id": tree.tree_id,
        "registry_generation": tree.registry_generation,
        "task": asdict(tree.task),
        "config": asdict(tree.config),
        "manual": tree.manual,
        "demos": tree.demos,
        "nodes": [
            [n.parent, n.action and asdict(n.action), n.q_value, n.visit_count, n.prior,
             n.cached, n.terminal, n.reward, n.failure]
            for n in tree.nodes
        ],
    }
    if stats:
        doc["stats"] = tree.stats
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@pytest.mark.parametrize("kind", ["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive"])
@pytest.mark.parametrize("ablation", ["full", "no_self_reflection", "no_tool_update"])
def test_real_trees_round_trip(corpus, kind, ablation):
    """A written tree loads back to the same text and the same fields."""
    overrides = {} if ablation == "full" else {ablation: True}
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    policy = build_policy(PolicyConfig(kind=kind, emit_tool_updates=ablation != "no_tool_update"), corpus)
    for task_id in ("coffee-hard-4", "agenda-hard-2"):
        tree = run_search(
            corpus.task(task_id), registry, policy, SearchConfig(rng_seed=5, **overrides), corpus.manual, corpus.demos
        )
        text = tree_to_json(tree)
        loaded = tree_from_json(text)
        assert tree_to_json(loaded) == text
        assert canonical_fields(loaded) == canonical_fields(tree)


# First 16 hex chars of sha256 over ``canonical_fields`` without ``stats`` of
# coffee-hard-4 then agenda-easy-3, searched at rng_seed 7 on the seed-7
# mutated registry, and the policy calls of each tree; each tree also survives
# a write and a load unchanged. Any change to selection, expansion, rollout or
# backprop order changes the digest; asking a policy more or less often changes
# the calls.
SEARCH_PINS = {
    "adaptive": ("scripted_adaptive", {}, "d4bef174e972b67f", [14, 10]),
    "rigid": ("scripted_rigid", {}, "b7357c734c7921fb", [15, 15]),
    "semi_adaptive_no_self_reflection": (
        "scripted_semi_adaptive", {"no_self_reflection": True}, "2c7970cabc5df638", [14, 10],
    ),
    "rigid_max_depth_4": ("scripted_rigid", {"max_depth": 4}, "592ad8684e9203a2", [4, 4]),
}


@pytest.mark.parametrize("case", sorted(SEARCH_PINS))
def test_search_output_is_pinned(corpus, case):
    kind, overrides, expected_digest, expected_calls = SEARCH_PINS[case]
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    policy = build_policy(PolicyConfig(kind=kind), corpus)
    digest, calls = hashlib.sha256(), []
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        tree = run_search(
            corpus.task(task_id), registry, policy, SearchConfig(rng_seed=7, **overrides), corpus.manual, corpus.demos
        )
        assert canonical_fields(tree_from_json(tree_to_json(tree))) == canonical_fields(tree)
        digest.update(canonical_fields(tree, stats=False).encode("utf-8"))
        calls.append(tree.stats["policy_calls"])
    assert (digest.hexdigest()[:16], calls) == (expected_digest, expected_calls)


@pytest.mark.parametrize("case", sorted(SEARCH_PINS))
def test_the_root_visit_count_counts_the_simulations(corpus, case, monkeypatch):
    """Each simulation backpropagates once, from its new child or its failed
    leaf to the root, so the root's visits are the simulations run."""
    kind, overrides, _, _ = SEARCH_PINS[case]
    backprops = []
    backpropagate = mcts.backpropagate

    def counting(tree, node_id, reward):
        backprops.append(node_id)
        backpropagate(tree, node_id, reward)

    monkeypatch.setattr(mcts, "backpropagate", counting)
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    policy = build_policy(PolicyConfig(kind=kind), corpus)
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        backprops.clear()
        tree = run_search(
            corpus.task(task_id), registry, policy, SearchConfig(rng_seed=7, **overrides), corpus.manual, corpus.demos
        )
        assert len(backprops) == tree.nodes[0].visit_count > 0


def unmarked(policy):
    """A copy of ``policy`` whose class is a subclass with ``pure = False``."""
    copy = object.__new__(type("Unmarked", (type(policy),), {"pure": False}))
    copy.__dict__.update(vars(policy))
    return copy


@pytest.mark.parametrize("ablation", ["full", "no_self_reflection", "no_tool_update"])
@pytest.mark.parametrize("kind", ["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive"])
def test_a_pure_policy_grows_the_trees_of_an_unmarked_one(corpus, kind, ablation):
    """Asking a pure policy once per distinct path changes nothing but the
    number of policy calls."""
    overrides = {} if ablation == "full" else {ablation: True}
    config = SearchConfig(rng_seed=7, **overrides)
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    pure = build_policy(PolicyConfig(kind=kind, emit_tool_updates=ablation != "no_tool_update"), corpus)
    assert pure.pure
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        trees = [
            run_search(corpus.task(task_id), registry, policy, config, corpus.manual, corpus.demos)
            for policy in (pure, unmarked(pure))
        ]
        assert canonical_fields(trees[0], stats=False) == canonical_fields(trees[1], stats=False)
        assert trees[0].stats["policy_calls"] < trees[1].stats["policy_calls"]


@pytest.mark.parametrize("kind", ["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive"])
def test_a_pure_policy_sees_each_prompt_once_per_tree(corpus, kind, monkeypatch):
    policy = build_policy(PolicyConfig(kind=kind), corpus)
    prompts = []
    propose = policy.propose

    def recording(state, k):
        prompts.append(render_prompt(state))
        return propose(state, k)

    monkeypatch.setattr(policy, "propose", recording)
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        prompts.clear()
        tree = run_search(corpus.task(task_id), registry, policy, SearchConfig(rng_seed=7), corpus.manual, corpus.demos)
        assert len(prompts) == len(set(prompts)) == tree.stats["policy_calls"] > 1


def test_an_unmarked_policy_is_asked_once_per_expansion(corpus, mutated_registry):
    class Unmarked:
        def __init__(self):
            self.inner, self.prompts = ScriptedAdaptivePolicy(corpus), []

        def propose(self, state, k):
            self.prompts.append(render_prompt(state))
            return self.inner.propose(state, k)

    policy = Unmarked()
    tree = run_search(
        corpus.task("coffee-hard-4"), mutated_registry, policy, SearchConfig(rng_seed=7), corpus.manual, corpus.demos
    )
    expanded = sum(1 for n in tree.nodes if n.children)
    assert len(policy.prompts) == tree.stats["policy_calls"] == expanded > len(set(policy.prompts))


@functools.cache
def _registry(seed: int | None):
    """The base registry for None, else the one MutationPlan(seed) drifts it to."""
    base = load_corpus().base_registry
    return base if seed is None else mutate_registry(base, MutationPlan(seed=seed))


@given(
    kind=st.sampled_from(["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive"]),
    registry_seed=st.sampled_from([None, 7, 8, 11]),
    rng_seed=st.integers(0, 2**16),
    sims=st.integers(1, 30),
    max_depth=st.integers(1, 15),
    ablation=st.sampled_from(["full", "no_self_reflection", "no_tool_update"]),
    task_index=st.integers(0, 23),
)
@settings(max_examples=60)
def test_searched_columns_load_back_and_siblings_are_consecutive(
    kind, registry_seed, rng_seed, sims, max_depth, ablation, task_index
):
    corpus = load_corpus()
    overrides = {} if ablation == "full" else {ablation: True}
    config = SearchConfig(rng_seed=rng_seed, max_simulations=sims, max_depth=max_depth, **overrides)
    policy = build_policy(PolicyConfig(kind=kind, emit_tool_updates=ablation != "no_tool_update"), corpus)
    tree = run_search(
        corpus.tasks[task_index], _registry(registry_seed), policy, config, corpus.manual, corpus.demos
    )
    loaded = tree_from_json(tree_to_json(tree))
    assert loaded == tree  # every written column, and the fields around them
    assert (list(map(list, loaded.children)), loaded.depth) == (list(map(list, tree.children)), tree.depth)
    for node_id, children in enumerate(tree.children):
        assert list(children) == [i for i, parent in enumerate(tree.parent) if parent == node_id]
        if children:
            assert list(children) == list(range(children[0], children[0] + len(children)))


@pytest.mark.parametrize("kind", ["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive"])
def test_a_path_is_walked_only_on_a_memo_miss(corpus, kind, monkeypatch):
    """With a pure policy, search walks a node's path (for its state) once per
    policy call, and never to key the path memo."""
    walks = []
    actions = SearchTree.actions

    def counting(tree, node_id):
        walks.append(node_id)
        return actions(tree, node_id)

    monkeypatch.setattr(SearchTree, "actions", counting)
    registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
    policy = build_policy(PolicyConfig(kind=kind), corpus)
    assert policy.pure
    for task_id in ("coffee-hard-4", "agenda-easy-3"):
        walks.clear()
        tree = run_search(corpus.task(task_id), registry, policy, SearchConfig(rng_seed=7), corpus.manual, corpus.demos)
        assert len(walks) == tree.stats["policy_calls"] > 1


# The node fields that ``ReferenceSearch.run`` returns besides the log; prior
# and cached are read off the rows of ``SearchTree.nodes``, which derive them.
REFERENCE_FIELDS = ("parent", "action", "q_value", "visit_count", "prior", "cached", "reward", "failure")


@given(
    kind=st.sampled_from(["scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive", "mixed", "distracted"]),
    registry_seed=st.sampled_from([None, 7, 8, 11]),
    rng_seed=st.integers(0, 2**16),
    sims=st.integers(1, 30),
    max_depth=st.integers(1, 15),
    k=st.integers(1, 5),
    ablation=st.sampled_from(["full", "no_self_reflection", "no_tool_update"]),
    task_index=st.integers(0, 23),
)
# Greedy decoding: one simulation with one candidate per node.
@example(kind="scripted_adaptive", registry_seed=7, rng_seed=0, sims=1, max_depth=15, k=1, ablation="full",
         task_index=0)
@settings(max_examples=40)
def test_run_search_grows_the_reference_tree(
    kind, registry_seed, rng_seed, sims, max_depth, k, ablation, task_index
):
    """``run_search`` and the plain reference grow the same columns and log,
    Q values bit for bit, and so does the tree a written one loads back to;
    only the number of policy calls differs, by design."""
    corpus = load_corpus()
    overrides = {} if ablation == "full" else {ablation: True}
    config = SearchConfig(rng_seed=rng_seed, max_simulations=sims, max_depth=max_depth, k=k, **overrides)
    if kind == "mixed":
        policy = MixedPolicy()
    elif kind == "distracted":
        policy = DistractedPolicy(corpus)
    else:
        policy = build_policy(PolicyConfig(kind=kind, emit_tool_updates=ablation != "no_tool_update"), corpus)
    args = (corpus.tasks[task_index], _registry(registry_seed), policy, config, corpus.manual, corpus.demos)
    tree = run_search(*args)
    expected = ReferenceSearch(*args).run()
    for grown in (tree, tree_from_json(tree_to_json(tree))):
        rows = grown.nodes
        fields = {name: [getattr(row, name) for row in rows] for name in REFERENCE_FIELDS}
        assert {**fields, "simulations": grown.simulations} == expected
