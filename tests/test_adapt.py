from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift.adapt import UPDATE_TOOL_OK_TEXT, advance, execute_action, reflection_gate
from tooldrift.cli import main
from tooldrift.corpus import load_corpus
from tooldrift.env import INVOCATION_ERROR_TEXT, TaskInstance
from tooldrift.mcts import SearchConfig, SearchTree, expand, run_search, tree_to_json
from tooldrift.mutation import MutationPlan, mutate_registry
from tooldrift.policy import ScriptedAdaptivePolicy, run_greedy_episode
from tooldrift.react import ActionRecord, StateRecord, render_prompt

KINDS = ("response", "invocation_error", "deprecation_error", "task_done")

DEPRECATION_TEXT = (
    "Error: LoadDB[DBName] is deprecated. Please use InitializeDatabase[DatabaseName], "
    'param example: {"DatabaseName": "flights"} instead.'
)
# A deprecation message with a different tail; only the step's kind matters.
DEPRECATION_TEXT_ALT = (
    "Error: PythonInterpreter[Python] is deprecated and will be removed in future releases. "
    "Use Execute_Python_Script[PythonCode] instead."
)


def make_state(observation=None, kind=None, manual=("LoadDB[DBName]: loads.",)) -> StateRecord:
    task = TaskInstance(id="t", description="q", gold_answer="5", dataset="coffee", difficulty="easy")
    steps = ()
    if observation is not None:
        steps = (
            ActionRecord(
                thought="x", action_name="LoadDB", action_input={"DBName": "coffee"},
                observation=observation, kind=kind,
            ),
        )
    return StateRecord(task=task, tool_manual=tuple(manual), steps=steps)


def update_step(desc) -> ActionRecord:
    return ActionRecord(
        thought="memo", action_name="UpdateTool", action_input={"newtool_desc": desc},
        observation=UPDATE_TOOL_OK_TEXT, kind="response",
    )


def expansion_stops(text, kind, no_self_reflection=False) -> bool:
    """Whether expanding a node whose action observed ``text`` of class ``kind``
    stops it; the gate's answer for ``kind`` must agree."""

    class MalformedPolicy:
        def propose(self, state, k):
            return ["no labels here"] * k

    tree = SearchTree(task=make_state().task, config=SearchConfig(no_self_reflection=no_self_reflection))
    tree.add_node(None)
    step = ActionRecord(
        thought="x", action_name="LoadDB", action_input={"DBName": "coffee"}, observation=text, kind=kind
    )
    node = tree.add_node(0, action=step)
    # Malformed candidates never reach the registry.
    children = expand(tree, node.id, MalformedPolicy(), registry=None)
    assert node.terminal == (children == []) == reflection_gate(kind, no_self_reflection)
    return node.terminal


class TestClassifyObservation:
    """The observation class is the step's ``kind``, set by the environment;
    expansion gates on it and never on the observation text."""

    def test_deprecation_template(self):
        assert not expansion_stops(DEPRECATION_TEXT, "deprecation_error", no_self_reflection=True)

    def test_deprecation_alt_phrasing(self):
        assert not expansion_stops(DEPRECATION_TEXT_ALT, "deprecation_error", no_self_reflection=True)
        # The template text under another kind is just data.
        assert not expansion_stops(DEPRECATION_TEXT, "response", no_self_reflection=True)

    def test_filtered_template(self):
        assert not expansion_stops(INVOCATION_ERROR_TEXT, "invocation_error")
        assert expansion_stops(INVOCATION_ERROR_TEXT, "invocation_error", no_self_reflection=True)
        assert not expansion_stops(INVOCATION_ERROR_TEXT, "response", no_self_reflection=True)

    def test_response_is_ok(self):
        text = "We have successfully loaded the coffee database, including the following columns: Date."
        assert not expansion_stops(text, "response", no_self_reflection=True)

    def test_task_done(self):
        assert not expansion_stops("Answer is CORRECT", "task_done", no_self_reflection=True)
        assert not expansion_stops("Answer is INCORRECT", "task_done", no_self_reflection=True)

    def test_none_is_ok(self):
        # Steps parsed back from prompt text carry no kind.
        assert not expansion_stops(DEPRECATION_TEXT, None, no_self_reflection=True)

    @given(st.text(max_size=40), st.sampled_from(KINDS + (None,)), st.booleans())
    def test_total(self, text, kind, no_self_reflection):
        stops = expansion_stops(text, kind, no_self_reflection)
        assert stops == expansion_stops("", kind, no_self_reflection)
        assert stops == (no_self_reflection and kind == "invocation_error")


class TestApplyUpdateTool:
    """UpdateTool: ``execute_action`` decides its observation, ``advance`` its
    effect on the manual."""

    def test_appends_description(self, corpus):
        state = make_state(DEPRECATION_TEXT, "deprecation_error")
        record = replace(update_step("NewTool[x]: learned."), observation=None, kind=None)
        outcome = execute_action(state, record, corpus.base_registry)
        assert outcome.state.tool_manual == state.tool_manual + ("NewTool[x]: learned.",)
        assert outcome.state.steps == state.steps + (outcome.step,)
        assert (outcome.state.task, outcome.state.demos) == (state.task, state.demos)
        assert (outcome.step.kind, outcome.step.observation) == ("response", UPDATE_TOOL_OK_TEXT)
        assert advance(state, (outcome.step,)) == outcome.state

    def test_idempotent_for_duplicate_description(self):
        state = make_state()
        step = update_step("NewTool[x]: learned.")
        once = advance(state, (step,))
        assert advance(once, (step,)).tool_manual == once.tool_manual
        assert advance(state, (step, step)).tool_manual == once.tool_manual

    def test_empty_description_is_invocation_error(self, corpus):
        state = make_state()
        record = ActionRecord(thought="memo", action_name="UpdateTool", action_input={"newtool_desc": ""})
        outcome = execute_action(state, record, corpus.base_registry)
        assert (outcome.step.kind, outcome.step.observation) == ("invocation_error", INVOCATION_ERROR_TEXT)
        assert outcome.state.tool_manual == state.tool_manual and not outcome.terminal
        assert advance(state, (update_step(""),)).tool_manual == state.tool_manual

    def test_no_tool_update_ablation_freezes_manual(self, corpus):
        state = make_state()
        record = ActionRecord(thought="memo", action_name="UpdateTool", action_input={"newtool_desc": "N[x]: new."})
        outcome = execute_action(state, record, corpus.base_registry, no_tool_update=True)
        assert (outcome.step.kind, outcome.step.observation) == ("response", UPDATE_TOOL_OK_TEXT)
        assert outcome.state.tool_manual == state.tool_manual
        assert outcome.state.steps == (outcome.step,)

    def test_scope_isolated_to_descendants(self):
        parent = make_state()
        updated = advance(parent, (update_step("NewTool[x]: learned."),))
        sibling = advance(
            parent,
            (ActionRecord(thought="s", action_name="LoadDB", action_input={"DBName": "coffee"}, observation="fine"),),
        )
        assert "NewTool[x]" in render_prompt(updated)
        assert "NewTool[x]" not in render_prompt(sibling)
        assert "NewTool[x]" not in render_prompt(parent)

    @given(st.lists(st.sampled_from(["A[x]: a.", "B[y]: b.", ""]), max_size=6), st.booleans())
    def test_many_steps_at_once_equal_one_at_a_time(self, descs, no_tool_update):
        steps = [update_step(desc) for desc in descs]
        one_by_one = make_state()
        for step in steps:
            one_by_one = advance(one_by_one, (step,), no_tool_update)
        assert advance(make_state(), steps, no_tool_update) == one_by_one


class TestReflectionGate:
    """Whether a node stops, from the class of its last observation."""

    def test_deprecation_error_is_reflective(self):
        assert not reflection_gate("deprecation_error")

    def test_invocation_error_is_reflective_by_default(self):
        assert not reflection_gate("invocation_error")

    def test_invocation_error_terminal_without_self_reflection(self):
        assert reflection_gate("invocation_error", no_self_reflection=True)

    def test_deprecation_error_still_reflective_without_self_reflection(self):
        assert not reflection_gate("deprecation_error", no_self_reflection=True)

    def test_ok_observation_is_normal(self):
        for kind in ("response", "task_done"):
            assert not reflection_gate(kind)
            assert not reflection_gate(kind, no_self_reflection=True)

    def test_fresh_state_is_normal(self):
        # None at the root.
        assert not reflection_gate(None)
        assert not reflection_gate(None, no_self_reflection=True)


class TestExecuteAction:
    def test_finish_scores_the_answer(self, corpus):
        task = corpus.task("coffee-easy-1")
        state = StateRecord(task=task, tool_manual=tuple(corpus.manual))
        record = ActionRecord(thought="done", action_name="Finish", action_input={"answer": task.gold_answer})
        outcome = execute_action(state, record, corpus.base_registry)
        assert outcome.terminal and outcome.reward == 1
        assert outcome.step.observation == "Answer is CORRECT"
        assert outcome.step.kind == "task_done"

    def test_update_tool_routes_to_manual(self, corpus):
        task = corpus.task("coffee-easy-1")
        state = StateRecord(task=task, tool_manual=tuple(corpus.manual))
        record = ActionRecord(thought="memo", action_name="UpdateTool", action_input={"newtool_desc": "N[x]: new."})
        outcome = execute_action(state, record, corpus.base_registry)
        assert not outcome.terminal
        assert outcome.state.tool_manual[-1] == "N[x]: new."
        assert outcome.step.observation == UPDATE_TOOL_OK_TEXT
        assert outcome.step.kind == "response"

    def test_invocation_routes_to_registry(self, corpus):
        task = corpus.task("coffee-easy-1")
        state = StateRecord(task=task, tool_manual=tuple(corpus.manual))
        record = ActionRecord(thought="load", action_name="LoadDB", action_input={"DBName": "coffee"})
        outcome = execute_action(state, record, corpus.base_registry)
        assert not outcome.terminal
        assert outcome.step.observation.startswith("We have successfully loaded")
        assert outcome.step.kind == "response"
        assert outcome.state.steps[-1] == outcome.step


class TestManualMonotonicity:
    def test_manual_grows_along_adaptive_episode(self, corpus, mutated_registry):
        result = run_greedy_episode(
            ScriptedAdaptivePolicy(corpus),
            corpus.task("coffee-hard-4"),
            mutated_registry,
            corpus.manual,
            corpus.demos,
        )
        assert result.reward == 1
        final_manual = result.state.tool_manual
        assert len(final_manual) > len(corpus.manual)
        for entry in corpus.manual:
            assert entry in final_manual
        assert list(final_manual[: len(corpus.manual)]) == list(corpus.manual)


class TestAdversarialWorldCells:
    """World data that reads like environment feedback must not steer the search."""

    @pytest.mark.parametrize("cell", ["Room is deprecated", "Answer is Room 4A"])
    def test_cell_text_is_only_a_response(self, cell, tmp_path, capsys):
        corpus = load_corpus()
        row = next(r for r in corpus.world["agenda"]["rows"] if r["Event"] == "Team standup")
        row["Location"] = cell
        task = next(t for t in corpus.tasks if "team standup" in t.description)
        adversarial = replace(task, gold_answer=cell)
        corpus.tasks = [adversarial if t is task else t for t in corpus.tasks]
        corpus.plans[task.id] = replace(corpus.plans[task.id], answer=cell)
        registry = mutate_registry(corpus.base_registry, MutationPlan(seed=11))
        policy = ScriptedAdaptivePolicy(corpus)

        result = run_greedy_episode(policy, adversarial, registry, corpus.manual, corpus.demos)
        assert result.reward == 1
        index = next(i for i, s in enumerate(result.state.steps) if cell in (s.observation or ""))
        assert result.state.steps[index].kind == "response"
        assert not reflection_gate(result.state.steps[index].kind, no_self_reflection=True)

        tree = run_search(adversarial, registry, policy, SearchConfig(), corpus.manual, corpus.demos)
        assert tree.successful_leaves()
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(tree), encoding="utf-8")
        assert main(["inspect", str(path)]) == 0
        lines = {line.strip().split(" ", 1)[0]: line for line in capsys.readouterr().out.splitlines()}
        cell_nodes = [n for n in tree.nodes if n.action is not None and cell in (n.action.observation or "")]
        assert cell_nodes
        for node in cell_nodes:
            assert "[deprecation_error]" not in lines[f"[{node.id}]"]
