from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift.adapt import (
    UPDATE_TOOL_OK_TEXT,
    ExpansionMode,
    apply_update_tool,
    execute_action,
    reflection_gate,
)
from tooldrift.cli import main
from tooldrift.corpus import load_corpus
from tooldrift.env import INVOCATION_ERROR_TEXT, TaskInstance
from tooldrift.mcts import SearchConfig, run_search, tree_to_json
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


class TestClassifyObservation:
    """The observation class is the step's ``kind``, set by the environment;
    reflection_gate reads it and never the observation text."""

    def test_deprecation_template(self):
        gate = reflection_gate(make_state(DEPRECATION_TEXT, "deprecation_error"))
        assert gate is ExpansionMode.REFLECTIVE

    def test_deprecation_alt_phrasing(self):
        assert reflection_gate(make_state(DEPRECATION_TEXT_ALT, "deprecation_error")) is ExpansionMode.REFLECTIVE
        # The template text under another kind is just data.
        assert reflection_gate(make_state(DEPRECATION_TEXT, "response")) is ExpansionMode.NORMAL

    def test_filtered_template(self):
        gate = reflection_gate(make_state(INVOCATION_ERROR_TEXT, "invocation_error"))
        assert gate is ExpansionMode.REFLECTIVE
        assert reflection_gate(make_state(INVOCATION_ERROR_TEXT, "response")) is ExpansionMode.NORMAL

    def test_response_is_ok(self):
        text = "We have successfully loaded the coffee database, including the following columns: Date."
        assert reflection_gate(make_state(text, "response")) is ExpansionMode.NORMAL

    def test_task_done(self):
        assert reflection_gate(make_state("Answer is CORRECT", "task_done")) is ExpansionMode.NORMAL
        assert reflection_gate(make_state("Answer is INCORRECT", "task_done")) is ExpansionMode.NORMAL

    def test_none_is_ok(self):
        # Steps parsed back from prompt text carry no kind.
        assert reflection_gate(make_state(DEPRECATION_TEXT, None)) is ExpansionMode.NORMAL

    @given(st.text(max_size=40), st.sampled_from(KINDS), st.booleans())
    def test_total(self, text, kind, no_self_reflection):
        gate = reflection_gate(make_state(text, kind), no_self_reflection)
        assert gate is reflection_gate(make_state("", kind), no_self_reflection)
        assert (gate is ExpansionMode.NORMAL) == (kind in ("response", "task_done"))


class TestApplyUpdateTool:
    def test_appends_description(self):
        state = make_state()
        updated, obs = apply_update_tool(state, "NewTool[x]: learned.")
        assert len(updated.tool_manual) == len(state.tool_manual) + 1
        assert updated.tool_manual[-1] == "NewTool[x]: learned."
        assert obs.text == "The description for the new tool has been updated successfully."
        assert obs.kind == "response"

    def test_idempotent_for_duplicate_description(self):
        state = make_state()
        once, _ = apply_update_tool(state, "NewTool[x]: learned.")
        twice, obs = apply_update_tool(once, "NewTool[x]: learned.")
        assert twice.tool_manual == once.tool_manual
        assert obs.text == UPDATE_TOOL_OK_TEXT

    def test_empty_description_is_invocation_error(self):
        state = make_state()
        same, obs = apply_update_tool(state, "")
        assert same.tool_manual == state.tool_manual
        assert obs.kind == "invocation_error"
        assert obs.text == INVOCATION_ERROR_TEXT

    def test_no_tool_update_ablation_freezes_manual(self):
        state = make_state()
        updated, obs = apply_update_tool(state, "NewTool[x]: learned.", no_tool_update=True)
        assert updated.tool_manual == state.tool_manual
        assert obs.kind == "response"

    def test_scope_isolated_to_descendants(self):
        parent = make_state()
        updated, _ = apply_update_tool(parent, "NewTool[x]: learned.")
        sibling = parent.with_step(
            ActionRecord(thought="s", action_name="LoadDB", action_input={"DBName": "coffee"}, observation="fine")
        )
        assert "NewTool[x]" in render_prompt(updated)
        assert "NewTool[x]" not in render_prompt(sibling)
        assert "NewTool[x]" not in render_prompt(parent)


class TestReflectionGate:
    def test_deprecation_error_is_reflective(self):
        assert reflection_gate(make_state(DEPRECATION_TEXT, "deprecation_error")) is ExpansionMode.REFLECTIVE

    def test_invocation_error_is_reflective_by_default(self):
        gate = reflection_gate(make_state(INVOCATION_ERROR_TEXT, "invocation_error"))
        assert gate is ExpansionMode.REFLECTIVE

    def test_invocation_error_terminal_without_self_reflection(self):
        state = make_state(INVOCATION_ERROR_TEXT, "invocation_error")
        assert reflection_gate(state, no_self_reflection=True) is ExpansionMode.TERMINAL

    def test_deprecation_error_still_reflective_without_self_reflection(self):
        state = make_state(DEPRECATION_TEXT, "deprecation_error")
        assert reflection_gate(state, no_self_reflection=True) is ExpansionMode.REFLECTIVE

    def test_ok_observation_is_normal(self):
        assert reflection_gate(make_state("all good", "response")) is ExpansionMode.NORMAL

    def test_fresh_state_is_normal(self):
        assert reflection_gate(make_state()) is ExpansionMode.NORMAL


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
        prefix = replace(result.state, steps=result.state.steps[: index + 1])
        assert reflection_gate(prefix) is ExpansionMode.NORMAL

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
