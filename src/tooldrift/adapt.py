"""Tool-variability adaptation: executing actions, the step rule, reflection gate.

Every executed step carries the environment's class for its observation
(``Observation.kind``), and the reflection gate decides from that class
alone, so no observation text can steer the search; it is asked once, when a
node is made. ``advance`` is the one rule for how executed steps change a
state: it appends them, and each UpdateTool grows the in-prompt manual of that
path only, so sibling subtrees keep their own manuals. Search and loaded trees
derive every state with it.

The paper's two ablations are plain boolean arguments. ``reflection_gate``
reads ``no_self_reflection``; ``advance`` alone reads ``no_tool_update``,
because an UpdateTool's observation does not depend on it, so
``execute_action`` does not take it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import INVOCATION_ERROR_TEXT, Observation, ToolRegistry, evaluate, invoke
from .react import ActionRecord, StateRecord, render_action_input

UPDATE_TOOL_OK_TEXT = "The description for the new tool has been updated successfully."


def as_text(value) -> str:
    """An action-input value as text: strings as given, anything else as JSON."""
    return value if isinstance(value, str) else render_action_input(value)


def _tool_description(step: ActionRecord) -> str:
    return as_text(step.action_input.get("newtool_desc", ""))


def advance(state: StateRecord, steps, no_tool_update: bool = False) -> StateRecord:
    """The state after the executed ``steps``.

    Each UpdateTool with a non-empty description adds it to the manual, with
    set-union semantics (re-adding an identical description is a no-op); with
    the tool-update ablation the manual is left untouched.
    """
    steps = tuple(steps)
    manual = state.tool_manual
    if not no_tool_update:
        for step in steps:
            if step.action_name == "UpdateTool":
                desc = _tool_description(step)
                if desc and desc not in manual:
                    manual += (desc,)
    return StateRecord(task=state.task, tool_manual=manual, demos=state.demos, steps=state.steps + steps)


@dataclass(frozen=True)
class ActionOutcome:
    """Result of routing one parsed action through the environment."""

    state: StateRecord
    step: ActionRecord


def execute_action(state: StateRecord, record: ActionRecord, registry: ToolRegistry) -> ActionOutcome:
    """Route an action to the environment and advance the state by the executed step.

    Finish is scored, UpdateTool is acknowledged (an empty description is an
    invocation error), everything else is an API invocation; a node's reward
    is read off the step (``mcts.step_reward``). The state ignores the
    tool-update ablation, which only ``advance`` applies.
    """
    if record.action_name == "Finish":
        obs = evaluate(state.task, as_text(record.action_input.get("answer", "")))
    elif record.action_name == "UpdateTool":
        if _tool_description(record):
            obs = Observation(kind="response", text=UPDATE_TOOL_OK_TEXT)
        else:
            obs = Observation(kind="invocation_error", text=INVOCATION_ERROR_TEXT)
    else:
        obs = invoke(registry, record.action_name, record.action_input)
    executed = record.executed(obs)
    return ActionOutcome(advance(state, (executed,)), executed)


def reflection_gate(kind: str | None, no_self_reflection: bool = False) -> bool:
    """Whether a node whose action observed class ``kind`` stops when it is made (None at the root).

    Error states expand reflectively (the error stays in context) rather than
    being pruned; with the self-reflection ablation, invocation errors stop
    the node instead, while deprecation errors are still reflected on.
    """
    return no_self_reflection and kind == "invocation_error"
