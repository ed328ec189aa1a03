"""Tool-variability adaptation: executing actions, UpdateTool, reflection gate.

Every executed step carries the environment's class for its observation
(``Observation.kind``), and the reflection gate decides from that class
alone, so no observation text can steer the search. UpdateTool grows the
in-prompt manual for one search path only; sibling subtrees keep their own
manuals.

The paper's two ablations are plain boolean arguments: ``no_self_reflection``
for ``reflection_gate`` and ``no_tool_update`` for ``apply_update_tool`` and
``execute_action``. Each function takes only the switch it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import json

from .env import INVOCATION_ERROR_TEXT, Observation, ToolRegistry, evaluate, invoke
from .react import ActionRecord, StateRecord

UPDATE_TOOL_OK_TEXT = "The description for the new tool has been updated successfully."


class ExpansionMode(Enum):
    NORMAL = "normal"
    REFLECTIVE = "reflective"
    TERMINAL = "terminal"


def as_text(value) -> str:
    """An action-input value as text: strings as given, anything else as JSON."""
    return value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)


def apply_update_tool(
    state: StateRecord,
    newtool_desc: str,
    no_tool_update: bool = False,
) -> tuple[StateRecord, Observation]:
    """Append a learned tool description to this path's manual.

    Set-union semantics: re-adding an identical description is a no-op. With
    the tool-update ablation the manual is left untouched.
    """
    if not newtool_desc:
        return state, Observation(kind="invocation_error", text=INVOCATION_ERROR_TEXT)
    if no_tool_update:
        return state, Observation(kind="response", text=UPDATE_TOOL_OK_TEXT)
    return state.with_manual_entry(newtool_desc), Observation(kind="response", text=UPDATE_TOOL_OK_TEXT)


@dataclass(frozen=True)
class ActionOutcome:
    """Result of routing one parsed action through the environment."""

    state: StateRecord
    step: ActionRecord
    terminal: bool = False
    reward: int | None = None


def execute_action(
    state: StateRecord,
    record: ActionRecord,
    registry: ToolRegistry,
    no_tool_update: bool = False,
) -> ActionOutcome:
    """Route an action to the environment and append the executed step.

    Finish is scored, UpdateTool edits this path's manual, everything else is
    an API invocation. Only Finish produces a terminal outcome.
    """
    if record.action_name == "Finish":
        obs = evaluate(state.task, as_text(record.action_input.get("answer", "")))
        executed = record.executed(obs)
        return ActionOutcome(
            state=state.with_step(executed), step=executed, terminal=True, reward=obs.reward
        )
    if record.action_name == "UpdateTool":
        desc = as_text(record.action_input.get("newtool_desc", ""))
        new_state, obs = apply_update_tool(state, desc, no_tool_update)
        executed = record.executed(obs)
        return ActionOutcome(state=new_state.with_step(executed), step=executed)
    obs = invoke(registry, record.action_name, record.action_input)
    executed = record.executed(obs)
    return ActionOutcome(state=state.with_step(executed), step=executed)


def reflection_gate(state: StateRecord, no_self_reflection: bool = False) -> ExpansionMode:
    """Decide how a node may be expanded, given the class of its last observation.

    Error states expand reflectively (the error stays in context) rather than
    being pruned; with the self-reflection ablation, invocation errors become
    terminal instead, while deprecation errors are still reflected on.
    """
    kind = state.steps[-1].kind if state.steps else None
    if kind == "deprecation_error":
        return ExpansionMode.REFLECTIVE
    if kind == "invocation_error":
        if no_self_reflection:
            return ExpansionMode.TERMINAL
        return ExpansionMode.REFLECTIVE
    return ExpansionMode.NORMAL
