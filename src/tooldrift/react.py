"""REACT step format: parsing policy output and rendering prompt state.

A step is the labeled Thought / Action / Action Input triple, plus the
Observation filled in by the environment after execution. Rendering is
append-only: extending a state only appends text to its rendered prompt.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, replace
from typing import Any

from .env import Observation, TaskInstance

PROMPT_HEADER = (
    "Answer the question by interacting with the tools below. At every step, respond with a "
    "Thought line analysing the situation, an Action line naming one tool, and an Action Input "
    "line with a JSON object of parameters. The environment appends an Observation line with "
    "the result. Use Finish[answer] to submit the final answer."
)

_THOUGHT_RE = re.compile(r"(?:^|\n)\s*Thought:\s*(.*?)\s*(?=\nAction:)", re.DOTALL)
_ACTION_RE = re.compile(r"\nAction:\s*([A-Za-z0-9_.\-]+)\s*(?=\n)")
_INPUT_LABEL_RE = re.compile(r"\nAction\s+Input:\s*")
_OBSERVATION_RE = re.compile(r"\nObservation:\s*(.*?)\s*$", re.DOTALL)


class ActionParseError(ValueError):
    """Raised when a candidate step is missing or mangles a labeled field."""

    def __init__(self, fld: str, detail: str = ""):
        self.field = fld
        message = f"could not parse field {fld!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class ActionRecord:
    """One executed or proposed step of the dialogue.

    ``kind`` is the environment's class for the observation (``Observation.kind``).
    It is never rendered, so a step parsed back from prompt text has none.
    """

    thought: str
    action_name: str
    action_input: dict[str, Any]
    observation: str | None = None
    kind: str | None = None

    def executed(self, obs: Observation) -> "ActionRecord":
        return replace(self, observation=obs.text, kind=obs.kind)


@dataclass(frozen=True)
class StateRecord:
    """The search state: task, current tool manual, demos, step history."""

    task: TaskInstance
    tool_manual: tuple[str, ...]
    demos: tuple[str, ...] = ()
    steps: tuple[ActionRecord, ...] = ()

    def last_observation(self) -> str | None:
        if not self.steps:
            return None
        return self.steps[-1].observation


def _coerce_value(value: Any) -> Any:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format(value, "g") if isinstance(value, float) else str(value)
    if isinstance(value, dict):
        return {str(k): _coerce_value(v) for k, v in value.items()}
    raise ActionParseError("Action Input", f"unsupported value type {type(value).__name__}")


def _scan_braced_body(text: str, start: int) -> str:
    """Return the brace-balanced substring starting at text[start] == '{'.

    Quote-aware so braces inside string values do not end the scan; trailing
    prose after the closing brace is the caller's to ignore.
    """
    depth = 0
    quote: str | None = None
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in ("'", '"'):
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    raise ActionParseError("Action Input", "unbalanced braces")


def _parse_input_body(body: str) -> dict[str, Any]:
    try:
        parsed = json.loads(body, strict=False)
    except json.JSONDecodeError:
        try:
            parsed = ast.literal_eval(body)
        except (ValueError, SyntaxError) as exc:
            raise ActionParseError("Action Input", str(exc)) from None
    if not isinstance(parsed, dict):
        raise ActionParseError("Action Input", "not a key-value map")
    return {str(k): _coerce_value(v) for k, v in parsed.items()}


def parse_action(text: str) -> ActionRecord:
    """Parse one REACT step; raises ActionParseError naming the failing field."""
    padded = "\n" + text.strip() + "\n"
    thought_match = _THOUGHT_RE.search(padded)
    if thought_match is None:
        raise ActionParseError("Thought")
    action_match = _ACTION_RE.search(padded, thought_match.end())
    if action_match is None:
        raise ActionParseError("Action")
    label_match = _INPUT_LABEL_RE.search(padded, action_match.end())
    if label_match is None:
        raise ActionParseError("Action Input")
    brace_start = padded.find("{", label_match.end())
    if brace_start < 0:
        raise ActionParseError("Action Input", "no opening brace")
    body = _scan_braced_body(padded, brace_start)
    action_input = _parse_input_body(body)
    observation = None
    obs_match = _OBSERVATION_RE.search(padded, brace_start + len(body))
    if obs_match is not None:
        observation = obs_match.group(1)
    return ActionRecord(
        thought=thought_match.group(1),
        action_name=action_match.group(1),
        action_input=action_input,
        observation=observation,
    )


def render_action_input(action_input: dict[str, Any]) -> str:
    """Canonical double-quoted rendering of an action input map."""
    return json.dumps(action_input, ensure_ascii=False)


def render_step(step: ActionRecord) -> str:
    lines = [
        f"Thought: {step.thought}",
        f"Action: {step.action_name}",
        f"Action Input: {render_action_input(step.action_input)}",
    ]
    if step.observation is not None:
        lines.append(f"Observation: {step.observation}")
    return "\n".join(lines)


def render_prompt(state: StateRecord) -> str:
    """Deterministic, append-only rendering of the full prompt state."""
    parts = [PROMPT_HEADER, "Tools:"]
    parts.extend(f"[{i + 1}] {entry}" for i, entry in enumerate(state.tool_manual))
    for demo in state.demos:
        parts.append("")
        parts.append(demo)
    parts.append("")
    parts.append(f"Question: {state.task.description}")
    text = "\n".join(parts)
    for step in state.steps:
        text += "\n\n" + render_step(step)
    return text
