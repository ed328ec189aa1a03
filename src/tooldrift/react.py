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

# No pattern nests quantifiers or ends a lazy group with a whitespace run, and
# an Action Input is decoded at most twice (once as JSON, then by the scanner
# and the decoders below), so parse_action runs in linear time.
_THOUGHT_LABEL_RE = re.compile(r"\n[^\S\n]*Thought:")
_SPACE_RE = re.compile(r"\s*")
_ACTION_RE = re.compile(r"\nAction:\s*([A-Za-z0-9_.\-]+)\s*(?=\n)")
_INPUT_LABEL_RE = re.compile(r"\nAction\s+Input:\s*")
_OBSERVATION_LABEL = "\nObservation:"
_JSON_DECODER = json.JSONDecoder(strict=False)


class ActionParseError(ValueError):
    """Raised when a candidate step is missing or mangles a labeled field."""

    def __init__(self, fld: str, detail: str = ""):
        self.field = fld
        message = f"could not parse field {fld!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class PolicyError(RuntimeError):
    """A policy could not produce candidates (transport failure, bad task).
    Defined here, not in ``policy``, so that search catches it without
    loading the policies."""


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


def _coerce_value(value: Any) -> Any:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value) if isinstance(value, float) else str(value)
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
    """The body as a map of text values. Besides ActionParseError, a body the
    decoders reject raises SyntaxError, and one past their limits (nested too
    deep, an integer too long to print) raises ValueError, SyntaxError,
    RecursionError or MemoryError."""
    try:
        parsed = json.loads(body, strict=False)
    except json.JSONDecodeError:
        try:
            parsed = ast.literal_eval(body)
        except (ValueError, TypeError):
            # A name, a call or an unhashable key. The decoder's message can
            # hold a node's address, which differs between processes.
            raise ActionParseError("Action Input", "not a JSON object or Python literal") from None
    if not isinstance(parsed, dict):
        raise ActionParseError("Action Input", "not a key-value map")
    return {str(k): _coerce_value(v) for k, v in parsed.items()}


def _action_input(padded: str, brace_start: int) -> tuple[dict[str, Any], int]:
    """The Action Input map whose body opens at ``padded[brace_start]``, and
    the index where the body ends. A JSON object is decoded in one call: in it,
    a quote or a brace outside a double-quoted string is structure, so the
    brace scanner would end the body at the same index. Any other body, or a
    failure of that call, goes to the scanner and the JSON-then-literal
    decoders, which give each text its record or its error."""
    try:
        parsed, end = _JSON_DECODER.raw_decode(padded, brace_start)
        return {str(k): _coerce_value(v) for k, v in parsed.items()}, end
    except (ValueError, RecursionError, MemoryError):  # ActionParseError included
        pass
    body = _scan_braced_body(padded, brace_start)
    try:
        return _parse_input_body(body), brace_start + len(body)
    except ActionParseError:
        raise
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        raise ActionParseError("Action Input", str(exc) or type(exc).__name__) from None


def _thought(padded: str) -> tuple[str, int]:
    """The first labeled thought of ``padded`` and where the ``\\nAction:`` that
    ends it starts. A ``Thought:`` label starts a line, after any spaces. Its
    thought runs from the first non-space character after it to the first
    ``\\nAction:`` after that character, right-stripped. Without one, only a
    ``\\nAction:`` just before that character ends a label's thought, as "".
    When the first label has no ``\\nAction:`` after it, no later label has one
    either, so it is looked for once."""
    action = None
    for label in _THOUGHT_LABEL_RE.finditer(padded):
        start = _SPACE_RE.match(padded, label.end()).end()
        if action is None:
            action = padded.find("\nAction:", start)
        if action >= 0:
            return padded[start:action].rstrip(), action
        if padded.startswith("\nAction:", start - 1):
            return "", start - 1
    raise ActionParseError("Thought")


def parse_action(text: str) -> ActionRecord:
    """Parse one REACT step; raises ActionParseError naming the failing field."""
    padded = "\n" + text.strip() + "\n"
    thought, action_start = _thought(padded)
    action_match = _ACTION_RE.search(padded, action_start)
    if action_match is None:
        raise ActionParseError("Action")
    label_match = _INPUT_LABEL_RE.search(padded, action_match.end())
    if label_match is None:
        raise ActionParseError("Action Input")
    brace_start = padded.find("{", label_match.end())
    if brace_start < 0:
        raise ActionParseError("Action Input", "no opening brace")
    action_input, input_end = _action_input(padded, brace_start)
    observation = None
    obs_start = padded.find(_OBSERVATION_LABEL, input_end)
    if obs_start >= 0:
        observation = padded[obs_start + len(_OBSERVATION_LABEL):].strip()
    return ActionRecord(
        thought=thought,
        action_name=action_match.group(1),
        action_input=action_input,
        observation=observation,
    )


# Canonical double-quoted rendering of an action input map, or of a value in
# one: json.dumps(value, ensure_ascii=False) with its encoder built once, not per call.
render_action_input = json.JSONEncoder(ensure_ascii=False).encode


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
