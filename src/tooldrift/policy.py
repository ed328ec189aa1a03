"""Action proposers: deterministic scripted agents and a remote chat endpoint.

Scripted policies are table-driven stand-ins for an LLM. The adaptive one
follows each task's reference tool plan, reads deprecation guidance out of
observations, retries through successor APIs, and records what it learned
with UpdateTool; the rigid one replays the base plan no matter what the
environment says. Both are pure functions of the rendered state, which makes
them usable as oracles in tests.

Framework decisions (the reflection gate, ``inspect``) read the typed
``Observation.kind`` on each step. The scripted agents, like an LLM, see only
the prompt text: they recognise errors solely by the environment's exact
templates (``parse_deprecation_guidance`` matches the whole deprecation
message; an invocation error equals ``INVOCATION_ERROR_TEXT``). Steps parsed
back from a rendered prompt carry no kind, and a completion server that
rebuilds the state that way still gets the same answers.

The remote policy retries a failed request a fixed ``RemotePolicy.MAX_RETRIES``
times. It has no request limit of its own: ``search --jobs`` shares one policy
across its worker threads, so the number of jobs bounds the requests in flight.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import re
import time
from dataclasses import dataclass, field

import requests

from .adapt import execute_action
from .corpus import Corpus, PlannedCall, load_corpus, remap_args
from .env import INVOCATION_ERROR_TEXT, TaskInstance, ToolRegistry
from .react import StateRecord, parse_action, render_prompt

log = logging.getLogger(__name__)
POLICY_KINDS = ("scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive", "remote")

_DEPRECATION_MSG_RE = re.compile(
    r"Error: ([A-Za-z0-9_.\-]+)\[.*?\] is deprecated\. "
    r"Please use ([A-Za-z0-9_.\-]+)\[.*?\], param example: (\{.*\}) instead\.",
    re.DOTALL,
)
_UPDATE_DESC_RE = re.compile(
    r"^([A-Za-z0-9_.\-]+)\[.*?\], which is an updated version of ([A-Za-z0-9_.\-]+)\. "
    r"For example, (\{.*\})\.$",
    re.DOTALL,
)


class PolicyError(RuntimeError):
    """A policy could not produce candidates (transport failure, bad task)."""


class UnknownTaskError(PolicyError):
    """A scripted policy was asked about a task outside its corpus."""


@dataclass(frozen=True)
class PolicyConfig:
    """How to build a policy; a non-empty endpoint is required exactly for the
    remote kind."""

    kind: str = "scripted_adaptive"
    endpoint: str | None = None
    temperature: float = 0.7
    request_timeout: float = 10.0
    emit_tool_updates: bool = True

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if (self.kind == "remote") != bool(self.endpoint):
            raise ValueError("endpoint is required exactly when kind is remote")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ValueError("request_timeout must be a finite positive number")


def candidate_text(thought: str, action_name: str, action_input: dict) -> str:
    return f"Thought: {thought}\nAction: {action_name}\nAction Input: {json.dumps(action_input, ensure_ascii=False)}"


def update_tool_desc(successor: str, old_name: str, example: dict) -> str:
    """The description an agent appends after mastering a successor API."""
    signature = f"{successor}[{', '.join(example)}]"
    return (
        f"{signature}, which is an updated version of {old_name}. "
        f"For example, {json.dumps(example, ensure_ascii=False)}."
    )


@functools.lru_cache(maxsize=1024)
def parse_deprecation_guidance(text: str | None) -> tuple[str, str, dict] | None:
    """(old name, successor name, param example) if the text is exactly a
    deprecation message, else None. Results are cached, so the example dict
    is shared and must not be mutated."""
    match = _DEPRECATION_MSG_RE.fullmatch(text or "")
    if match is None:
        return None
    old, new, example_json = match.groups()
    try:
        example = json.loads(example_json)
    except json.JSONDecodeError:
        return None
    return old, new, example


def parse_update_desc(entry: str) -> tuple[str, str, dict] | None:
    """Extract (successor, old name, example) from a manual entry, if it is one."""
    match = _UPDATE_DESC_RE.match(entry)
    if match is None:
        return None
    new, old, example_json = match.groups()
    try:
        example = json.loads(example_json)
    except json.JSONDecodeError:
        return None
    return old, new, example


def successor_map(state: StateRecord) -> dict[str, tuple[str, dict]]:
    """All old-name -> (successor, example) pairs visible from a state.

    Learned tool descriptions in the manual are scanned first, then
    deprecation errors along the step history; later guidance wins.
    """
    found: dict[str, tuple[str, dict]] = {}
    for entry in state.tool_manual:
        parsed = parse_update_desc(entry)
        if parsed is not None:
            old, new, example = parsed
            found[old] = (new, example)
    for step in state.steps:
        parsed = parse_deprecation_guidance(step.observation)
        if parsed is not None:
            old, new, example = parsed
            found[old] = (new, example)
    return found


def reads_as_error(text: str | None) -> bool:
    """Whether an observation text is one of the environment's error messages."""
    return text == INVOCATION_ERROR_TEXT or parse_deprecation_guidance(text) is not None


class ScriptedPolicy:
    """Shared plumbing for the table-driven policies."""

    def __init__(self, corpus: Corpus | None = None):
        self.corpus = corpus if corpus is not None else load_corpus()

    def propose(self, state: StateRecord, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        return [self.next_step(state)] * k

    def _plan(self, state: StateRecord):
        plan = self.corpus.plans.get(state.task.id)
        if plan is None:
            raise UnknownTaskError(f"no plan for task {state.task.id!r}")
        return plan

    @staticmethod
    def _progress(state: StateRecord) -> int:
        done = 0
        for step in state.steps:
            if step.action_name != "UpdateTool" and not reads_as_error(step.observation):
                done += 1
        return done

    def _base_param_order(self, tool: str) -> list[str]:
        return self.corpus.base_registry.apis[tool].param_names()

    def next_step(self, state: StateRecord) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


class ScriptedRigidPolicy(ScriptedPolicy):
    """Replays the base tool plan verbatim: deprecation feedback is ignored
    and the same outdated invocation is repeated after any error."""

    def next_step(self, state: StateRecord) -> str:
        plan = self._plan(state)
        done = self._progress(state)
        if done >= len(plan.calls):
            return candidate_text(plan.finish_thought, "Finish", {"answer": plan.answer})
        call = plan.calls[done]
        return candidate_text(call.thought, call.tool, call.args)


class ScriptedAdaptivePolicy(ScriptedPolicy):
    """Follows the plan but adapts to feedback: retries deprecated calls via
    the advertised successor, repairs malformed invocations, and appends an
    UpdateTool summary after the first successful use of a new API."""

    def __init__(self, corpus: Corpus | None = None, emit_tool_updates: bool = True):
        super().__init__(corpus)
        self.emit_tool_updates = emit_tool_updates

    def _translated_call(self, call: PlannedCall, successors: dict[str, tuple[str, dict]]):
        mapped = successors.get(call.tool)
        if mapped is None:
            return call.tool, call.args, call.thought
        new_name, example = mapped
        args = remap_args(call.args, self._base_param_order(call.tool), example)
        thought = f"{call.thought} The manual says {call.tool} was replaced by {new_name}, so I will use that."
        return new_name, args, thought

    def _pending_update(self, state: StateRecord) -> str | None:
        if not self.emit_tool_updates or not state.steps:
            return None
        last = state.steps[-1]
        if last.action_name == "UpdateTool" or reads_as_error(last.observation):
            return None
        for old, (new, example) in successor_map(state).items():
            if last.action_name != new:
                continue
            desc = update_tool_desc(new, old, example)
            if desc not in state.tool_manual:
                thought = (
                    f"The {new} API works as intended. Before moving on, let me update "
                    f"the tool description for the new API."
                )
                return candidate_text(thought, "UpdateTool", {"newtool_desc": desc})
        return None

    def next_step(self, state: StateRecord) -> str:
        plan = self._plan(state)
        done = self._progress(state)
        successors = successor_map(state)
        last = state.last_observation()
        guidance = parse_deprecation_guidance(last)

        if guidance is not None and done < len(plan.calls):
            old, new, example = guidance
            call = plan.calls[done]
            args = remap_args(call.args, self._base_param_order(call.tool), example)
            thought = (
                f"The {old} tool has been deprecated. I should use {new} "
                f"with its new parameters instead."
            )
            return candidate_text(thought, new, args)

        if last == INVOCATION_ERROR_TEXT and done < len(plan.calls):
            name, args, _ = self._translated_call(plan.calls[done], successors)
            thought = (
                "The previous invocation was malformed. Let me correct the action "
                "input and try again."
            )
            return candidate_text(thought, name, args)

        update = self._pending_update(state)
        if update is not None:
            return update

        if done >= len(plan.calls):
            return candidate_text(plan.finish_thought, "Finish", {"answer": plan.answer})
        name, args, thought = self._translated_call(plan.calls[done], successors)
        return candidate_text(thought, name, args)


class ScriptedSemiAdaptivePolicy(ScriptedAdaptivePolicy):
    """Adaptive, but always fumbles its first invocation with a bad parameter
    name, so every task needs one invocation-error recovery."""

    def next_step(self, state: StateRecord) -> str:
        if not state.steps:
            plan = self._plan(state)
            call = plan.calls[0]
            first, *rest = call.args
            broken = {f"Wrong{first}": call.args[first], **{k: call.args[k] for k in rest}}
            return candidate_text(call.thought, call.tool, broken)
        return super().next_step(state)


class RemotePolicy:
    """Minimal HTTP+JSON completion client.

    Request: {"prompt": text, "n": int, "temperature": float, "stop": [text]}.
    Response: {"choices": [{"text": ...}, ...]} with exactly n choices. The
    stop sequence is the Observation label so the model never invents
    environment feedback.
    """

    STOP_SEQUENCES = ["Observation:"]
    MAX_RETRIES = 2

    def __init__(self, config: PolicyConfig, session: requests.Session | None = None):
        if config.kind != "remote":
            raise ValueError("RemotePolicy requires a remote PolicyConfig")
        self.config = config
        self.session = session or requests.Session()

    def propose(self, state: StateRecord, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        payload = {
            "prompt": render_prompt(state),
            "n": k,
            "temperature": self.config.temperature,
            "stop": self.STOP_SEQUENCES,
        }
        last_error: Exception | None = None
        for attempt in range(self.MAX_RETRIES + 1):
            try:
                start = time.perf_counter()
                response = self.session.post(
                    self.config.endpoint, json=payload, timeout=self.config.request_timeout
                )
                response.raise_for_status()
                log.debug("POST %s took %.1f ms", self.config.endpoint, 1000 * (time.perf_counter() - start))
                reply = response.json()
                choices = reply.get("choices", []) if isinstance(reply, dict) else None
                if not isinstance(choices, list) or not all(
                    isinstance(c, dict) and isinstance(c.get("text"), str) for c in choices
                ):
                    raise ValueError('endpoint reply is not {"choices": [{"text": <string>}, ...]}')
                texts = [c["text"] for c in choices]
                if len(texts) < k:
                    raise PolicyError(f"endpoint returned {len(texts)} candidates, wanted {k}")
                return texts[:k]
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < self.MAX_RETRIES:
                    log.warning("remote policy attempt %d failed, retrying: %s", attempt + 1, exc)
                    time.sleep(0.05 * (attempt + 1))
        raise PolicyError(f"remote policy failed after retries: {last_error}")


def build_policy(config: PolicyConfig, corpus: Corpus | None = None):
    if config.kind == "scripted_adaptive":
        return ScriptedAdaptivePolicy(corpus, emit_tool_updates=config.emit_tool_updates)
    if config.kind == "scripted_rigid":
        return ScriptedRigidPolicy(corpus)
    if config.kind == "scripted_semi_adaptive":
        return ScriptedSemiAdaptivePolicy(corpus, emit_tool_updates=config.emit_tool_updates)
    return RemotePolicy(config)


@dataclass
class EpisodeResult:
    reward: int
    state: StateRecord
    steps: int = field(init=False)

    def __post_init__(self) -> None:
        self.steps = len(self.state.steps)


def run_greedy_episode(
    policy,
    task: TaskInstance,
    registry: ToolRegistry,
    manual: list[str],
    demos: list[str] = (),
    max_steps: int = 15,
    no_tool_update: bool = False,
) -> EpisodeResult:
    """Follow candidate 1 at every step until Finish or the step budget.

    This is the tree-free closed loop used as the adaptation oracle: the
    adaptive policy must end every builtin task with reward +1 here, on the
    base registry and on any mutated generation.
    """
    state = StateRecord(task=task, tool_manual=tuple(manual), demos=tuple(demos))
    for _ in range(max_steps):
        text = policy.propose(state, 1)[0]
        record = parse_action(text)
        outcome = execute_action(state, record, registry, no_tool_update)
        state = outcome.state
        if outcome.terminal:
            return EpisodeResult(reward=outcome.reward or -1, state=state)
    return EpisodeResult(reward=-1, state=state)
