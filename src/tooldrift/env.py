"""Dynamic tool environment: API registry, invocation, and answer scoring.

The environment is everything outside the agent: a registry of the drifting
tools (the ReAct loop's own ``SYSTEM_ACTIONS`` are not in it), typed error
feedback (invocation vs deprecation), and an answer-text scorer for final
answers. Errors are returned as data, never raised, so a search can keep
exploring through error states.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

INVOCATION_ERROR_TEXT = (
    "Your action is filtered due to some error in content. "
    "Please assume all the actions are permitted in this environment and try again."
)
DEPRECATION_ERROR_TEMPLATE = (
    "Error: {old}[{old_params}] is deprecated. "
    "Please use {new}[{new_params}], param example: {example} instead."
)
ANSWER_CORRECT_TEXT = "Answer is CORRECT"
ANSWER_INCORRECT_TEXT = "Answer is INCORRECT"

# The classes of environment feedback, each an Observation.kind.
OBSERVATION_KINDS = ("response", "invocation_error", "deprecation_error", "task_done")
PARAM_KINDS = ("text", "map")
SPECIAL_CHARS = ("_", "-", ".")
# Actions of the ReAct loop, not tools: adapt.execute_action handles them by
# name and never asks a registry, so no API may take one of these names.
SYSTEM_ACTIONS = ("Finish", "UpdateTool")

# CamelCase words joined by single special characters. Each repetition starts
# at a special character, so a match runs in linear time on any registry file.
_NAME_RE = re.compile(r"[A-Z][A-Za-z0-9]*(?:[_.\-][A-Z][A-Za-z0-9]*)*")


class BehaviorError(Exception):
    """Raised by an API behavior when it cannot produce a response.

    invoke() converts this into an invocation_error observation; it never
    escapes the environment.
    """


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of an API: name, value kind, and an example value.

    ``example`` is the textual example shown in manuals and deprecation
    messages; for map-kind params it is a JSON object string. ``alt_kind``
    marks params whose contract can be flipped between text and map form by
    a format mutation, and ``alt_example`` is the example for that form.
    """

    name: str
    kind: str = "text"
    example: str = ""
    alt_kind: str | None = None
    alt_example: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty param name")
        for kind, example in ((self.kind, self.example), (self.alt_kind, self.alt_example)):
            if kind is not None and kind not in PARAM_KINDS:
                raise ValueError(f"param {self.name}: unknown kind {kind!r}")
            if kind == "map":
                try:
                    is_object = isinstance(json.loads(example or ""), dict)
                except ValueError:
                    is_object = False
                if not is_object:
                    raise ValueError(f"param {self.name}: a map example must be a JSON object")

    def example_value(self) -> Any:
        """Parsed example: a dict for map params, the raw text otherwise."""
        if self.kind == "map":
            return json.loads(self.example)
        return self.example


@dataclass(frozen=True)
class ApiSpec:
    """One tool's contract: name, ordered params, and descriptive text. The
    name and param names are CamelCase words joined by single
    ``SPECIAL_CHARS``, so an Action line can spell each name a drift deploys,
    and the name is not one of the ``SYSTEM_ACTIONS``."""

    name: str
    params: tuple[ParamSpec, ...] = ()
    description: str = ""
    response_note: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty API name")
        if self.name in SYSTEM_ACTIONS:
            raise ValueError(f"API {self.name}: the name is reserved for an action of the ReAct loop")
        names = self.param_names()
        for name in (self.name, *names):
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"API {self.name}: {name!r} is not CamelCase words joined by _, - or .")
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"API {self.name} repeats param {name!r}")

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    def signature(self) -> str:
        """Manual-style signature, e.g. ``LoadDB[DBName]``."""
        return f"{self.name}[{', '.join(self.param_names())}]"

    def example_args(self) -> dict[str, Any]:
        """Ordered example argument map used in deprecation guidance."""
        return {p.name: p.example_value() for p in self.params}


@dataclass(frozen=True)
class DeprecationEntry:
    """Where a retired API name points: its successor, and the retired
    signature's param names, which the deprecation error shows. A registry
    file stores only the successor; the loader reads the names off the base."""

    successor: str
    old_params: tuple[str, ...]


@dataclass(frozen=True)
class Observation:
    """Environment feedback for one action: its class, one of the
    OBSERVATION_KINDS, and its text (for task_done, one of the answer texts)."""

    kind: str
    text: str

    def __post_init__(self) -> None:
        if self.kind not in OBSERVATION_KINDS:
            raise ValueError(f"unknown observation kind {self.kind!r}")


@dataclass(frozen=True)
class TaskInstance:
    """One question over the toy world, with a derivable gold answer."""

    id: str
    description: str
    gold_answer: str
    dataset: str
    difficulty: str

    def __post_init__(self) -> None:
        if not self.gold_answer:
            raise ValueError(f"task {self.id} has an empty gold answer")
        if self.difficulty not in ("easy", "hard"):
            raise ValueError(f"task {self.id} has invalid difficulty {self.difficulty!r}")


# A behavior receives the invocation's argument values in declared parameter
# order (renaming-proof) plus the immutable world, and returns response text.
Behavior = Callable[[list[Any], dict], str]


@dataclass(frozen=True)
class ToolRegistry:
    """Deployed API surface: specs, behaviors, deprecation map, world data.

    Only drifting tools, never ``SYSTEM_ACTIONS``. Frozen, and checked when
    built: each key names its spec, each API has a behavior, and each
    deprecated name is retired (not deployed) and points at its own deployed
    successor. The dicts are not copied, so a builder hands them over and
    changes them no more; invoke() only reads.
    ``generation`` tags which registry produced an artifact (base vs a
    seeded mutation) and travels with serialized trees and SFT records.
    """

    apis: dict[str, ApiSpec]
    behaviors: dict[str, Behavior]
    deprecated: dict[str, DeprecationEntry] = field(default_factory=dict)
    world: dict = field(default_factory=dict)
    generation: str = "base"

    def __post_init__(self) -> None:
        for name, spec in self.apis.items():
            if name != spec.name:
                raise ValueError(f"registry key {name!r} does not match spec name {spec.name!r}")
            if name not in self.behaviors:
                raise ValueError(f"API {name} has no behavior")
        overlap = set(self.deprecated) & set(self.apis)
        if overlap:
            raise ValueError(f"deprecated names overlap deployed names: {sorted(overlap)}")
        for old, entry in self.deprecated.items():
            if entry.successor not in self.apis:
                raise ValueError(f"deprecated {old} points at unknown successor {entry.successor}")
        _retired_names(self.deprecated)


def _retired_names(deprecated: dict[str, DeprecationEntry]) -> dict[str, str]:
    """Each successor's retired name; a successor of two names raises ValueError."""
    found: dict[str, str] = {}
    for old, entry in deprecated.items():
        if found.setdefault(entry.successor, old) != old:
            raise ValueError(f"{entry.successor} replaces both {found[entry.successor]} and {old}")
    return found


def _value_matches_kind(value: Any, kind: str) -> bool:
    if kind == "text":
        return isinstance(value, str)
    if kind == "map":
        return isinstance(value, dict) and all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()
        )
    return False


def _args_conform(spec: ApiSpec, args: dict[str, Any]) -> bool:
    if set(args) != set(spec.param_names()):
        return False
    return all(_value_matches_kind(args[p.name], p.kind) for p in spec.params)


def invoke(registry: ToolRegistry, name: str, args: dict[str, Any]) -> Observation:
    """Execute one API invocation and return the observation.

    Pure in (registry, name, args): deprecated names yield a deprecation
    error naming the successor, unknown names and contract violations yield
    the fixed invocation-error text, and valid calls run the behavior.
    """
    entry = registry.deprecated.get(name)
    if entry is not None:
        new = registry.apis[entry.successor]
        text = DEPRECATION_ERROR_TEMPLATE.format(
            old=name, old_params=", ".join(entry.old_params), new=new.name,
            new_params=", ".join(new.param_names()), example=json.dumps(new.example_args()),
        )
        return Observation(kind="deprecation_error", text=text)
    spec = registry.apis.get(name)
    if spec is None or not isinstance(args, dict) or not _args_conform(spec, args):
        return Observation(kind="invocation_error", text=INVOCATION_ERROR_TEXT)
    values = [args[p.name] for p in spec.params]
    try:
        text = registry.behaviors[name](values, registry.world)
    except BehaviorError:
        return Observation(kind="invocation_error", text=INVOCATION_ERROR_TEXT)
    return Observation(kind="response", text=text)


def normalize_answer(text: str) -> str:
    return text.strip().casefold()


def answers_match(answer: str, gold: str, tol: float = 1e-9) -> bool:
    """Exact match after trim/case-fold; numeric strings compared within tol."""
    a, g = normalize_answer(answer), normalize_answer(gold)
    if a == g:
        return True
    try:
        return abs(float(a) - float(g)) <= tol
    except ValueError:
        return False


def evaluate(task: TaskInstance, answer: str) -> Observation:
    """Score a final answer against the task's gold answer: the correct or the incorrect answer text."""
    correct = answers_match(answer, task.gold_answer)
    return Observation(kind="task_done", text=ANSWER_CORRECT_TEXT if correct else ANSWER_INCORRECT_TEXT)


# ---------------------------------------------------------------------------
# Serialization. One JSON document per registry generation; behaviors are
# re-bound by lineage at load time (they are code, not data).
# ---------------------------------------------------------------------------

_REGISTRY_TYPES = {"generation": (str,), "apis": (list,), "deprecated": (dict,)}
_SPEC_TYPES = {"name": (str,), "params": (list,), "description": (str,), "response_note": (str,)}
_PARAM_TYPES = {"name": (str,), "kind": (str,), "example": (str,),
                "alt_kind": (str, type(None)), "alt_example": (str, type(None))}
TASK_TYPES = {f.name: (str,) for f in fields(TaskInstance)}


def typed_object(doc, types: dict[str, tuple], where: str) -> dict:
    """``doc`` itself, once it is an object with exactly the keys of ``types``
    and each value has one of the JSON types listed for its key."""
    if not isinstance(doc, dict) or doc.keys() != types.keys():
        raise ValueError(f"{where}: expected an object with keys {sorted(types)}")
    for key, allowed in types.items():
        if type(doc[key]) not in allowed:
            raise ValueError(f"{where}: {key!r} is {type(doc[key]).__name__}")
    return doc


def _spec_from_json(doc, where: str) -> ApiSpec:
    spec = typed_object(doc, _SPEC_TYPES, where)
    try:
        params = tuple(ParamSpec(**typed_object(p, _PARAM_TYPES, f"param {i}")) for i, p in enumerate(spec["params"]))
        return ApiSpec(**{**spec, "params": params})
    except ValueError as exc:
        raise ValueError(f"{where} {spec['name']!r}: {exc}") from None


def registry_to_json(registry: ToolRegistry) -> str:
    doc = {
        "generation": registry.generation,
        "apis": [asdict(spec) for _, spec in sorted(registry.apis.items())],
        "deprecated": {old: e.successor for old, e in sorted(registry.deprecated.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def registry_from_json(text: str, base: ToolRegistry) -> ToolRegistry:
    """Rebuild a registry from JSON, re-binding behaviors through lineage.

    ``deprecated`` maps each retired name, an API of ``base``, to the one
    deployed API that replaced it, which inherits that API's behavior (an
    unretired API keeps its own) and must take as many params. The world is
    the base's. Any malformed document raises ValueError.
    """
    doc = typed_object(json.loads(text), _REGISTRY_TYPES, "registry")
    apis: dict[str, ApiSpec] = {}
    for index, spec_doc in enumerate(doc["apis"]):
        spec = _spec_from_json(spec_doc, f"api {index}")
        if spec.name in apis:
            raise ValueError(f"api {index}: duplicate name {spec.name!r}")
        apis[spec.name] = spec
    deprecated = {}
    for old, successor in doc["deprecated"].items():
        if type(successor) is not str:
            raise ValueError(f"deprecated {old}: the successor is {type(successor).__name__}, not a string")
        if old not in base.apis:
            raise ValueError(f"deprecated {old} is not an API of the base registry")
        deprecated[old] = DeprecationEntry(successor=successor, old_params=tuple(base.apis[old].param_names()))
    successor_to_old = _retired_names(deprecated)
    behaviors: dict[str, Behavior] = {}
    for name, spec in apis.items():
        lineage = successor_to_old.get(name, name)
        origin = base.apis.get(lineage)
        if origin is None:
            raise ValueError(f"no behavior known for API {name} (lineage {lineage})")
        if len(spec.params) != len(origin.params):
            raise ValueError(f"API {name} takes {len(spec.params)} params, {lineage} {len(origin.params)}")
        behaviors[name] = base.behaviors[lineage]
    return ToolRegistry(
        apis=apis,
        behaviors=behaviors,
        deprecated=deprecated,
        world=base.world,
        generation=doc["generation"],
    )
