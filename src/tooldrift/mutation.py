"""Deterministic API mutation: derive drifted registry generations from a base.

Mutations rename tools and parameters (synonym substitution, special-character
insertion between words), and flip parameter formats between condition-string
and keyed-map form. Every base API is retired. The
same (base, plan) pair always serializes to identical bytes: all choices are
drawn from a SHA-256 stream keyed by (seed, api, field), never from global RNG
state, so outputs are stable across platforms and Python versions.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace

from .corpus import remap_args
from .env import SPECIAL_CHARS, ApiSpec, ParamSpec, ToolRegistry, invoke

MUTATION_KINDS = (
    "name_text",
    "name_special_char",
    "param_text",
    "param_special_char",
    "param_format",
)

# Synonyms are CamelCase-compatible and exclude the original word, so a
# touched name always differs from the one it replaces.
DEFAULT_SYNONYMS: dict[str, list[str]] = {
    "Load": ["Initialize", "Open", "Mount"],
    "DB": ["Database", "Datastore", "DataTable"],
    "Filter": ["Select", "Screen", "Narrow"],
    "Get": ["Fetch", "Retrieve", "Read"],
    "Value": ["Entry", "Field", "Cell"],
    "Calculate": ["Compute", "Evaluate", "Reckon"],
    "Name": ["Label", "Identifier", "Title"],
    "Condition": ["Criteria", "Clause", "Predicate"],
    "Column": ["Attribute", "Header", "FieldName"],
    "Expression": ["Formula", "Arithmetic", "Calculation"],
    "Retrieve": ["Fetch", "Collect", "Gather"],
    "Agenda": ["Schedule", "Calendar", "AgendaData"],
}

_CAMEL_WORD_RE = re.compile(
    r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[0-9]+|[a-z][a-z0-9]*"
)


class MutationError(ValueError):
    """Raised when a plan cannot be applied, e.g. an uncovered name word, or
    when its drift fails ``verify_mutation``."""


@dataclass(frozen=True)
class MutationPlan:
    """Seeded recipe for one drifted registry generation."""

    seed: int = 0
    kinds: frozenset[str] = frozenset({"name_text", "param_text", "param_format"})
    special_char: str = "_"
    synonyms: dict[str, list[str]] = field(default_factory=lambda: dict(DEFAULT_SYNONYMS))

    def __post_init__(self) -> None:
        if not self.kinds:
            raise MutationError("plan must select at least one mutation kind")
        unknown = set(self.kinds) - set(MUTATION_KINDS)
        if unknown:
            raise MutationError(f"unknown mutation kinds: {sorted(unknown)}")
        if self.special_char not in SPECIAL_CHARS:
            raise MutationError(f"special_char must be one of {SPECIAL_CHARS}")
        table = self.synonyms
        if not isinstance(table, dict) or not all(
            isinstance(words, list) and all(isinstance(w, str) for w in words) for words in table.values()
        ):
            raise MutationError("the synonym table must map each word to a list of words")


def split_words(name: str) -> list[str]:
    """Split an API or parameter name into words at special chars and case humps."""
    words: list[str] = []
    for segment in re.split(f"[{re.escape(''.join(SPECIAL_CHARS))}]", name):
        if segment:
            words.extend(_CAMEL_WORD_RE.findall(segment))
    return words


def draw(seed: int, *context: str) -> int:
    """A 64-bit value drawn from SHA-256 of the seed and the context strings."""
    payload = ":".join((str(seed),) + context).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _choose(options: list[str], seed: int, *context: str) -> str:
    return options[draw(seed, *context) % len(options)]


def _substitute_words(words: list[str], plan: MutationPlan, *context: str) -> list[str]:
    out = []
    for i, word in enumerate(words):
        options = plan.synonyms.get(word)
        if not options:
            raise MutationError(f"synonym table has no entry for word {word!r}")
        out.append(_choose(options, plan.seed, *context, f"word{i}", word))
    return out


def _rename(name: str, plan: MutationPlan, text_kind: str, char_kind: str, force: bool, *context: str) -> str:
    """Apply the selected textual/special-char kinds to one identifier.

    ``force`` covers two gaps that would otherwise leave a name unchanged:
    an API-name plan with no naming kind still needs a renamed successor
    (every mutated API must sit one deprecation hop away), and a single-word
    name has no boundary to insert a character into. Both fall back to
    synonym substitution.
    """
    words = split_words(name)
    substitute = text_kind in plan.kinds
    insert_char = char_kind in plan.kinds or (force and not substitute)
    if insert_char and len(words) < 2 and not substitute:
        substitute = True
    if substitute:
        words = _substitute_words(words, plan, *context)
    joiner = plan.special_char if insert_char and len(words) > 1 else ""
    result = joiner.join(words)
    if force and result == name:
        # the marker character was already present; vary the text instead
        words = _substitute_words(split_words(name), plan, *context)
        result = joiner.join(words)
    return result


def _convert_example(param: ParamSpec) -> ParamSpec:
    """Flip a format-switchable param between its text and map forms."""
    if param.alt_kind is None:
        return param
    return replace(
        param,
        kind=param.alt_kind,
        example=param.alt_example or "",
        alt_kind=param.kind,
        alt_example=param.example,
    )


def _mutate_param(param: ParamSpec, plan: MutationPlan, api_name: str, index: int) -> ParamSpec:
    out = param
    if "param_format" in plan.kinds and param.alt_kind is not None:
        out = _convert_example(out)
    if "param_text" in plan.kinds or "param_special_char" in plan.kinds:
        new_name = _rename(
            out.name, plan, "param_text", "param_special_char", False, api_name, f"param{index}", out.name
        )
        out = replace(out, name=new_name)
    return out


def mutate_registry(base: ToolRegistry, plan: MutationPlan) -> ToolRegistry:
    """Derive a new registry generation; pure in (serialized base, plan).
    ``ToolRegistry`` rejects a drift that breaks its rules: a base that
    retires APIs, a name left unchanged or deployed twice."""
    if not base.apis:
        raise MutationError("base registry has no API to mutate")
    apis: dict[str, ApiSpec] = {}
    deprecated: dict[str, str] = {}
    for name in sorted(base.apis):
        spec = base.apis[name]
        new_name = _rename(name, plan, "name_text", "name_special_char", True, name, "api")
        try:
            new_spec = replace(
                spec,
                name=new_name,
                params=tuple(_mutate_param(p, plan, name, i) for i, p in enumerate(spec.params)),
            )
        except ValueError as exc:
            raise MutationError(f"mutated {name!r}: {exc}") from None
        apis[new_name] = new_spec
        deprecated[name] = new_name
    return ToolRegistry(apis=apis, deprecated=deprecated, generation=f"mutated-{plan.seed}", base=base)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_mutation(mutated: ToolRegistry) -> None:
    """Raise MutationError unless each successor in ``mutated`` answers its
    retired base API's example arguments, carried onto its signature, as
    that API does on the base. The rest of a valid drift is checked by
    ``ToolRegistry`` when it is built (lineage, arity, names)."""
    base = mutated.base
    for old, successor in mutated.deprecated.items():
        spec = base.apis[old]
        probe = spec.example_args()
        base_obs = invoke(base, old, probe)
        args = remap_args(probe, spec.param_names(), mutated.apis[successor].example_args())
        mut_obs = invoke(mutated, successor, args)
        if (base_obs.kind, base_obs.text) != (mut_obs.kind, mut_obs.text):
            raise MutationError(f"behavior drift: {old} -> {successor} ({base_obs.kind}/{mut_obs.kind})")
