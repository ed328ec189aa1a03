from __future__ import annotations

import configparser
import hashlib
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift import cli
from tooldrift.corpus import build_world
from tooldrift.env import (
    SPECIAL_CHARS,
    ApiSpec,
    ParamSpec,
    ToolRegistry,
    invoke,
    registry_from_json,
    registry_to_json,
)
from tooldrift.mutation import (
    DEFAULT_SYNONYMS,
    MUTATION_KINDS,
    MutationError,
    MutationPlan,
    mutate_registry,
    split_words,
    verify_mutation,
)
from tooldrift.react import parse_action


def _echo(values, world):
    return f"echo: {values[0]}"


@pytest.fixture()
def agenda_fetch_registry():
    """Minimal base with a two-word API name, for naming-rule tests."""
    apis = {
        "RetrieveAgenda": ApiSpec(
            name="RetrieveAgenda",
            params=(ParamSpec(name="Keyword", example="meeting"),),
            description="Retrieves agenda entries for a keyword.",
        ),
    }
    synonyms = dict(DEFAULT_SYNONYMS)
    synonyms["Keyword"] = ["SearchTerm", "QueryText"]
    return (
        ToolRegistry(apis=apis, behaviors={"RetrieveAgenda": _echo}, world=build_world()),
        synonyms,
    )


class TestSplitWords:
    @pytest.mark.parametrize(
        "name,words",
        [
            ("LoadDB", ["Load", "DB"]),
            ("DBName", ["DB", "Name"]),
            ("RetrieveAgenda", ["Retrieve", "Agenda"]),
            ("Fetch_Agenda_Data", ["Fetch", "Agenda", "Data"]),
            ("Get.Value", ["Get", "Value"]),
            ("Calculate", ["Calculate"]),
        ],
    )
    def test_word_boundaries(self, name, words):
        assert split_words(name) == words


class TestMutateRegistry:
    def test_name_text_creates_deprecated_successor(self, base_registry):
        plan = MutationPlan(seed=11, kinds=frozenset({"name_text"}))
        mutated = mutate_registry(base_registry, plan)
        entry = mutated.deprecated["LoadDB"]
        assert entry.successor in mutated.apis
        assert entry.successor != "LoadDB"
        assert "_" not in entry.successor
        assert "LoadDB" not in mutated.apis

    def test_special_char_only_between_words(self, agenda_fetch_registry):
        base, synonyms = agenda_fetch_registry
        plan = MutationPlan(seed=1, kinds=frozenset({"name_special_char"}), synonyms=synonyms)
        mutated = mutate_registry(base, plan)
        assert mutated.deprecated["RetrieveAgenda"].successor == "Retrieve_Agenda"

    def test_text_plus_special_char(self, agenda_fetch_registry):
        base, synonyms = agenda_fetch_registry
        plan = MutationPlan(
            seed=1, kinds=frozenset({"name_text", "name_special_char"}), synonyms=synonyms
        )
        mutated = mutate_registry(base, plan)
        successor = mutated.deprecated["RetrieveAgenda"].successor
        for segment in successor.split("_"):
            assert re.fullmatch(r"[A-Z][A-Za-z0-9]*", segment)
        assert successor != "Retrieve_Agenda"

    def test_param_format_switches_condition_form(self, base_registry):
        plan = MutationPlan(seed=3, kinds=frozenset({"param_format"}))
        mutated = mutate_registry(base_registry, plan)
        successor = mutated.deprecated["FilterDB"].successor
        params = {p.name: p for p in mutated.apis[successor].params}
        condition = [p for p in params.values() if p.kind == "map"]
        assert len(condition) == 1
        example = mutated.apis[successor].example_args()
        map_values = [v for v in example.values() if isinstance(v, dict)]
        assert map_values and "condition1" in map_values[0]

    def test_param_format_flips_back_from_map_form(self):
        apis = {
            "FilterDB": ApiSpec(
                name="FilterDB",
                params=(
                    ParamSpec(
                        name="FilterCondition",
                        kind="map",
                        example='{"condition1": "Date=2022-09-05"}',
                        alt_kind="text",
                        alt_example="Date=2022-09-05",
                    ),
                ),
            ),
        }
        base = ToolRegistry(apis=apis, behaviors={"FilterDB": _echo}, world=build_world())
        mutated = mutate_registry(base, MutationPlan(seed=4, kinds=frozenset({"param_format"})))
        successor = mutated.deprecated["FilterDB"].successor
        param = mutated.apis[successor].params[0]
        assert param.kind == "text"
        assert param.example == "Date=2022-09-05"

    @pytest.mark.parametrize(
        "words", [{"Load": ["Update"], "DB": ["Tool"]}, {"Calculate": ["Finish"]}],
        ids=["load_db_as_update_tool", "calculate_as_finish"],
    )
    def test_a_system_action_name_is_reserved(self, base_registry, words):
        """A drift that would deploy LoadDB as UpdateTool, or Calculate as
        Finish, is rejected: no API takes the name of a ReAct-loop action."""
        plan = MutationPlan(seed=1, kinds=frozenset({"name_text"}), synonyms={**DEFAULT_SYNONYMS, **words})
        with pytest.raises(MutationError, match="reserved for an action of the ReAct loop"):
            mutate_registry(base_registry, plan)

    def test_uncovered_word_is_an_explicit_error(self, base_registry):
        table = {k: v for k, v in DEFAULT_SYNONYMS.items() if k != "Load"}
        plan = MutationPlan(seed=11, kinds=frozenset({"name_text"}), synonyms=table)
        with pytest.raises(MutationError, match="'Load'"):
            mutate_registry(base_registry, plan)

    def test_empty_kinds_rejected(self):
        with pytest.raises(MutationError):
            MutationPlan(seed=1, kinds=frozenset())

    def test_bad_special_char_rejected(self):
        with pytest.raises(MutationError):
            MutationPlan(seed=1, special_char="@")


class TestDeterminism:
    def test_same_seed_byte_identical(self, base_registry):
        a = mutate_registry(base_registry, MutationPlan(seed=11))
        b = mutate_registry(base_registry, MutationPlan(seed=11))
        assert registry_to_json(a) == registry_to_json(b)

    def test_different_seeds_differ(self, base_registry):
        a = mutate_registry(base_registry, MutationPlan(seed=11))
        b = mutate_registry(base_registry, MutationPlan(seed=42))
        assert registry_to_json(a) != registry_to_json(b)

    def test_both_seeded_outputs_verify(self, base_registry):
        for seed in (11, 42):
            verify_mutation(base_registry, mutate_registry(base_registry, MutationPlan(seed=seed)))

    def test_deprecation_texts_are_pinned(self, base_registry):
        """First 16 hex chars of sha256 over the text each base API's example
        call reads on a drifted registry, each ended by a NUL: the default
        plans of seeds 0-19, then the all-kinds plans of the same seeds; within
        a plan, LoadDB, FilterDB, GetValue, Calculate. 160 deprecation errors,
        each naming the retired signature and its successor's example."""
        plans = [MutationPlan(seed=s) for s in range(20)]
        plans += [MutationPlan(seed=s, kinds=frozenset(MUTATION_KINDS)) for s in range(20)]
        digest = hashlib.sha256()
        for plan in plans:
            mutated = mutate_registry(base_registry, plan)
            for api in ("LoadDB", "FilterDB", "GetValue", "Calculate"):
                obs = invoke(mutated, api, base_registry.apis[api].example_args())
                assert obs.kind == "deprecation_error"
                digest.update(obs.text.encode("utf-8") + b"\0")
        assert digest.hexdigest()[:16] == "32a17eea8eb9daaa"


# Words a drawn synonym table may use besides the default ones: the empty word,
# words no name may hold (a space, a lowercase start), and words that already
# occur in the base names, so renamed params can collide.
_ODD_WORDS = ["", "Open Now", "tch", "DB", "Name", "Value", "Filter"]


@given(
    kinds=st.frozensets(st.sampled_from(MUTATION_KINDS), min_size=1),
    special_char=st.sampled_from(SPECIAL_CHARS),
    seed=st.integers(0, 2**32),
    synonyms=st.fixed_dictionaries(
        {
            word: st.one_of(st.just(options), st.lists(st.sampled_from(_ODD_WORDS + options), min_size=1, max_size=3))
            for word, options in DEFAULT_SYNONYMS.items()
        }
    ),
)
def test_every_registry_a_plan_builds_loads_back(base_registry, kinds, special_char, seed, synonyms):
    """A plan either fails to mutate, or its registry's file loads back to the
    same specs and deprecation map: one rule for a valid registry. Such a
    registry passes the drift check, and holds by construction what the check
    no longer looks at: one deprecation hop per base API, each successor
    deployed, the same arity; each deployed name is one an Action line can
    spell."""
    plan = MutationPlan(seed=seed, kinds=kinds, special_char=special_char, synonyms=synonyms)
    try:
        mutated = mutate_registry(base_registry, plan)
    except ValueError:
        return
    loaded = registry_from_json(registry_to_json(mutated), base_registry)
    assert (loaded.apis, loaded.deprecated) == (mutated.apis, mutated.deprecated)
    verify_mutation(base_registry, mutated)
    assert set(mutated.deprecated) == set(base_registry.apis)
    assert {entry.successor for entry in mutated.deprecated.values()} == set(mutated.apis)
    for old, entry in mutated.deprecated.items():
        assert len(mutated.apis[entry.successor].params) == len(base_registry.apis[old].params)
    for name in mutated.apis:
        assert parse_action(f"Thought: t\nAction: {name}\nAction Input: {{}}").action_name == name


class TestVerifyMutation:
    def test_round_trip_passes(self, base_registry, mutated_registry):
        assert verify_mutation(base_registry, mutated_registry) is None

    def test_special_char_inside_word_flagged(self, mutated_registry):
        """``ApiSpec`` rejects the name when it is built, so no registry holds it."""
        spec = mutated_registry.apis[mutated_registry.deprecated["LoadDB"].successor]
        with pytest.raises(ValueError, match="'Fe_tch' is not CamelCase"):
            replace(spec, name="Fe_tch")

    def test_behavior_drift_flagged(self, base_registry, mutated_registry):
        behaviors = dict(mutated_registry.behaviors)
        successor = mutated_registry.deprecated["LoadDB"].successor
        behaviors[successor] = _echo
        broken = ToolRegistry(
            apis=dict(mutated_registry.apis),
            behaviors=behaviors,
            deprecated=dict(mutated_registry.deprecated),
            world=mutated_registry.world,
        )
        with pytest.raises(MutationError, match=f"behavior drift: LoadDB -> {successor}"):
            verify_mutation(base_registry, broken)

    def test_semantic_preservation_probe(self, base_registry, mutated_registry):
        entry = mutated_registry.deprecated["GetValue"]
        successor_spec = mutated_registry.apis[entry.successor]
        base_obs = invoke(
            base_registry,
            "GetValue",
            {"DBName": "coffee", "FilterCondition": "Date=2022-09-05", "ColumnName": "Close"},
        )
        args = dict(zip([p.name for p in successor_spec.params], ["coffee", "Date=2022-09-05", "Close"]))
        for p in successor_spec.params:
            if p.kind == "map":
                args[p.name] = {"condition1": "Date=2022-09-05"}
        mutated_obs = invoke(mutated_registry, entry.successor, args)
        assert (base_obs.kind, base_obs.text) == (mutated_obs.kind, mutated_obs.text)


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parser


class TestPlanConfig:
    """Mutation sections are read by the one section reader, ``cli._config``."""

    def test_section_reads_every_key(self):
        synonyms = {"Load": ["Open"], "DB": ["Store"]}
        parser = _parser(
            "[mutation]\nseed = 7\nkinds = name_text, param_format\nspecial_char = -\n"
            f"synonyms = {json.dumps(synonyms)}\n"
        )
        plan = MutationPlan(
            seed=7, kinds=frozenset({"name_text", "param_format"}), special_char="-", synonyms=synonyms
        )
        assert cli._config(parser, "mutation", MutationPlan) == plan

    def test_empty_section_takes_defaults(self):
        assert cli._config(_parser("[mutation]\n"), "mutation", MutationPlan) == MutationPlan(seed=0)

    @pytest.mark.parametrize(
        "line",
        [
            "sed = 5", "synonyms = [1]", 'synonyms = {"Load": "Open"}', "synonyms = {Load", "kinds =", "kinds = ,",
            pytest.param("synonyms = " + "[" * 100_000, id="synonyms_nested_too_deep"),
        ],
    )
    def test_bad_key_or_table_rejected(self, tmp_path, capsys, line):
        """Through ``mutate --plan``, a mutated_in search, and a consistent
        search whose [mutation_ood] section it would not use."""
        plan = tmp_path / "plan.ini"
        plan.write_text(f"[mutation]\n{line}\n")
        assert cli.main(["mutate", "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == cli.EXIT_CONFIG
        manifest = tmp_path / "run.ini"
        out = ["--output-dir", str(tmp_path / "out")]
        for setting, section in (("mutated_in", "mutation"), ("consistent", "mutation_ood")):
            manifest.write_text(f"[run]\nsetting = {setting}\n\n[{section}]\n{line}\n")
            assert cli.main(["search", "--manifest", str(manifest), *out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert [message[:7] for message in err] == ["error: "] * 3
        assert "[mutation]" in err[0] and "[mutation]" in err[1] and "[mutation_ood]" in err[2]
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()
