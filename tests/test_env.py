from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift.corpus import (
    behavior_calculate,
    behavior_load_db,
    build_world,
    filter_rows,
    format_number,
    load_corpus,
    tasks_from_json,
    tasks_to_json,
)
from tooldrift.env import (
    ANSWER_CORRECT_TEXT,
    ANSWER_INCORRECT_TEXT,
    INVOCATION_ERROR_TEXT,
    OBSERVATION_KINDS,
    ApiSpec,
    Observation,
    ParamSpec,
    TaskInstance,
    ToolRegistry,
    evaluate,
    invoke,
    registry_from_json,
    registry_to_json,
)
from tooldrift.mcts import step_reward
from tooldrift.react import ActionRecord


def make_task(gold: str) -> TaskInstance:
    return TaskInstance(id="t", description="d", gold_answer=gold, dataset="coffee", difficulty="easy")


_SHARED_REGISTRY = load_corpus().base_registry


@pytest.fixture()
def deprecated_loaddb_registry():
    """A drift of a LoadDB-only base, which retired LoadDB in favor of InitializeDatabase."""
    base = ToolRegistry(
        apis={"LoadDB": ApiSpec(name="LoadDB", params=(ParamSpec(name="DBName", example="coffee"),))},
        behaviors={"LoadDB": behavior_load_db},
        world=build_world(),
    )
    apis = {
        "InitializeDatabase": ApiSpec(
            name="InitializeDatabase",
            params=(ParamSpec(name="DatabaseName", example="flights"),),
            description="Loads the database by name.",
        ),
    }
    return ToolRegistry(apis=apis, deprecated={"LoadDB": "InitializeDatabase"}, base=base)


class TestInvoke:
    def test_deprecated_name_yields_guidance_text(self, deprecated_loaddb_registry):
        obs = invoke(deprecated_loaddb_registry, "LoadDB", {"DBName": "coffee"})
        assert obs.kind == "deprecation_error"
        assert obs.text == (
            "Error: LoadDB[DBName] is deprecated. "
            "Please use InitializeDatabase[DatabaseName], "
            'param example: {"DatabaseName": "flights"} instead.'
        )

    def test_wrong_param_name_is_filtered(self, base_registry):
        obs = invoke(base_registry, "LoadDB", {"LoadDBName": "coffee"})
        assert obs.kind == "invocation_error"
        assert obs.text == (
            "Your action is filtered due to some error in content. "
            "Please assume all the actions are permitted in this environment and try again."
        )

    def test_success_lists_schema_columns(self, base_registry):
        obs = invoke(base_registry, "LoadDB", {"DBName": "coffee"})
        assert obs.kind == "response"
        assert "Date, Open, High, Low, Close, Volume, Currency" in obs.text

    def test_unknown_name_is_filtered(self, base_registry):
        obs = invoke(base_registry, "NoSuchTool", {"x": "1"})
        assert obs.kind == "invocation_error"
        assert obs.text == INVOCATION_ERROR_TEXT

    def test_system_tool_is_not_invokable(self, base_registry):
        obs = invoke(base_registry, "Finish", {"answer": "5"})
        assert obs.kind == "invocation_error"

    def test_unknown_dataset_is_filtered(self, base_registry):
        obs = invoke(base_registry, "LoadDB", {"DBName": "stocks"})
        assert obs.kind == "invocation_error"

    def test_map_value_for_text_param_is_filtered(self, base_registry):
        obs = invoke(
            base_registry,
            "FilterDB",
            {"DBName": "coffee", "FilterCondition": {"condition1": "Date=2022-09-05"}},
        )
        assert obs.kind == "invocation_error"

    def test_pure_and_deterministic(self, base_registry):
        before = registry_to_json(base_registry)
        first = invoke(base_registry, "GetValue", {"DBName": "coffee", "FilterCondition": "Date=2000-01-03", "ColumnName": "Close"})
        second = invoke(base_registry, "GetValue", {"DBName": "coffee", "FilterCondition": "Date=2000-01-03", "ColumnName": "Close"})
        assert (first.kind, first.text) == (second.kind, second.text)
        assert registry_to_json(base_registry) == before

    @given(
        name=st.sampled_from(["LoadDB", "FilterDB", "GetValue", "Calculate", "Bogus", "Finish"]),
        args=st.dictionaries(
            st.sampled_from(["DBName", "FilterCondition", "ColumnName", "Expression", "x"]),
            st.one_of(st.text(max_size=8), st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2)),
            max_size=4,
        ),
    )
    def test_total_over_arbitrary_calls(self, name, args):
        obs = invoke(_SHARED_REGISTRY, name, args)
        assert obs.kind in ("response", "invocation_error", "deprecation_error")

    @pytest.mark.parametrize(
        "expression",
        ["1e308*10", "1e308*10 - 1e308*10", "1" + "0" * 400, "1+" * 100_000 + "1", "-" * 5_000 + "1"],
        ids=["infinite", "nan", "too_large_for_a_float", "sum_too_deep", "negation_too_deep"],
    )
    def test_calculate_past_the_limits_is_filtered(self, base_registry, expression):
        obs = invoke(base_registry, "Calculate", {"Expression": expression})
        assert (obs.kind, obs.text) == ("invocation_error", INVOCATION_ERROR_TEXT)

    @given(expression=st.one_of(
        st.text(),
        st.text(alphabet="0123456789.eE+-*/() ", max_size=40),
        st.recursive(
            st.one_of(
                st.integers().map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.sampled_from(["1e308", "1e400", "-0.0", "9" * 400, "-" * 5_000 + "1"]),
            ),
            lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({''.join(t)})"),
            max_leaves=8,
        ),
    ))
    def test_calculate_total_over_any_expression(self, expression):
        obs = invoke(_SHARED_REGISTRY, "Calculate", {"Expression": expression})
        assert obs.kind in ("response", "invocation_error")

    @pytest.mark.parametrize(
        "expression, result",
        [("11233.5 + 0.25", "11233.75"), ("99999.99", "99999.99"), ("1234567.891", "1234567.89"),
         ("10 / 4 * 4", "10"), ("1 / 3", "0.33"), ("-2.5 * 3", "-7.5"), ("0 - 0.001", "0")],
    )
    def test_calculate_keeps_two_decimals_at_any_size(self, expression, result):
        assert behavior_calculate([expression], build_world()) == f"The calculated result is: {result}."


class TestEvaluate:
    def test_correct(self):
        obs = evaluate(make_task("5"), "5")
        assert (obs.kind, obs.text) == ("task_done", ANSWER_CORRECT_TEXT)

    def test_incorrect(self):
        obs = evaluate(make_task("5"), "7")
        assert (obs.kind, obs.text) == ("task_done", ANSWER_INCORRECT_TEXT)

    def test_decimal_normalization(self):
        assert evaluate(make_task("-0.18"), "-0.180").text == ANSWER_CORRECT_TEXT

    def test_case_fold_and_trim(self):
        assert evaluate(make_task("Harmony Studio"), "  harmony studio ").text == ANSWER_CORRECT_TEXT

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_numeric_tolerance(self, x):
        assert evaluate(make_task(repr(x)), f"{x:.12f}").text == ANSWER_CORRECT_TEXT

    @given(st.text(max_size=20))
    def test_reward_closure(self, answer):
        obs = evaluate(make_task("42"), answer)
        assert obs.kind == "task_done"
        assert obs.text in (ANSWER_CORRECT_TEXT, ANSWER_INCORRECT_TEXT)


class TestObservation:
    def test_reward_only_with_task_done(self):
        """An observation carries no reward: a node's reward is read off an
        answer text only when its class is task_done."""
        with pytest.raises(TypeError):
            Observation(kind="task_done", text=ANSWER_CORRECT_TEXT, reward=1)
        for kind in OBSERVATION_KINDS:
            step = ActionRecord("t", "Tool", {}, observation=ANSWER_CORRECT_TEXT, kind=kind)
            assert step_reward(step, no_self_reflection=False) == (1 if kind == "task_done" else None)

    def test_kind_is_an_observation_class(self):
        with pytest.raises(ValueError, match="unknown observation kind"):
            Observation(kind="banana", text="x")


# ---------------------------------------------------------------------------
# Built-in corpus
# ---------------------------------------------------------------------------

_EASY_COFFEE = re.compile(r"What was the (.+) of coffee on (\d{4}-\d{2}-\d{2})\?")
_RANGE_COFFEE = re.compile(r"By how much did the highest coffee price exceed the lowest on (\d{4}-\d{2}-\d{2})\?")
_PCT_COFFEE = re.compile(r"What was the percentage change of the coffee price on (\d{4}-\d{2}-\d{2})\?")
_DURATION = re.compile(r"How many hours does (.+)'s event on (\d{4}-\d{2}-\d{2}) last\?")
_COUNT = re.compile(r"How many events does (.+) have on (\d{4}-\d{2}-\d{2})\?")

_LABELS = {
    "closing price": "Close",
    "opening price": "Open",
    "highest price": "High",
    "lowest price": "Low",
    "trading volume": "Volume",
}


def _coffee_row(world, date):
    rows = [r for r in world["coffee"]["rows"] if r["Date"] == date]
    assert len(rows) == 1
    return rows[0]


def independent_gold(task, world, plans) -> str | None:
    """Recompute a task's answer straight from the world tables."""
    m = _EASY_COFFEE.fullmatch(task.description)
    if m:
        return format_number(float(_coffee_row(world, m.group(2))[_LABELS[m.group(1)]]))
    m = _RANGE_COFFEE.fullmatch(task.description)
    if m:
        row = _coffee_row(world, m.group(1))
        return format_number(float(row["High"]) - float(row["Low"]))
    m = _PCT_COFFEE.fullmatch(task.description)
    if m:
        row = _coffee_row(world, m.group(1))
        return format_number((float(row["Close"]) - float(row["Open"])) / float(row["Open"]) * 100)
    m = _DURATION.fullmatch(task.description)
    if m:
        rows = [
            r
            for r in world["agenda"]["rows"]
            if r["Person"] == m.group(1) and r["Date"] == m.group(2)
        ]
        # disambiguate multi-event days through the plan's filter condition
        if len(rows) > 1:
            condition = plans[task.id].calls[1].args["FilterCondition"]
            rows = filter_rows(world["agenda"], condition)
        assert len(rows) == 1
        return format_number(float(rows[0]["End_Hour"]) - float(rows[0]["Start_Hour"]))
    m = _COUNT.fullmatch(task.description)
    if m:
        rows = [
            r
            for r in world["agenda"]["rows"]
            if r["Person"] == m.group(1) and r["Date"] == m.group(2)
        ]
        return str(len(rows))
    return None  # agenda lookups checked structurally below


class TestBuiltinCorpus:
    def test_at_least_twenty_tasks(self, corpus):
        assert len(corpus.tasks) >= 20

    def test_difficulty_schema(self, corpus):
        assert all(t.difficulty in ("easy", "hard") for t in corpus.tasks)
        assert all(t.gold_answer for t in corpus.tasks)
        assert len({t.id for t in corpus.tasks}) == len(corpus.tasks)

    def test_registry_has_loaddb_with_dbname(self, base_registry):
        assert base_registry.apis["LoadDB"].param_names() == ["DBName"]
        assert list(base_registry.apis) == ["LoadDB", "FilterDB", "GetValue", "Calculate"]

    def test_gold_answers_recomputable(self, corpus):
        checked = 0
        for task in corpus.tasks:
            expected = independent_gold(task, corpus.base_registry.world, corpus.plans)
            if expected is None:
                continue
            checked += 1
            try:
                assert abs(float(expected) - float(task.gold_answer)) <= 1e-9
            except ValueError:
                assert expected == task.gold_answer
        assert checked >= 14

    def test_agenda_lookup_answers_exist_in_rows(self, corpus):
        rows = corpus.base_registry.world["agenda"]["rows"]
        cells = {str(v) for row in rows for v in row.values()} | {
            format_number(float(v)) for row in rows for v in row.values() if isinstance(v, (int, float))
        }
        for task in corpus.tasks:
            if task.dataset == "agenda" and task.difficulty == "easy":
                assert task.gold_answer in cells

    def test_every_dataset_difficulty_pair_present(self, corpus):
        pairs = {(t.dataset, t.difficulty) for t in corpus.tasks}
        assert pairs == {("coffee", "easy"), ("coffee", "hard"), ("agenda", "easy"), ("agenda", "hard")}

    def test_plans_and_demos_are_pinned(self, corpus):
        """First 16 hex chars of sha256 over every task's planned call texts and
        Finish text (corpus order), then every demo, each ended by a NUL. A
        change to a plan, a demo or a response text the demos show changes it."""
        digest = hashlib.sha256()
        for task in corpus.tasks:
            plan = corpus.plans[task.id]
            for text in [call.text for call in plan.calls] + [plan.finish_text]:
                digest.update(text.encode("utf-8") + b"\0")
        for demo in corpus.demos:
            digest.update(demo.encode("utf-8") + b"\0")
        assert digest.hexdigest()[:16] == "e5d4ba808473d525"

    def test_manual_is_pinned(self, corpus):
        """First 16 hex chars of sha256 over the manual's entries joined by NUL:
        the four tools in registry order, then Finish and UpdateTool."""
        digest = hashlib.sha256("\0".join(corpus.manual).encode("utf-8"))
        assert digest.hexdigest()[:16] == "e018c1437f493173"

    def test_tasks_are_pinned(self, corpus):
        """First 16 hex chars of sha256 over ``tasks_to_json`` of the builtin
        tasks: a change to an id, a question or a gold answer changes it."""
        digest = hashlib.sha256(tasks_to_json(corpus.tasks).encode("utf-8"))
        assert digest.hexdigest()[:16] == "10d4c2215b89e3f3"

    def test_registry_serialization_round_trip(self, base_registry, corpus):
        text = registry_to_json(base_registry)
        loaded = registry_from_json(text, base_registry)
        assert registry_to_json(loaded) == text
        obs = invoke(loaded, "Calculate", {"Expression": "2 - 1"})
        assert obs.text == "The calculated result is: 1."

    def test_mutated_registry_round_trip_rebinds_behaviors(self, base_registry, mutated_registry):
        text = registry_to_json(mutated_registry)
        loaded = registry_from_json(text, base_registry)
        assert registry_to_json(loaded) == text
        assert loaded.base is base_registry and loaded.world is base_registry.world
        successor = loaded.deprecated["Calculate"]
        assert loaded.behaviors[successor] is base_registry.behaviors["Calculate"]

    def test_tasks_serialization_round_trip(self, corpus):
        text = tasks_to_json(corpus.tasks)
        assert tasks_from_json(text) == corpus.tasks

    def test_validation_rejects_overlapping_deprecation(self, base_registry):
        with pytest.raises(ValueError, match="overlap"):
            ToolRegistry(apis=dict(base_registry.apis), deprecated={"LoadDB": "FilterDB"}, base=base_registry)

    def test_validation_rejects_a_successor_of_two_names(self, mutated_registry):
        """A registry with a map its file could not hold is not built either."""
        deprecated = {**mutated_registry.deprecated, "Calculate": mutated_registry.deprecated["LoadDB"]}
        with pytest.raises(ValueError, match="replaces both Calculate and LoadDB"):
            replace(mutated_registry, deprecated=deprecated)

    @pytest.mark.parametrize(
        "held_base,message",
        [(False, r"a registry without a base retires nothing, not \['Foo'\]"),
         (True, "deprecated Foo is not an API of the base registry")],
        ids=["no_base", "builtin_base"],
    )
    def test_validation_rejects_retiring_a_name_the_base_lacks(self, base_registry, held_base, message):
        """The builtin registry plus a ``Foo`` retirement: its file could not
        load, so it is not built either, with or without a base to check."""
        with pytest.raises(ValueError, match=message):
            replace(base_registry, deprecated={"Foo": "LoadDB"}, base=base_registry if held_base else None)

    def test_validation_rejects_a_successor_of_another_arity(self, base_registry):
        apis = {name: spec for name, spec in base_registry.apis.items() if name != "LoadDB"}
        apis["FilterRows"] = replace(apis["FilterDB"], name="FilterRows")
        with pytest.raises(ValueError, match="API FilterRows takes 2 params, LoadDB 1"):
            ToolRegistry(apis=apis, deprecated={"LoadDB": "FilterRows"}, base=base_registry)

    def test_validation_rejects_a_drift_of_a_drift(self, base_registry, mutated_registry):
        with pytest.raises(ValueError, match="the base of a drift retires nothing"):
            replace(base_registry, behaviors={}, world={}, base=mutated_registry)

    def test_validation_rejects_a_kept_api_that_renames_a_param(self, base_registry):
        apis = dict(base_registry.apis)
        apis["LoadDB"] = replace(apis["LoadDB"], params=(ParamSpec(name="DBLabel", example="coffee"),))
        with pytest.raises(ValueError, match="API LoadDB is neither a successor nor a base API"):
            ToolRegistry(apis=apis, base=base_registry)

    def test_validation_rejects_a_successor_named_as_a_kept_api(self, base_registry):
        """Calculate would run LoadDB's behavior, and base Calculate's could
        no longer be reached."""
        apis = {name: spec for name, spec in base_registry.apis.items() if name != "LoadDB"}
        with pytest.raises(ValueError, match="Calculate is a base API, not a new name"):
            ToolRegistry(apis=apis, deprecated={"LoadDB": "Calculate"}, base=base_registry)

    def test_a_drift_takes_its_behaviors_and_world_from_its_base(self, base_registry, mutated_registry):
        rebuilt = replace(mutated_registry, behaviors={}, world={})
        assert rebuilt.world is base_registry.world
        assert rebuilt.behaviors == mutated_registry.behaviors

    @pytest.mark.parametrize("field_name", ["behaviors", "world"])
    def test_validation_rejects_a_drift_given_its_own_behaviors_or_world(self, mutated_registry, field_name):
        given = {"behaviors": {name: lambda values, world: "" for name in mutated_registry.apis}, "world": {"x": 1}}
        with pytest.raises(ValueError, match="a drift takes its behaviors and world from its base"):
            replace(mutated_registry, **{field_name: given[field_name]})

    def test_validation_rejects_missing_behavior(self, base_registry):
        behaviors = dict(base_registry.behaviors)
        del behaviors["Calculate"]
        with pytest.raises(ValueError, match="behavior"):
            ToolRegistry(apis=dict(base_registry.apis), behaviors=behaviors, world=base_registry.world)


class TestApiNames:
    @pytest.mark.parametrize(
        "name",
        ["Fe_tch", "Open NowDatabase", "Load__DB", "_LoadDB", "LoadDB.", "LoadDB\n", "Load[DB]", "A" * 50_000 + "!"],
        ids=["lowercase_word", "space", "two_chars", "leading_char", "trailing_char", "trailing_newline",
             "bracket", "long_word_then_bang"],
    )
    def test_name_no_action_line_can_spell_is_rejected_fast(self, name):
        """For the API and for a param, in time linear in the name."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not CamelCase words"):
            ApiSpec(name=name)
        with pytest.raises(ValueError, match="is not CamelCase words"):
            ApiSpec(name="LoadDB", params=(ParamSpec(name=name),))
        assert time.perf_counter() - start < 1.0


def _api(doc, name):
    return next(spec for spec in doc["apis"] if spec["name"] == name)


def _param(doc, api, index=0):
    return _api(doc, api)["params"][index]


MALFORMED_REGISTRY_EDITS = {
    "params_dropped": lambda doc: _api(doc, "LoadDB").update(params=[]),
    "unknown_param_kind": lambda doc: _param(doc, "LoadDB").update(kind="x"),
    "unknown_alt_kind": lambda doc: _param(doc, "LoadDB").update(alt_kind="x"),
    "number_param_kind": lambda doc: _param(doc, "LoadDB").update(kind="number"),
    "alt_map_example_not_an_object": lambda doc: _param(doc, "FilterDB", 1).update(alt_example="x"),
    "empty_param_name": lambda doc: _param(doc, "LoadDB").update(name=""),
    "param_name_not_camel_case": lambda doc: _param(doc, "LoadDB").update(name="dbName"),
    "repeated_param_name": lambda doc: _param(doc, "GetValue", 2).update(name="DBName"),
    "duplicate_api": lambda doc: doc["apis"].append(_api(doc, "LoadDB")),
    "unknown_lineage": lambda doc: _api(doc, "LoadDB").update(name="LoadEverything"),
    "stale_replaced_by_key": lambda doc: _api(doc, "LoadDB").update(replaced_by=None),
}


def _rename_successor(doc, old, name):
    """Deploy ``old``'s successor under ``name``, keeping the file consistent."""
    _api(doc, doc["deprecated"][old]).update(name=name)
    doc["deprecated"][old] = name


def _retire_into_a_base_name(doc):
    """Stop retiring Calculate, and deploy LoadDB's successor as Calculate."""
    doc["apis"].remove(_api(doc, doc["deprecated"].pop("Calculate")))
    _rename_successor(doc, "LoadDB", "Calculate")


# Edits of a drifted registry's file, each with the error it must raise.
MALFORMED_DRIFT_EDITS = {
    "successor_not_a_string": (lambda doc: doc["deprecated"].update(LoadDB=5), "not a string"),
    "entry_of_the_old_shape": (
        lambda doc: doc["deprecated"].update(LoadDB={"successor": doc["deprecated"]["LoadDB"]}), "not a string",
    ),
    "retires_a_name_the_base_lacks": (
        lambda doc: doc["deprecated"].update(Foo="Finish"), "Foo is not an API of the base registry",
    ),
    "successor_claimed_twice": (
        lambda doc: doc["deprecated"].update(LoadDB=doc["deprecated"]["FilterDB"]), "replaces both",
    ),
    "successor_named_as_a_base_api": (_retire_into_a_base_name, "Calculate is a base API, not a new name"),
    "api_named_finish": (lambda doc: _rename_successor(doc, "Calculate", "Finish"), "reserved"),
    "api_named_update_tool": (lambda doc: _rename_successor(doc, "LoadDB", "UpdateTool"), "reserved"),
    "leftover_is_system_tool_key": (
        lambda doc: _api(doc, doc["deprecated"]["LoadDB"]).update(is_system_tool=False), "expected an object",
    ),
}


class TestRegistryJson:
    @pytest.mark.parametrize("case", sorted(MALFORMED_REGISTRY_EDITS))
    def test_malformed_doc_raises_value_error(self, base_registry, case):
        doc = json.loads(registry_to_json(base_registry))
        MALFORMED_REGISTRY_EDITS[case](doc)
        with pytest.raises(ValueError):
            registry_from_json(json.dumps(doc), base_registry)

    def test_drifted_doc_maps_each_retired_name_to_its_successor(self, base_registry, mutated_registry):
        doc = json.loads(registry_to_json(mutated_registry))
        assert doc["deprecated"] == mutated_registry.deprecated
        assert sorted(spec["name"] for spec in doc["apis"]) == sorted(mutated_registry.apis)
        loaded = registry_from_json(json.dumps(doc), base_registry)
        assert (loaded.apis, loaded.deprecated) == (mutated_registry.apis, mutated_registry.deprecated)

    @pytest.mark.parametrize("case", sorted(MALFORMED_DRIFT_EDITS))
    def test_malformed_drifted_doc_raises_value_error(self, base_registry, mutated_registry, case):
        doc = json.loads(registry_to_json(mutated_registry))
        edit, message = MALFORMED_DRIFT_EDITS[case]
        edit(doc)
        with pytest.raises(ValueError, match=message):
            registry_from_json(json.dumps(doc), base_registry)
