from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift.adapt import advance, execute_action
from tooldrift.env import ANSWER_CORRECT_TEXT, TaskInstance
from tooldrift import react
from tooldrift.mcts import FAILED_ACTION_NAME, SearchConfig, run_search
from tooldrift.react import (
    ActionParseError,
    ActionRecord,
    StateRecord,
    parse_action,
    render_prompt,
    render_step,
)

# The canonical database-loading step, observation included.
LOADDB_STEP = (
    "Thought: To answer this question, I should first load the database containing coffee "
    "price information. The database named 'coffee' seems to be the relevant one.\n"
    "Action: LoadDB\n"
    'Action Input: {"DBName": "coffee"}\n'
    "Observation: We have successfully loaded the coffee database, including the following "
    "columns: Date, Open, High, Low, Close, Volume, Currency."
)

# A tool-update step whose description embeds a single-quoted example with
# real newlines inside the JSON string value.
UPDATE_TOOL_STEP = (
    "Thought: The Execute_Python_Script API works as intended, and we have successfully "
    "calculated the result. Now, we need to Finish the task using the calculated result. "
    "First, let's update the tool description for the new API.\n"
    "Action: UpdateTool\n"
    'Action Input: {"newtool_desc": "Execute_Python_Script[PythonCode], which is an updated '
    "version of PythonInterpreter and return the execution result according to the python "
    "code. For example, {'PythonCode': 'The Python code is as follows:\n"
    "percentage_change = ((float(189.35) - float(189.7)) / float(189.7)) * 100\n"
    "print(round(percentage_change, 2))'}.\"}\n"
    "Observation: The description for the new tool has been updated successfully."
)


# Action Input bodies past the decoders' limits: nested deeper than the
# recursion limit, or a number too long to turn into text.
PAST_THE_LIMITS = {
    "json_nested_too_deep": '{"a": ' + "[" * 100_000 + "}",
    "json_integer_too_long": '{"a": ' + "9" * 5_000 + "}",
    "literal_sum_too_deep": "{'a': " + "1+" * 100_000 + "1}",
    "literal_negation_too_deep": "{'a': " + "-" * 100_000 + "1}",
}


# Bodies that ``ast.literal_eval`` rejects with a message naming a syntax-tree
# node by its address (a name), or with a TypeError (an unhashable key).
REJECTED_LITERALS = {"name": "{x}", "unhashable_key": "{[1]: 2}"}
REJECTED_LITERAL_TEXT = "could not parse field 'Action Input': not a JSON object or Python literal"

ROOT = Path(__file__).resolve().parents[1]


def calculate_step(body: str) -> str:
    return f"Thought: t\nAction: Calculate\nAction Input: {body}\n"


def make_state(steps=(), manual=("LoadDB[DBName]: loads a database.",)) -> StateRecord:
    task = TaskInstance(id="t", description="What?", gold_answer="5", dataset="coffee", difficulty="easy")
    return StateRecord(task=task, tool_manual=tuple(manual), demos=("Question: demo",), steps=tuple(steps))


class TestParseAction:
    def test_loaddb_transcript(self):
        record = parse_action(LOADDB_STEP)
        assert record.action_name == "LoadDB"
        assert record.action_input == {"DBName": "coffee"}
        assert record.thought.startswith("To answer this question, I should first load")
        assert record.observation.startswith("We have successfully loaded the coffee database")

    def test_update_tool_transcript(self):
        record = parse_action(UPDATE_TOOL_STEP)
        assert record.action_name == "UpdateTool"
        assert set(record.action_input) == {"newtool_desc"}
        desc = record.action_input["newtool_desc"]
        assert "which is an updated version of PythonInterpreter" in desc
        assert "Execute_Python_Script[PythonCode]" in desc
        assert record.observation == "The description for the new tool has been updated successfully."

    def test_missing_thought_is_an_error(self):
        with pytest.raises(ActionParseError) as err:
            parse_action('Action: Finish\nAction Input: {"answer": "5"}')
        assert err.value.field == "Thought"

    def test_missing_action_input_is_an_error(self):
        with pytest.raises(ActionParseError) as err:
            parse_action("Thought: done\nAction: Finish\n")
        assert err.value.field == "Action Input"

    def test_single_quotes_tolerated(self):
        record = parse_action("Thought: go\nAction: LoadDB\nAction Input: {'DBName': 'coffee'}")
        assert record.action_input == {"DBName": "coffee"}

    def test_trailing_prose_ignored(self):
        record = parse_action(
            'Thought: go\nAction: LoadDB\nAction Input: {"DBName": "coffee"} and then some chatter'
        )
        assert record.action_input == {"DBName": "coffee"}
        assert record.observation is None

    def test_nested_map_value(self):
        record = parse_action(
            "Thought: filter\nAction: FilterDB\n"
            'Action Input: {"FilterCondition": {"condition1": "NAME=Chao Zhang", "condition2": "Date<=2004-01-16"}}'
        )
        assert record.action_input["FilterCondition"]["condition2"] == "Date<=2004-01-16"

    def test_numbers_coerced_to_text(self):
        record = parse_action('Thought: t\nAction: Finish\nAction Input: {"answer": 5}')
        assert record.action_input == {"answer": "5"}

    @pytest.mark.parametrize("number", ["1234567.89", "123456789.0"])
    def test_float_keeps_its_digits_and_a_finish_with_it_scores(self, number):
        """A float reads back as its shortest round-trip text, so a Finish
        with the gold answer as a number is correct."""
        record = parse_action(f'Thought: t\nAction: Finish\nAction Input: {{"answer": {number}}}')
        assert record.action_input == {"answer": repr(float(number))}
        task = TaskInstance(id="t", description="What?", gold_answer=number, dataset="coffee", difficulty="easy")
        state = StateRecord(task=task, tool_manual=())
        assert execute_action(state, record, registry=None).step.observation == ANSWER_CORRECT_TEXT

    @pytest.mark.parametrize("case", sorted(PAST_THE_LIMITS))
    def test_input_past_the_decoders_limits_is_an_error(self, case):
        with pytest.raises(ActionParseError) as err:
            parse_action(calculate_step(PAST_THE_LIMITS[case]))
        assert err.value.field == "Action Input"

    @pytest.mark.parametrize("case", sorted(REJECTED_LITERALS))
    def test_rejected_literal_is_an_error_with_a_fixed_text(self, case):
        with pytest.raises(ActionParseError) as err:
            parse_action(calculate_step(REJECTED_LITERALS[case]))
        assert str(err.value) == REJECTED_LITERAL_TEXT

    def test_rejected_literal_reads_the_same_in_every_process(self):
        """The text is a malformed action's observation in a tree file, so two processes must agree."""
        script = (
            "import sys\nfrom tooldrift.react import ActionParseError, parse_action\n"
            "try:\n    parse_action(sys.argv[1])\nexcept ActionParseError as exc:\n    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script, calculate_step(REJECTED_LITERALS["name"])],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs == [REJECTED_LITERAL_TEXT + "\n"] * 2

    @given(text=st.one_of(
        st.text(),
        st.text(alphabet="{}[]()'\",:-+*.0123456789eE aNTrueFalsn\\", max_size=40).map(lambda t: calculate_step("{" + t)),
        st.builds(
            lambda repeated, times, end: calculate_step('{"a": ' + repeated * times + end),
            st.sampled_from(["[", '{"a": ', "-", "1+", "9", "(", "'x', "]),
            st.sampled_from([0, 1, 2, 100, 5_000, 100_000]),
            st.sampled_from(["1}", "}", "]}"]),
        ),
    ))
    def test_any_text_is_a_record_or_an_error(self, text):
        try:
            record = parse_action(text)
        except ActionParseError:
            return
        assert isinstance(record, ActionRecord)


# The regular expressions parse_action took the thought and the observation
# with before it ran in linear time; ``oracle_parse`` is that parser.
_ORACLE_THOUGHT_RE = re.compile(r"(?:^|\n)\s*Thought:\s*(.*?)\s*(?=\nAction:)", re.DOTALL)
_ORACLE_OBSERVATION_RE = re.compile(r"\nObservation:\s*(.*?)\s*$", re.DOTALL)


def oracle_parse(text: str) -> ActionRecord:
    padded = "\n" + text.strip() + "\n"
    thought_match = _ORACLE_THOUGHT_RE.search(padded)
    if thought_match is None:
        raise ActionParseError("Thought")
    action_match = react._ACTION_RE.search(padded, thought_match.end())
    if action_match is None:
        raise ActionParseError("Action")
    label_match = react._INPUT_LABEL_RE.search(padded, action_match.end())
    if label_match is None:
        raise ActionParseError("Action Input")
    brace_start = padded.find("{", label_match.end())
    if brace_start < 0:
        raise ActionParseError("Action Input", "no opening brace")
    body = react._scan_braced_body(padded, brace_start)
    try:
        action_input = react._parse_input_body(body)
    except ActionParseError:
        raise
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        raise ActionParseError("Action Input", str(exc) or type(exc).__name__) from None
    obs_match = _ORACLE_OBSERVATION_RE.search(padded, brace_start + len(body))
    return ActionRecord(
        thought=thought_match.group(1),
        action_name=action_match.group(1),
        action_input=action_input,
        observation=obs_match.group(1) if obs_match is not None else None,
    )


def _outcome(parse, text):
    """The record, or the error's field and message (without the address of
    any object that ``ast.literal_eval`` names in it)."""
    try:
        return parse(text)
    except ActionParseError as exc:
        return (exc.field, re.sub(r" at 0x[0-9a-f]+", "", str(exc)))


_FRAGMENTS = st.sampled_from([
    "Thought:", "Action:", "Action Input:", "Observation:", "Action", " Input:",
    "\n", " ", "  ", "\t", "\r", "\x0b", "\x1c", "\u3000", "{", "}", "'", '"', "\\",
    "x", "LoadDB", '{"a": "b"}', "{'a': 1}", ":",
])


# Steps whose Action Input opens a valid JSON object, which parse_action
# decodes in one call: quotes, braces and escapes inside strings, nested
# objects, lists and nulls (values it rejects), NaN and the infinities, then
# bodies past the decoders' limits, each followed by prose and an observation.
_JSON_STRINGS = st.text(alphabet="ab'\"{}\\:\n\t ", max_size=6)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_STRINGS, st.integers(), st.floats(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=2), st.dictionaries(_JSON_STRINGS, inner, max_size=3)),
    max_leaves=6,
)
_JSON_BODIES = st.one_of(
    st.builds(
        json.dumps,
        st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=4),
        ensure_ascii=st.booleans(),
        indent=st.sampled_from([None, 1]),
    ),
    st.sampled_from([
        PAST_THE_LIMITS["json_integer_too_long"],
        '{"a": ' * 5_000 + "1" + "}" * 5_000,
        '{"a": ' + "[" * 5_000 + "]" * 5_000 + "}",
    ]),
)
_JSON_STEPS = st.builds(
    lambda body, prose, observation: f"Thought: t\nAction: Calculate\nAction Input: {body}{prose}{observation}",
    _JSON_BODIES,
    st.sampled_from(["", " and then some chatter", "} {'x': 1}", "'", '"', "\n"]),
    st.sampled_from(["", "\nObservation: done", '\nObservation: {"a": "}"}\n', "\nObservation:"]),
)


class TestParseMatchesTheOracle:
    @given(text=st.one_of(st.lists(_FRAGMENTS, max_size=30).map("".join), _JSON_STEPS))
    def test_same_record_or_error(self, text):
        assert _outcome(parse_action, text) == _outcome(oracle_parse, text)

    @pytest.mark.parametrize(
        "text,thought,action",
        [
            ("Thought:\nAction: LoadDB\nAction: Finish\nAction Input: {}", "Action: LoadDB", "Finish"),
            ("Thought: \nAction: LoadDB\nAction Input: {}", "", "LoadDB"),
            ("Thought: a \n\nAction: LoadDB\nAction Input: {}", "a", "LoadDB"),
            ("Thought: x\n  Thought: y\nAction: LoadDB\nAction Input: {}", "x\n  Thought: y", "LoadDB"),
        ],
        ids=["whitespace_only_then_two_actions", "whitespace_only", "blank_lines", "two_labels"],
    )
    def test_whitespace_edges(self, text, thought, action):
        record = parse_action(text)
        assert (record.thought, record.action_name) == (thought, action)
        assert record == oracle_parse(text)


# Inputs on which the oracle's patterns backtrack for seconds (cubic in the
# spaces after the label, quadratic in the others).
SLOW_FOR_THE_ORACLE = {
    "spaces_after_thought_label": "Thought:" + " " * 800 + "x",
    "spaces_inside_thought": "Thought: a" + " " * 20_000 + "b\nAction: LoadDB\nAction Input: {}",
    "spaces_inside_observation": "Thought: a\nAction: LoadDB\nAction Input: {}\nObservation: a" + " " * 25_000 + "b",
    "many_thought_lines": "Thought: x\n" * 3_000,
}


@pytest.mark.parametrize("case", sorted(SLOW_FOR_THE_ORACLE))
def test_parse_time_is_linear(case):
    start = time.perf_counter()
    _outcome(parse_action, SLOW_FOR_THE_ORACLE[case])
    assert time.perf_counter() - start < 1.0


def test_search_over_inputs_past_the_limits_ends_in_malformed_actions(corpus, base_registry):
    """A policy, such as a remote model, proposing such inputs: each becomes
    a failed terminal node and the search finishes."""

    class PastTheLimitsPolicy:
        def propose(self, state, k):
            return [calculate_step(PAST_THE_LIMITS[case]) for case in sorted(PAST_THE_LIMITS)]

    tree = run_search(
        corpus.task("coffee-easy-1"), base_registry, PastTheLimitsPolicy(), SearchConfig(k=4, max_simulations=3),
        corpus.manual, corpus.demos,
    )
    children = tree.children[tree.root_id]
    assert len(children) == len(PAST_THE_LIMITS)
    for child in children:
        assert tree.action[child].action_name == FAILED_ACTION_NAME
        assert tree.reward[child] == -1 and child not in tree.failure
        assert tree.action[child].observation.startswith("could not parse field 'Action Input'")


class TestRenderPrompt:
    def test_manual_entries_rendered_once(self):
        state = make_state(manual=("ToolA[x]: does a.", "ToolB[y]: does b."))
        text = render_prompt(state)
        assert text.count("ToolA[x]: does a.") == 1
        assert text.count("ToolB[y]: does b.") == 1
        assert "Question: What?" in text

    def test_updated_manual_appends_after_original(self):
        state = make_state()
        update = ActionRecord(
            thought="memo", action_name="UpdateTool", action_input={"newtool_desc": "NewTool[z]: learned later."}
        )
        updated = advance(state, (update,))
        text = render_prompt(updated)
        assert text.index("LoadDB[DBName]") < text.index("NewTool[z]")

    def test_rendering_monotonic_under_append(self):
        state = make_state()
        step = ActionRecord(thought="go", action_name="LoadDB", action_input={"DBName": "coffee"}, observation="ok")
        longer = advance(state, (step,))
        assert render_prompt(longer).startswith(render_prompt(state))

    def test_byte_identical_for_identical_states(self):
        assert render_prompt(make_state()) == render_prompt(make_state())


_names = st.sampled_from(["LoadDB", "Filter_DB", "Get.Value", "Calculate", "Finish", "Fetch-Agenda"])
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1,
    max_size=30,
).filter(lambda s: s.strip() == s and "\n" not in s)
_values = st.one_of(_texts, st.dictionaries(_texts, _texts, min_size=1, max_size=3))
_records = st.builds(
    ActionRecord,
    thought=_texts,
    action_name=_names,
    action_input=st.dictionaries(_texts, _values, max_size=3),
    observation=_texts,
)


class TestRoundTrip:
    @given(record=_records)
    def test_render_parse_lossless(self, record):
        assert parse_action(render_step(record)) == record

    @given(record=_records)
    def test_last_block_of_prompt_reproduces_last_step(self, record):
        state = make_state(
            steps=(
                ActionRecord(thought="earlier", action_name="LoadDB", action_input={"DBName": "coffee"}, observation="fine"),
                record,
            )
        )
        text = render_prompt(state)
        last_block = text[text.rindex("\n\nThought: ") + 2 :]
        assert parse_action(last_block) == record
