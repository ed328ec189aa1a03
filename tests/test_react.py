from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift.adapt import advance
from tooldrift.env import TaskInstance
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
