"""Built-in toy task corpus: world tables, base tool registry, tasks, plans.

The world holds a coffee price table and a personal agenda table. Tasks are
lookups and small computations whose gold answers are derived from the world
at module load, so every answer is recomputable by an independent script.
The few-shot demos take their observations from invoking the base registry,
so a demo always shows what the tools return.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import operator
import re
from dataclasses import asdict, dataclass, field

from .env import (
    ANSWER_CORRECT_TEXT,
    TASK_TYPES,
    ApiSpec,
    Behavior,
    BehaviorError,
    ParamSpec,
    TaskInstance,
    ToolRegistry,
    invoke,
    typed_object,
)
from .react import ActionRecord, render_step

COFFEE_COLUMNS = ["Date", "Open", "High", "Low", "Close", "Volume", "Currency"]
COFFEE_ROWS = [
    {"Date": "2000-01-03", "Open": 122.25, "High": 124.25, "Low": 116.1, "Close": 116.5, "Volume": 6640.0, "Currency": "USD"},
    {"Date": "2000-01-04", "Open": 116.25, "High": 120.5, "Low": 115.75, "Close": 116.25, "Volume": 5492.0, "Currency": "USD"},
    {"Date": "2012-03-08", "Open": 189.7, "High": 190.1, "Low": 188.0, "Close": 189.35, "Volume": 11233.0, "Currency": "USD"},
    {"Date": "2012-03-09", "Open": 189.0, "High": 191.5, "Low": 188.25, "Close": 190.75, "Volume": 9410.0, "Currency": "USD"},
    {"Date": "2022-09-05", "Open": 232.5, "High": 235.0, "Low": 230.25, "Close": 233.75, "Volume": 8123.0, "Currency": "USD"},
    {"Date": "2022-09-06", "Open": 233.75, "High": 236.5, "Low": 231.0, "Close": 232.0, "Volume": 7654.0, "Currency": "USD"},
]

AGENDA_COLUMNS = ["Date", "Person", "Event", "Start_Hour", "End_Hour", "Location"]
AGENDA_ROWS = [
    {"Date": "2022-01-18", "Person": "Sarah Chen", "Event": "Team standup", "Start_Hour": 9, "End_Hour": 10, "Location": "Room 4A"},
    {"Date": "2022-01-18", "Person": "Sarah Chen", "Event": "Budget review", "Start_Hour": 14, "End_Hour": 16, "Location": "Room 2B"},
    {"Date": "2022-01-19", "Person": "Miguel Santos", "Event": "Dentist appointment", "Start_Hour": 11, "End_Hour": 12, "Location": "Smile Clinic"},
    {"Date": "2022-01-19", "Person": "Priya Patel", "Event": "Piano lesson", "Start_Hour": 17, "End_Hour": 18, "Location": "Harmony Studio"},
    {"Date": "2022-01-20", "Person": "Miguel Santos", "Event": "Project kickoff", "Start_Hour": 10, "End_Hour": 13, "Location": "Main Hall"},
    {"Date": "2022-01-20", "Person": "Priya Patel", "Event": "Yoga class", "Start_Hour": 7, "End_Hour": 8, "Location": "Green Gym"},
    {"Date": "2022-01-21", "Person": "Sarah Chen", "Event": "Flight to Boston", "Start_Hour": 6, "End_Hour": 11, "Location": "Airport"},
    {"Date": "2022-01-21", "Person": "Miguel Santos", "Event": "Book club", "Start_Hour": 19, "End_Hour": 21, "Location": "City Library"},
]


def build_world() -> dict:
    return {
        "coffee": {"columns": list(COFFEE_COLUMNS), "rows": [dict(r) for r in COFFEE_ROWS]},
        "agenda": {"columns": list(AGENDA_COLUMNS), "rows": [dict(r) for r in AGENDA_ROWS]},
    }


def format_number(x: float) -> str:
    """Canonical number rendering at 2 decimals, whatever the size, with
    trailing zeros and a bare point dropped, so integers print bare."""
    text = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


# ---------------------------------------------------------------------------
# Filter conditions. String form: "NAME=Chao Zhang, Date<=2004-01-16".
# Map form: {"condition1": "NAME=Chao Zhang", "condition2": "Date<=2004-01-16"}.
# ---------------------------------------------------------------------------

_OPS = [("<=", operator.le), (">=", operator.ge), ("=", operator.eq), ("<", operator.lt), (">", operator.gt)]


def split_conditions(value) -> list[str]:
    if isinstance(value, dict):
        return [str(v) for v in value.values()]
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    raise BehaviorError(f"unsupported condition value: {value!r}")


def conditions_to_map(text: str) -> dict[str, str]:
    return {f"condition{i + 1}": cond for i, cond in enumerate(split_conditions(text))}


def conditions_to_text(mapping: dict[str, str]) -> str:
    return ", ".join(mapping.values())


def remap_args(args: dict, old_params: list[str], example: dict) -> dict:
    """Carry argument values onto a successor signature.

    Positions line up the old params with the example's keys; values follow
    the example's shapes, converting between condition-string and keyed-map
    form where they disagree.
    """
    out: dict = {}
    for old_name, (new_name, shape) in zip(old_params, example.items()):
        value = args[old_name]
        if isinstance(shape, dict) and isinstance(value, str):
            value = conditions_to_map(value)
        elif isinstance(shape, str) and isinstance(value, dict):
            value = conditions_to_text(value)
        out[new_name] = value
    return out


def _match(row: dict, cond: str) -> bool:
    for symbol, op in _OPS:
        if symbol in cond:
            column, _, raw = cond.partition(symbol)
            column, raw = column.strip(), raw.strip()
            if column not in row:
                raise BehaviorError(f"unknown column {column!r}")
            cell = row[column]
            try:
                return op(float(cell), float(raw))
            except (TypeError, ValueError):
                return op(str(cell), raw)
    raise BehaviorError(f"unparseable condition {cond!r}")


def filter_rows(table: dict, condition) -> list[dict]:
    conds = split_conditions(condition)
    if not conds:
        raise BehaviorError("empty filter condition")
    return [row for row in table["rows"] if all(_match(row, c) for c in conds)]


def _table(world: dict, name) -> dict:
    if not isinstance(name, str) or name not in world:
        raise BehaviorError(f"unknown dataset {name!r}")
    return world[name]


def _cell_text(value) -> str:
    if isinstance(value, (int, float)):
        return format_number(float(value))
    return str(value)


def behavior_load_db(values: list, world: dict) -> str:
    table = _table(world, values[0])
    return (
        f"We have successfully loaded the {values[0]} database, "
        f"including the following columns: {', '.join(table['columns'])}."
    )


def behavior_filter_db(values: list, world: dict) -> str:
    rows = filter_rows(_table(world, values[0]), values[1])
    return f"We have filtered the database. The filtered data contains {len(rows)} rows."


def behavior_get_value(values: list, world: dict) -> str:
    db_name, condition, column = values
    table = _table(world, db_name)
    if not isinstance(column, str) or column not in table["columns"]:
        raise BehaviorError(f"unknown column {column!r}")
    rows = filter_rows(table, condition)
    if not rows:
        raise BehaviorError("no rows match the filter condition")
    cells = [_cell_text(row[column]) for row in rows]
    if len(cells) == 1:
        return f"The value of the {column} column is: {cells[0]}."
    return f"The values of the {column} column are: {', '.join(cells)}."


_ALLOWED_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_arith(node: ast.AST) -> float:
    if isinstance(node, ast.Expression):
        return _eval_arith(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_arith(node.operand)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        return _ALLOWED_BINOPS[type(node.op)](_eval_arith(node.left), _eval_arith(node.right))
    raise BehaviorError("unsupported expression")


def behavior_calculate(values: list, world: dict) -> str:
    expr = values[0]
    if not isinstance(expr, str):
        raise BehaviorError("expression must be text")
    try:
        result = _eval_arith(ast.parse(expr, mode="eval"))
    except (SyntaxError, ArithmeticError, ValueError, RecursionError, MemoryError) as exc:
        # RecursionError and MemoryError are how the parser rejects nesting
        # past its limits, as in "1+1+...+1" or "--...-1".
        raise BehaviorError(str(exc)) from exc
    if not math.isfinite(result):
        raise BehaviorError("result is not a finite number")
    return f"The calculated result is: {format_number(result)}."


BASE_BEHAVIORS: dict[str, Behavior] = {
    "LoadDB": behavior_load_db,
    "FilterDB": behavior_filter_db,
    "GetValue": behavior_get_value,
    "Calculate": behavior_calculate,
}


def build_base_registry(world: dict | None = None) -> ToolRegistry:
    """The collected tool surface mirrored into the server's base generation."""
    world = world if world is not None else build_world()
    condition_param = ParamSpec(
        name="FilterCondition",
        kind="text",
        example="Date=2022-09-05",
        alt_kind="map",
        alt_example=json.dumps({"condition1": "Date=2022-09-05"}),
    )
    apis = {
        "LoadDB": ApiSpec(
            name="LoadDB",
            params=(ParamSpec(name="DBName", example="coffee"),),
            description="Loads the database by name and lists its columns.",
            response_note="Returns a sentence listing the column names.",
        ),
        "FilterDB": ApiSpec(
            name="FilterDB",
            params=(ParamSpec(name="DBName", example="coffee"), condition_param),
            description="Filters the database rows by one or more conditions.",
            response_note="Returns a sentence with the matching row count.",
        ),
        "GetValue": ApiSpec(
            name="GetValue",
            params=(
                ParamSpec(name="DBName", example="coffee"),
                condition_param,
                ParamSpec(name="ColumnName", example="Close"),
            ),
            description="Returns the value of a column for the rows matching a condition.",
            response_note="Returns a sentence with the matching value or values.",
        ),
        "Calculate": ApiSpec(
            name="Calculate",
            params=(ParamSpec(name="Expression", example="(189.35 - 189.7) / 189.7 * 100"),),
            description="Evaluates an arithmetic expression.",
            response_note="Returns a sentence with the calculated result.",
        ),
    }
    return ToolRegistry(apis=apis, behaviors=dict(BASE_BEHAVIORS), world=world, generation="base")


# The manual's lines for env.SYSTEM_ACTIONS, which are not registry tools.
SYSTEM_ACTION_MANUAL = (
    "Finish[answer]: Submits the final answer and ends the task.",
    "UpdateTool[newtool_desc]: Appends a newly learned tool description to the tool manual.",
)


def manual_entry(spec: ApiSpec) -> str:
    text = f"{spec.signature()}: {spec.description}"
    if spec.response_note:
        text += f" {spec.response_note}"
    if spec.params:
        text += f" For example, {json.dumps(spec.example_args())}."
    return text


def build_manual(registry: ToolRegistry) -> list[str]:
    """The registry's APIs in order, then the two system actions."""
    return [manual_entry(spec) for spec in registry.apis.values()] + list(SYSTEM_ACTION_MANUAL)


# ---------------------------------------------------------------------------
# Tasks and their reference tool plans.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedCall:
    """One intended invocation, in base-registry vocabulary."""

    tool: str
    args: dict
    thought: str

    @functools.cached_property
    def text(self) -> str:
        """The call as a candidate step, rendered once."""
        return render_step(ActionRecord(thought=self.thought, action_name=self.tool, action_input=self.args))


@dataclass(frozen=True)
class TaskPlan:
    calls: tuple[PlannedCall, ...]
    answer: str
    finish_thought: str = "I now know the final answer."

    @functools.cached_property
    def finish_text(self) -> str:
        """The Finish step with the answer, rendered once."""
        return render_step(
            ActionRecord(thought=self.finish_thought, action_name="Finish", action_input={"answer": self.answer})
        )


@dataclass
class Corpus:
    """Built-in corpus bundle: base registry (with its world), prompt material, tasks."""

    base_registry: ToolRegistry
    manual: list[str]
    demos: list[str]
    tasks: list[TaskInstance]
    plans: dict[str, TaskPlan] = field(default_factory=dict)

    def task(self, task_id: str) -> TaskInstance:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(task_id)


TOPICS = {"coffee": "coffee price information", "agenda": "agenda events"}


def _plan(db: str, condition: str, answer: str, reads: tuple[str, ...] = (), expression: str = "") -> TaskPlan:
    """Load ``db`` and filter it by ``condition``, then read each column of
    ``reads`` and, given an ``expression``, calculate it. A plan that reads
    nothing answers with the filtered row count."""
    where = {"DBName": db, "FilterCondition": condition}
    filter_thought = ("Now I filter the rows that are relevant to the question." if reads
                      else "Filtering tells me how many rows match.")
    read_thought = ("I need the {} column of the matching row." if expression
                    else "I can read the {} column from the filtered rows.")
    calls = [
        PlannedCall("LoadDB", {"DBName": db}, f"I should first load the {db} database containing {TOPICS[db]}."),
        PlannedCall("FilterDB", where, filter_thought),
        *(PlannedCall("GetValue", {**where, "ColumnName": c}, read_thought.format(c)) for c in reads),
    ]
    if expression:
        calls.append(PlannedCall("Calculate", {"Expression": expression}, "With the values in hand, I can compute the result."))
    return TaskPlan(calls=tuple(calls), answer=answer)


def _build_tasks(world: dict) -> tuple[list[TaskInstance], dict[str, TaskPlan]]:
    """The builtin tasks in id order, with their plans. Gold answers are
    computed here from the world rows, never through a tool."""
    tasks: list[TaskInstance] = []
    plans: dict[str, TaskPlan] = {}

    def add(task_id: str, question: str, condition: str, answer: str, reads=(), expression: str = "") -> None:
        dataset, difficulty, _ = task_id.split("-")
        tasks.append(TaskInstance(task_id, question, answer, dataset, difficulty))
        plans[task_id] = _plan(dataset, condition, answer, reads, expression)

    def row(db: str, condition: str) -> dict:
        (only,) = filter_rows(world[db], condition)
        return only

    easy_lookups = [
        ("2000-01-03", "Close", "closing price"),
        ("2000-01-04", "Open", "opening price"),
        ("2012-03-08", "High", "highest price"),
        ("2012-03-09", "Low", "lowest price"),
        ("2022-09-05", "Volume", "trading volume"),
        ("2022-09-06", "Close", "closing price"),
    ]
    for i, (date, column, label) in enumerate(easy_lookups, start=1):
        condition = f"Date={date}"
        add(f"coffee-easy-{i}", f"What was the {label} of coffee on {date}?", condition,
            _cell_text(row("coffee", condition)[column]), (column,))
    for i, date in enumerate(["2000-01-03", "2012-03-09", "2022-09-06"], start=1):
        r = row("coffee", f"Date={date}")
        add(f"coffee-hard-{i}", f"By how much did the highest coffee price exceed the lowest on {date}?",
            f"Date={date}", format_number(r["High"] - r["Low"]), ("High", "Low"), f"{r['High']} - {r['Low']}")
    for i, date in enumerate(["2012-03-08", "2012-03-09", "2022-09-06"], start=4):
        r = row("coffee", f"Date={date}")
        add(f"coffee-hard-{i}", f"What was the percentage change of the coffee price on {date}?",
            f"Date={date}", format_number((r["Close"] - r["Open"]) / r["Open"] * 100), ("Close", "Open"),
            f"({r['Close']} - {r['Open']}) / {r['Open']} * 100")

    easy_agenda = [
        ("Person=Sarah Chen, Date=2022-01-18, Event=Team standup", "Location",
         "Where does Sarah Chen's team standup take place on 2022-01-18?"),
        ("Person=Sarah Chen, Date=2022-01-18, Event=Budget review", "Start_Hour",
         "At what hour does Sarah Chen's budget review start on 2022-01-18?"),
        ("Person=Miguel Santos, Date=2022-01-19", "Event", "What event does Miguel Santos have on 2022-01-19?"),
        ("Person=Priya Patel, Date=2022-01-19", "Location", "Where does Priya Patel's event on 2022-01-19 take place?"),
        ("Person=Miguel Santos, Date=2022-01-20", "End_Hour",
         "At what hour does Miguel Santos's event on 2022-01-20 end?"),
        ("Person=Priya Patel, Date=2022-01-20", "Event", "What event does Priya Patel have on 2022-01-20?"),
    ]
    for i, (condition, column, question) in enumerate(easy_agenda, start=1):
        add(f"agenda-easy-{i}", question, condition, _cell_text(row("agenda", condition)[column]), (column,))
    durations = [
        ("Sarah Chen", "2022-01-18", ", Event=Budget review"),
        ("Miguel Santos", "2022-01-20", ""),
        ("Sarah Chen", "2022-01-21", ""),
        ("Miguel Santos", "2022-01-21", ""),
    ]
    for i, (person, date, extra) in enumerate(durations, start=1):
        condition = f"Person={person}, Date={date}{extra}"
        r = row("agenda", condition)
        add(f"agenda-hard-{i}", f"How many hours does {person}'s event on {date} last?", condition,
            format_number(r["End_Hour"] - r["Start_Hour"]), ("End_Hour", "Start_Hour"),
            f"{r['End_Hour']} - {r['Start_Hour']}")
    for i, (person, date) in enumerate([("Sarah Chen", "2022-01-18"), ("Priya Patel", "2022-01-19")], start=5):
        condition = f"Person={person}, Date={date}"
        add(f"agenda-hard-{i}", f"How many events does {person} have on {date}?", condition,
            str(len(filter_rows(world["agenda"], condition))))

    return tasks, plans


# Few-shot demonstrations: a question and its (thought, tool, input) steps.
DEMOS = (
    (
        "What was the closing price of coffee on 2000-01-04?",
        (
            ("To answer this question, I should first load the database containing coffee price information.",
             "LoadDB", {"DBName": "coffee"}),
            ("Now I filter the rows to the requested date.",
             "FilterDB", {"DBName": "coffee", "FilterCondition": "Date=2000-01-04"}),
            ("I can read the Close column from the filtered row.",
             "GetValue", {"DBName": "coffee", "FilterCondition": "Date=2000-01-04", "ColumnName": "Close"}),
            ("I now know the final answer.", "Finish", {"answer": "116.25"}),
        ),
    ),
    (
        "Where does Priya Patel's piano lesson take place on 2022-01-19?",
        (
            ("To answer this question, I should first load the database containing agenda events.",
             "LoadDB", {"DBName": "agenda"}),
            ("Now I filter the agenda to Priya Patel's entry on that date.",
             "FilterDB", {"DBName": "agenda", "FilterCondition": "Person=Priya Patel, Date=2022-01-19"}),
            ("I can read the Location column from the filtered row.",
             "GetValue",
             {"DBName": "agenda", "FilterCondition": "Person=Priya Patel, Date=2022-01-19", "ColumnName": "Location"}),
            ("I now know the final answer.", "Finish", {"answer": "Harmony Studio"}),
        ),
    ),
    (
        "What was the percentage change of the coffee price on 2012-03-08?",
        (
            ("To answer this question, I should first load the database containing coffee price information.",
             "LoadDB", {"DBName": "coffee"}),
            ("Now I filter the rows to the requested date.",
             "FilterDB", {"DBName": "coffee", "FilterCondition": "Date=2012-03-08"}),
            ("I need the Close column of the matching row.",
             "GetValue", {"DBName": "coffee", "FilterCondition": "Date=2012-03-08", "ColumnName": "Close"}),
            ("I need the Open column of the matching row.",
             "GetValue", {"DBName": "coffee", "FilterCondition": "Date=2012-03-08", "ColumnName": "Open"}),
            ("With the opening and closing prices, I can compute the percentage change.",
             "Calculate", {"Expression": "(189.35 - 189.7) / 189.7 * 100"}),
            ("I now know the final answer.", "Finish", {"answer": "-0.18"}),
        ),
    ),
)


def build_demos(registry: ToolRegistry) -> list[str]:
    """The ``DEMOS`` as prompt text. A step's observation is what ``invoke``
    returns for it on ``registry`` (the base registry), and a Finish step's
    is the correct-answer text."""
    demos = []
    for question, steps in DEMOS:
        text = f"Question: {question}"
        for thought, tool, args in steps:
            observation = ANSWER_CORRECT_TEXT if tool == "Finish" else invoke(registry, tool, args).text
            text += "\n\n" + render_step(ActionRecord(thought, tool, args, observation))
        demos.append(text)
    return demos


def load_corpus() -> Corpus:
    world = build_world()
    registry = build_base_registry(world)
    tasks, plans = _build_tasks(world)
    return Corpus(
        base_registry=registry,
        manual=build_manual(registry),
        demos=build_demos(registry),
        tasks=tasks,
        plans=plans,
    )


_TASK_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def tasks_to_json(tasks: list[TaskInstance]) -> str:
    doc = [asdict(t) for t in tasks]
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def tasks_from_json(text: str) -> list[TaskInstance]:
    """Tasks from a JSON list; any malformed document raises ValueError. A
    task id names its tree files, so it must be a file-name token, and unique."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("tasks: expected a list")
    tasks = [TaskInstance(**typed_object(d, TASK_TYPES, f"task {i}")) for i, d in enumerate(doc)]
    seen = set()
    for task in tasks:
        if not _TASK_ID_RE.fullmatch(task.id):
            raise ValueError(f"task id {task.id!r} is not a file-name token")
        if task.id in seen:
            raise ValueError(f"task id {task.id!r} is repeated")
        seen.add(task.id)
    return tasks
