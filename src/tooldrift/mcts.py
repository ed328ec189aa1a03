"""Customized tree search: PUCT selection, policy expansion, cached rollouts.

A tree is its columns: one list per node field, indexed by node id, which
search and serialization read and write; an expansion appends its k children
at once, so siblings have consecutive ids. A node holds its executed action,
its statistics and, once it ends (is terminal), its reward: its action's
``step_reward``, fixed when the node is made, or -1 once its expansion fails.
Its state is derived: ``SearchTree.state`` replays the path's actions through
``adapt.advance``, so search and loaded trees share one step rule. A child's
action and reward depend only on its candidate text, the task, the registry
and the config, so a tree parses and executes each distinct text once per
registry object it is expanded under, and asks a ``pure`` policy once per
distinct path; neither memo is serialized.

The frontier is a property of the expansions: a node is visible when it is
the root or its parent has been expanded, and an open leaf is a visible,
non-terminal node above the depth limit that is not expanded. Every simulation
selects the best open leaf by PUCT, expands it with k policy candidates, each
with prior 1/k (reusing the children a rollout built when it stored them),
simulates one new child to a terminal reward, and propagates the reward to the
root with incremental-mean updates. Rollout-built nodes stay in the tree but
are hidden from selection until their parent is expanded. The tree logs each
simulation's leaf, chosen node and reward; the statistics and the expanded
nodes are a replay of that log, so a tree file stores the log instead of them.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, namedtuple
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import compress, groupby, zip_longest
from typing import Any

from .adapt import advance, execute_action, reflection_gate
from .env import ANSWER_CORRECT_TEXT, ANSWER_INCORRECT_TEXT, OBSERVATION_KINDS, TASK_TYPES, typed_object
from .env import TaskInstance, ToolRegistry
from .react import ActionParseError, ActionRecord, PolicyError, StateRecord, parse_action

FAILED_ACTION_NAME = "MalformedAction"


@dataclass(frozen=True)
class SearchConfig:
    """Search knobs; the defaults match the reference setup. A value out of
    range raises ValueError when the config is built."""

    c_puct: float = 1.25
    max_depth: int = 15
    k: int = 5
    max_simulations: int = 30
    trees_per_task: int = 20
    rng_seed: int = 0
    no_self_reflection: bool = False
    no_tool_update: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_puct) and self.c_puct > 0):
            raise ValueError("c_puct must be a finite positive number")
        for name in ("max_depth", "k", "max_simulations", "trees_per_task"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass
class SearchTree:
    """A search tree as columns: entry i of each node list is node i's field.
    A new tree holds only its root, node 0."""

    task: TaskInstance
    config: SearchConfig
    registry_generation: str = "base"
    tree_id: str = "tree"
    manual: tuple[str, ...] = ()
    demos: tuple[str, ...] = ()
    stats: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_STATS_TYPES, 0))
    # The node columns; tree JSON writes parent (per expansion) and action, and rebuilds the rest.
    parent: list[int | None] = field(default_factory=lambda: [None])
    action: list[ActionRecord | None] = field(default_factory=lambda: [None])
    q_value: list[float] = field(default_factory=lambda: [0.0])
    visit_count: list[int] = field(default_factory=lambda: [0])
    reward: list[int | None] = field(default_factory=lambda: [None])
    # Node id -> its failed expansion's message; tree JSON writes it as sorted [id, message] pairs.
    failure: dict[int, str] = field(default_factory=dict)
    # One [leaf, chosen, reward] entry per simulation run, in order.
    simulations: list[list[int]] = field(default_factory=list)
    # The nodes ``expand`` has opened, whose children selection sees; the log's leaves.
    expanded: set[int] = field(default_factory=set)
    # Derived from ``parent``, so not compared: each node's children in id order, and its depth.
    children: list[Sequence[int]] = field(default_factory=lambda: [()], compare=False)
    depth: list[int] = field(default_factory=lambda: [0], compare=False)
    # The (actions, rewards) each node a pure policy expanded made its children from; never written.
    _rows: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)
    # Whether each visible node leads to an open leaf, kept by select_leaf across calls; never written.
    _reachable: dict[int, bool] = field(default_factory=dict, init=False, repr=False, compare=False)
    _made = (None, None, None)  # (registry, text memo, path memo) of _memos; never written
    root_id = 0

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Every node's row, in id order, as it is now: a child's prior is
        1/(its number of siblings and itself), and it is cached until its
        parent is expanded."""
        parent, children, expanded = self.parent, self.children, self.expanded
        prior = [1.0, *(1.0 / len(children[p]) for p in parent[1:])]
        cached = [False, *(p not in expanded for p in parent[1:])]
        terminal = [reward is not None for reward in self.reward]
        return tuple(map(
            Node, range(len(parent)), parent, self.action, self.q_value, self.visit_count, prior, cached,
            self.reward, map(self.failure.get, range(len(parent))), map(tuple, children), self.depth, terminal,
        ))

    def successful_leaves(self) -> list[int]:
        return [node_id for node_id, reward in enumerate(self.reward) if reward == 1]

    def actions(self, node_id: int) -> tuple[ActionRecord, ...]:
        """The actions on the node's path, root first."""
        actions, parent = [], self.parent
        while parent[node_id] is not None:
            actions.append(self.action[node_id])
            node_id = parent[node_id]
        return tuple(reversed(actions))

    def state(self, node_id: int) -> StateRecord:
        """The node's state: the root state advanced by the actions on its path."""
        root = StateRecord(task=self.task, tool_manual=self.manual, demos=self.demos)
        return advance(root, self.actions(node_id), self.config.no_tool_update)


def puct_score(parent_visits: int, q_value: float, prior: float, visit_count: int, c_puct: float) -> float:
    """Q(s,a) + c_puct * P(s,a) * sqrt(N(s)) / (1 + N(s,a))."""
    return q_value + c_puct * prior * math.sqrt(parent_visits) / (1 + visit_count)


def select_leaf(tree: SearchTree) -> int | None:
    """Walk from the root by PUCT to the best open leaf; None when exhausted.

    An open leaf is a visible, non-terminal node above ``max_depth`` that is
    not expanded. Each step takes the argmax over the expanded node's children
    that lead to one, each with prior 1/(number of children), ties toward the
    smallest child index.

    Which nodes lead to one is kept on the tree between calls, less the path
    to the leaf returned: the caller changes only that leaf's subtree, whose
    other nodes were hidden until the leaf is expanded.
    """
    children, expanded, reward, depth = tree.children, tree.expanded, tree.reward, tree.depth
    max_depth, reachable = tree.config.max_depth, tree._reachable

    def leads_to_open(node_id: int) -> bool:
        # Depth first over visible nodes with an explicit stack, so any depth is
        # searched. An expanded node stays stacked under its first unknown child
        # until one child leads to an open leaf or all of them are known not to.
        stack = [] if node_id in reachable else [node_id]
        while stack:
            node = stack[-1]
            known = False
            if reward[node] is None:
                known = depth[node] < max_depth
                for child in children[node] if node in expanded else ():
                    known = reachable.get(child)
                    if known is not False:
                        break
                if known is None:
                    stack.append(child)
                    continue
            reachable[stack.pop()] = known
        return reachable[node_id]

    if not leads_to_open(tree.root_id):
        return None
    q_value, visit_count, c_puct = tree.q_value, tree.visit_count, tree.config.c_puct
    cur = tree.root_id
    while cur in expanded and (open_children := [c for c in children[cur] if leads_to_open(c)]):
        visits, prior = visit_count[cur], 1.0 / len(children[cur])
        cur = max(open_children, key=lambda c: puct_score(visits, q_value[c], prior, visit_count[c], c_puct))
    node: int | None = cur
    while node is not None:
        del reachable[node]
        node = tree.parent[node]
    return cur


def _memos(tree: SearchTree, registry: ToolRegistry) -> tuple[dict, dict]:
    if tree._made[1] is None or tree._made[0] is not registry:
        tree._made = (registry, {}, {})
    return tree._made[1:]


def step_reward(step: ActionRecord, no_self_reflection: bool) -> int | None:
    """The reward fixed when ``step`` makes its node: a Finish scores +1 on the
    correct answer text and -1 otherwise; an unparsed candidate (no kind) and a
    step the reflection gate stops score -1; any other step leaves it open."""
    if step.kind == "task_done":
        return 1 if step.observation == ANSWER_CORRECT_TEXT else -1
    return -1 if step.kind is None or reflection_gate(step.kind, no_self_reflection) else None


def _child_fields(tree: SearchTree, state: StateRecord, text: str, registry: ToolRegistry) -> tuple:
    """The (action, reward) of the child that candidate ``text`` makes from
    ``state``, through the tree's memo: each distinct text is parsed and
    executed once per tree and registry object, and every node it makes
    shares that frozen record and reward. They depend only on the text, the
    task, the registry and the config: ``invoke`` is pure in (registry, name,
    args), ``evaluate`` reads only the task, and ``no_tool_update`` changes
    only the state, which is derived."""
    made = _memos(tree, registry)[0]
    if text not in made:
        try:
            record = parse_action(text)
        except ActionParseError as exc:
            step = ActionRecord(thought=text, action_name=FAILED_ACTION_NAME, action_input={}, observation=str(exc))
        else:
            step = execute_action(state, record, registry).step
        made[text] = step, step_reward(step, tree.config.no_self_reflection)
    return made[text]


def _children(tree: SearchTree, node_id: int, policy, registry: ToolRegistry) -> Sequence[int]:
    """The node's children: on first use, one child per policy candidate,
    appended in one step with consecutive ids, each with its reward, and
    hidden from selection until ``expand`` opens the node; () once the policy
    fails, which ends the node with reward -1 and the failure's message.

    A policy marked ``pure`` proposes a function of the state, so its rows are
    kept per registry object under a key of the path: the root's is (), and a
    child's is the ids of the rows its parent was expanded from and of its
    action. The tree holds both objects, so no id is reused, and equal keys
    mean the same records on the path; equal records that are distinct
    objects only miss, and so does a node whose parent no pure policy
    expanded here (in a loaded or hand-built tree).
    """
    if tree.children[node_id]:
        return tree.children[node_id]
    parent, key = tree.parent[node_id], None
    if getattr(policy, "pure", False) and (parent is None or parent in tree._rows):
        key = () if parent is None else (id(tree._rows[parent]), id(tree.action[node_id]))
    expansions = _memos(tree, registry)[1]
    rows = expansions.get(key)
    if rows is None:
        state = tree.state(node_id)
        try:
            texts = policy.propose(state, tree.config.k)
        except PolicyError as exc:
            tree.reward[node_id], tree.failure[node_id] = -1, str(exc)
            return ()
        tree.stats["policy_calls"] += 1
        rows = tuple(zip(*(_child_fields(tree, state, text, registry) for text in texts)))
    if key is not None:
        expansions[key] = tree._rows[node_id] = rows
    actions, rewards = rows
    start, k = len(tree.parent), len(actions)
    tree.parent += [node_id] * k
    tree.action += actions
    tree.q_value += [0.0] * k
    tree.visit_count += [0] * k
    tree.reward += rewards
    tree.children += [()] * k
    tree.depth += [tree.depth[node_id] + 1] * k
    tree.children[node_id] = range(start, start + k)
    return tree.children[node_id]


def expand(tree: SearchTree, leaf_id: int, policy, registry: ToolRegistry) -> list[int]:
    """Open the leaf: its children, reused without a policy call when an
    earlier rollout stored them, become visible to selection; [] when the
    leaf's expansion failed."""
    children = _children(tree, leaf_id, policy, registry)
    tree.expanded.add(leaf_id)
    return list(children)


def simulate_cached(
    tree: SearchTree,
    node_id: int,
    policy,
    registry: ToolRegistry,
    rng: random.Random,
) -> int:
    """Roll out one episode from the node and return its terminal reward.

    Every rollout step materializes (or reuses) the full k-candidate set as
    hidden children and follows a seeded-random one, so a repeat rollout over
    a stored subtree costs no policy calls. Episodes still unfinished at the
    depth limit count as failures.
    """
    reward, depth, max_depth = tree.reward, tree.depth, tree.config.max_depth
    cur = node_id
    while reward[cur] is None and depth[cur] < max_depth:
        children = _children(tree, cur, policy, registry)
        if children:
            cur = rng.choice(children)
    return -1 if reward[cur] is None else reward[cur]


def backpropagate(tree: SearchTree, node_id: int, reward: int) -> None:
    """Apply the incremental-mean update from the node up to the root."""
    q_value, visit_count, parent = tree.q_value, tree.visit_count, tree.parent
    cur: int | None = node_id
    while cur is not None:
        q_value[cur] += (reward - q_value[cur]) / (visit_count[cur] + 1)
        visit_count[cur] += 1
        cur = parent[cur]


def run_search(
    task: TaskInstance,
    registry: ToolRegistry,
    policy,
    config: SearchConfig,
    manual: list[str],
    demos: list[str] = (),
    tree_id: str | None = None,
) -> SearchTree:
    """Build one search tree for a task; every failure becomes a terminal
    node, and each simulation is logged as it is backed up."""
    rng = random.Random(config.rng_seed)
    tree = SearchTree(
        task=task,
        config=config,
        registry_generation=registry.generation,
        tree_id=tree_id or f"{task.id}__seed{config.rng_seed}",
        manual=tuple(manual),
        demos=tuple(demos),
    )
    for _ in range(config.max_simulations):
        leaf_id = select_leaf(tree)
        if leaf_id is None:
            break
        new_ids = expand(tree, leaf_id, policy, registry)
        if new_ids:
            chosen = rng.choice(new_ids)
            reward = simulate_cached(tree, chosen, policy, registry, rng)
        else:
            chosen, reward = leaf_id, -1
        tree.simulations.append([leaf_id, chosen, reward])
        backpropagate(tree, chosen, reward)
    return tree


# ---------------------------------------------------------------------------
# Serialization, tree JSON format_version 9, compact, keys in field order (so
# an action's input keeps its policy's order). ``actions`` holds each distinct
# action (with its observation's ``kind``, one of ``OBSERVATION_KINDS`` or null;
# a ``task_done`` observation is an answer text) once, in order of first use.
# ``nodes`` holds three lists. ``expansions`` has one ``[parent, count]`` pair
# per expansion, in id order: node 0 is the root, and each expansion gives an
# earlier, unexpanded node ``count`` children, the next ids. ``action`` holds
# one index into ``actions`` per node after the root. ``failure`` holds one
# ``[id, message]`` pair per failed expansion, ids strictly increasing, on
# nodes no action ends. ``simulations`` is the search log: one ``[leaf, chosen,
# reward]`` triple per simulation, where ``chosen`` is the leaf's child its
# rollout started from, or the leaf itself when its expansion failed.
# ``parent``, ``children`` (a range of ids) and ``depth`` are rebuilt from the
# expansions, ``reward`` from the actions and failures, and ``_replay`` rebuilds
# ``q_value``, ``visit_count`` and ``expanded`` from the log; a node's prior,
# visibility and ``terminal`` are derived. States are not written: they derive
# from ``manual``, ``demos`` and the path's actions (``SearchTree.state``).
# ``stats`` holds only ``policy_calls``. A loader of version 9 reads no other.
# ---------------------------------------------------------------------------

TREE_FORMAT_VERSION = 9

_DOC_TYPES = {
    "format_version": (int,),
    "tree_id": (str,),
    "registry_generation": (str,),
    "task": (dict,),
    "config": (dict,),
    "manual": (list,),
    "demos": (list,),
    "stats": (dict,),
    "actions": (list,),
    "nodes": (dict,),
    "simulations": (list,),
}
_ACTION_TYPES = {
    "thought": (str,),
    "action_name": (str,),
    "action_input": (dict,),
    "observation": (str, type(None)),
    "kind": (str, type(None)),
}
_NODES_TYPES = dict.fromkeys(("expansions", "action", "failure"), (list,))
# The columns replayed from the simulation log, each with the label ``inspect`` shows it under.
_REPLAYED = {"q_value": "Q", "visit_count": "N"}
# A read-only snapshot of one node's row, for readers; search never builds one.
Node = namedtuple("Node", "id parent action q_value visit_count prior cached reward failure children depth terminal")
# The counters of SearchTree.stats, each a count >= 0.
_STATS_TYPES = {"policy_calls": (int,)}
# JSON types accepted for a SearchConfig field, keyed by its default's type.
_CONFIG_TYPES = {float: (int, float), int: (int,), bool: (bool,)}


def _require(problems: list[str]) -> None:
    if problems:
        raise ValueError(f"{len(problems)} invariant violation(s): {'; '.join(problems)}")


def _reject_constant(token: str):
    raise ValueError(f"tree: non-finite number {token}")


def _expansions(parent: list[int | None]) -> list[list[int]]:
    """One [parent, count] per run of equal parents after the root's, in id order."""
    return [[node, len(list(run))] for node, run in groupby(parent[1:])]


def _rewards(actions: list, indices: list[int], failures: list, no_self_reflection: bool) -> tuple[list, list[str]]:
    """Each node's reward as a tree file gives it: each action table entry's
    ``step_reward`` mapped through ``indices``, then -1 at each failure; and
    a problem for each failure on a node its action already ends."""
    table = [step_reward(action, no_self_reflection) for action in actions]
    reward = [None, *map(table.__getitem__, indices)]
    problems = [f"node {node}: failed to expand, but its action ends it" for node, _ in failures if reward[node]]
    for node, _ in failures:
        reward[node] = -1
    return reward, problems


def tree_to_json(tree: SearchTree) -> str:
    """The tree's format_version 9 text; a tree that breaks an invariant of
    ``check_tree_invariants``, or whose rewards are not the ones a load would
    derive, raises ValueError instead."""
    _require(check_tree_invariants(tree))
    # Action JSON -> (index, entry, record), and each distinct record's id ->
    # its index, taken in order of first use; the root's None maps to None.
    table: dict[str, tuple[int, dict, ActionRecord]] = {}
    index_of: dict[int, int | None] = {id(None): None}
    for action in dict(zip(map(id, tree.action), tree.action)).values():
        if action is not None:
            entry = dict(vars(action))  # a shallow copy: asdict would deep-copy each action_input
            key = json.dumps(entry, ensure_ascii=False)
            index_of[id(action)] = table.setdefault(key, (len(table), entry, action))[0]
    indices = list(map(index_of.__getitem__, map(id, tree.action[1:])))
    if None in indices:
        raise ValueError(f"node {indices.index(None) + 1}: a node after the root has no action")
    failures = sorted(tree.failure.items())
    _require([f"node {node}: failed to expand, but the tree has no such node"
              for node, _ in failures if not 0 <= node < len(tree.parent)])
    reward, problems = _rewards([a for _, _, a in table.values()], indices, failures, tree.config.no_self_reflection)
    if reward != tree.reward:
        node, value, expected = next((i, *p) for i, p in enumerate(zip_longest(tree.reward, reward)) if p[0] != p[1])
        problems.append(f"node {node}: reward={value} is not the reward={expected} its action and failure give")
    _require(problems)
    doc: dict[str, Any] = {
        "format_version": TREE_FORMAT_VERSION,
        "tree_id": tree.tree_id,
        "registry_generation": tree.registry_generation,
        "task": asdict(tree.task),
        "config": asdict(tree.config),
        "manual": list(tree.manual),
        "demos": list(tree.demos),
        "stats": tree.stats,
        "actions": [entry for _, entry, _ in table.values()],
        "nodes": {"expansions": _expansions(tree.parent), "action": indices, "failure": failures},
        "simulations": tree.simulations,
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n"


def _entries(items: list, types: tuple, what: str) -> list:
    """``items``, once each is a list of ``len(types)`` values whose JSON
    types are in ``types`` in turn; ValueError ``what`` otherwise. Checked a
    column at a time: the items' shapes, then the types in each position."""
    if {*map(type, items)} - {list} or {*map(len, items)} - {len(types)}:
        raise ValueError(what)
    if any({*map(type, column)} - {*allowed} for column, allowed in zip(zip(*items), types)):
        raise ValueError(what)
    return items


def tree_from_json(text: str) -> SearchTree:
    """Load a format_version 9 tree, grown one expansion at a time, its
    rewards and statistics rebuilt; a malformed document (a NaN or Infinity
    token, or an action kind or answer text, expansion, action index, failure
    or log entry that the format above does not allow, included), or one that
    breaks an invariant of ``check_tree_invariants``, raises ValueError. Nodes
    that name one table entry share its ActionRecord."""
    doc = json.loads(text, parse_constant=_reject_constant)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != TREE_FORMAT_VERSION or type(version) is not int:
        raise ValueError(f"unsupported tree format_version {version!r}")
    doc = typed_object(doc, _DOC_TYPES, "tree")
    task = TaskInstance(**typed_object(doc["task"], TASK_TYPES, "task"))
    config = SearchConfig(**typed_object(
        doc["config"], {f.name: _CONFIG_TYPES[type(f.default)] for f in fields(SearchConfig)}, "config"
    ))
    if not all(isinstance(entry, str) for entry in doc["manual"] + doc["demos"]):
        raise ValueError("tree: manual and demos must be lists of strings")
    stats = typed_object(doc["stats"], _STATS_TYPES, "stats")
    if min(stats.values()) < 0:
        raise ValueError("stats: a count is negative")
    actions = [
        ActionRecord(**typed_object(entry, _ACTION_TYPES, f"action {index}"))
        for index, entry in enumerate(doc["actions"])
    ]
    if not {action.kind for action in actions} <= {*OBSERVATION_KINDS, None}:
        raise ValueError("actions: a kind is neither an observation class nor null")
    if not {a.observation for a in actions if a.kind == "task_done"} <= {ANSWER_CORRECT_TEXT, ANSWER_INCORRECT_TEXT}:
        raise ValueError("actions: a task_done observation is neither answer text")
    nodes = typed_object(doc["nodes"], _NODES_TYPES, "nodes")
    indices = nodes["action"]
    parent, children, depth = [None], [()], [0]
    for node, count in _entries(nodes["expansions"], ((int,), (int,)), "nodes: an expansion is not a [parent, count]"):
        start = len(parent)
        if not 0 <= node < start:
            raise ValueError(f"nodes: an expansion's parent {node} is not an earlier node")
        if children[node]:
            raise ValueError(f"nodes: node {node} is expanded twice")
        if count < 1:
            raise ValueError(f"nodes: node {node} is expanded with count {count}")
        if start + count > len(indices) + 1:
            raise ValueError(f"nodes: the expansions hold more nodes than {len(indices)} actions and the root")
        parent += [node] * count
        depth += [depth[node] + 1] * count
        children += [()] * count
        children[node] = range(start, start + count)
    n, odd = len(parent), {*map(type, indices)} - {int}
    if len(indices) != n - 1 or odd or indices and not 0 <= min(indices) <= max(indices) < len(actions):
        raise ValueError(f"nodes: action does not hold one index into actions for each of {n - 1} non-root nodes")
    pairs = _entries(nodes["failure"], ((int,), (str,)), "nodes: 'failure' holds an entry that is not an [id, message]")
    ids = [-1, *(i for i, _ in pairs), n]
    if not all(map(int.__lt__, ids, ids[1:])):
        raise ValueError(f"nodes: 'failure' ids do not increase strictly within [0, {n})")
    log = _entries(doc["simulations"], ((int,),) * 3, "simulations: an entry is not a [leaf, chosen, reward] of ints")
    tree = SearchTree(
        task=task, config=config, registry_generation=doc["registry_generation"], tree_id=doc["tree_id"],
        manual=tuple(doc["manual"]), demos=tuple(doc["demos"]), stats=stats, simulations=log, parent=parent,
        action=[None, *map(actions.__getitem__, indices)], failure=dict(pairs),
        children=children, depth=depth,
    )
    tree.reward, problems = _rewards(actions, indices, pairs, config.no_self_reflection)
    _require(problems or _stored_problems(tree))
    return _replay(tree)


def _replay(tree: SearchTree) -> SearchTree:
    """``tree`` with the q_value, visit_count and expanded that search leaves:
    each logged leaf is expanded, and each logged reward is backed up from its
    chosen node, in log order."""
    n = len(tree.parent)
    tree.q_value, tree.visit_count = [0.0] * n, [0] * n
    tree.expanded = {leaf for leaf, _, _ in tree.simulations}
    for _, chosen, reward in tree.simulations:
        backpropagate(tree, chosen, reward)
    return tree


def _stored_problems(tree: SearchTree) -> list[str]:
    """The invariants that the facts a tree file stores break: the log's, the
    siblings', the depths' and the terminal nodes'."""
    parent, reward, children, config, log = tree.parent, tree.reward, tree.children, tree.config, tree.simulations
    problems = [f"{len(log)} simulations exceed max_simulations"] if len(log) > config.max_simulations else []
    for i, (leaf, chosen, logged) in enumerate(log):
        # A chosen node that is the leaf or its child makes the leaf a node too.
        if not (0 <= chosen < len(parent) and leaf in (chosen, parent[chosen])):
            problems.append(f"simulation {i}: chosen {chosen} is not node {leaf} or a child of it")
        if logged not in (-1, 1):
            problems.append(f"simulation {i}: reward {logged!r} is not -1 or +1")
    # A file stores one expansion per run of siblings, so each node's children are consecutive ids.
    runs = Counter(node for node, _ in groupby(parent[1:]))
    with_children = compress(range(len(children)), children)
    return [
        *problems,
        *(f"node {node}: children are not consecutive ids" for node, count in runs.items() if count > 1),
        *(f"node {i}: beyond depth limit" for i, d in enumerate(tree.depth) if d > config.max_depth),
        *(f"node {i}: terminal node has children" for i in with_children if reward[i] is not None),
    ]


def check_tree_invariants(tree: SearchTree) -> list[str]:
    """The invariants ``tree`` breaks, one line each; empty for a sound tree.
    Once its log, siblings, depths and terminal nodes are sound, each column
    the log replays, and the expanded nodes, must equal their replay; the
    first node where one does not is named."""
    problems = _stored_problems(tree)
    if problems:
        return problems
    rebuilt = _replay(replace(tree))
    for name, label in _REPLAYED.items():
        stored, replayed = getattr(tree, name), getattr(rebuilt, name)
        if stored != replayed:
            node, value, expected = next((i, *p) for i, p in enumerate(zip_longest(stored, replayed)) if p[0] != p[1])
            problems.append(f"node {node}: {label}={value} is not its replay {label}={expected}")
    if tree.expanded != rebuilt.expanded:
        node = min(tree.expanded ^ rebuilt.expanded)
        stored = node in tree.expanded
        problems.append(f"node {node}: expanded={stored} is not its replay expanded={not stored}")
    return problems
