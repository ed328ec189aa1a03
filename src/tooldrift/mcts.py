"""Customized tree search: PUCT selection, policy expansion, cached rollouts.

A node stores only its executed action, its statistics and, once it ends, its
reward; ``terminal`` is ``reward is not None``. Its state is derived:
``SearchTree.state`` replays the actions on the path from the root through
``adapt.advance``, so search and loaded trees share one step rule. A child's
action and outcome depend only on its candidate text, the task and the
registry, so a tree parses and executes each distinct text once per registry
object it is expanded under, and asks a ``pure`` policy once per distinct path;
neither memo is serialized.

The frontier is a property of the node flags: an open leaf is a visible
(not cached), non-terminal node above the depth limit with no visible child.
Every simulation selects the best open leaf by PUCT, expands it with k policy
candidates (reusing rollout-built children when the cache holds them),
simulates one new child to a terminal reward, and propagates the reward to the
root with incremental-mean updates. Rollout-created nodes stay in the tree but
are invisible to selection until an expansion unhides them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Any

from .adapt import advance, execute_action, reflection_gate
from .env import TASK_TYPES, TaskInstance, ToolRegistry, typed_object
from .policy import PolicyError
from .react import ActionParseError, ActionRecord, StateRecord, parse_action

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
    cache_rollouts: bool = True
    no_self_reflection: bool = False
    no_tool_update: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_puct) and self.c_puct > 0):
            raise ValueError("c_puct must be a finite positive number")
        for name in ("max_depth", "k", "max_simulations", "trees_per_task"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass(slots=True)
class TreeNode:
    """One search node: an executed action, its statistics and, once it ends, its reward."""

    id: int
    parent: int | None
    action: ActionRecord | None = None
    q_value: float = 0.0
    visit_count: int = 0
    prior: float = 1.0
    children: list[int] = field(default_factory=list)
    cached: bool = False
    depth: int = 0
    reward: int | None = None
    failure: str | None = None

    @property
    def terminal(self) -> bool:
        return self.reward is not None


@dataclass
class SearchTree:
    task: TaskInstance
    config: SearchConfig
    registry_generation: str = "base"
    tree_id: str = "tree"
    manual: tuple[str, ...] = ()
    demos: tuple[str, ...] = ()
    nodes: list[TreeNode] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_STATS_TYPES, 0))
    _made = (None, None, None)  # (registry, text memo, path memo) of _memos; never written

    @property
    def root_id(self) -> int:
        return 0

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def add_node(
        self,
        parent: int | None,
        action: ActionRecord | None = None,
        q_value: float = 0.0,
        visit_count: int = 0,
        prior: float = 1.0,
        cached: bool = False,
        reward: int | None = None,
        failure: str | None = None,
    ) -> TreeNode:
        """Append the next node; the only way a node is made. The fields after
        ``parent`` are in the order of the node columns of the tree JSON."""
        node_id = len(self.nodes)
        depth = 0
        if parent is not None:
            above = self.nodes[parent]
            above.children.append(node_id)
            depth = above.depth + 1
        # Positional, in TreeNode's field order: half the cost of keywords.
        node = TreeNode(node_id, parent, action, q_value, visit_count, prior, [], cached, depth, reward, failure)
        self.nodes.append(node)
        return node

    def successful_leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.reward == 1]

    def actions(self, node_id: int) -> tuple[ActionRecord, ...]:
        """The actions on the node's path, root first."""
        actions = []
        node = self.nodes[node_id]
        while node.parent is not None:
            actions.append(node.action)
            node = self.nodes[node.parent]
        return tuple(reversed(actions))

    def state(self, node_id: int) -> StateRecord:
        """The node's state: the root state advanced by the actions on its path."""
        root = StateRecord(task=self.task, tool_manual=self.manual, demos=self.demos)
        return advance(root, self.actions(node_id), self.config.no_tool_update)


def puct_score(parent_visits: int, child: TreeNode, c_puct: float) -> float:
    """Q(s,a) + c_puct * P(s,a) * sqrt(N(s)) / (1 + N(s,a))."""
    return child.q_value + c_puct * child.prior * math.sqrt(parent_visits) / (1 + child.visit_count)


def select_leaf(tree: SearchTree) -> int | None:
    """Walk from the root by PUCT to the best open leaf; None when exhausted.

    An open leaf is a visible, non-terminal node above ``max_depth`` with no
    visible child. Each step takes the argmax over the children that lead to
    one, ties toward the smallest child index.
    """
    nodes, max_depth = tree.nodes, tree.config.max_depth
    reachable: dict[int, bool] = {}

    def leads_to_open(node_id: int) -> bool:
        # Depth first over visible nodes with an explicit stack, so any depth is
        # searched. A node stays stacked under its first unknown visible child
        # until one child leads to an open leaf or all of them are known not to.
        stack = [] if node_id in reachable else [node_id]
        while stack:
            node = nodes[stack[-1]]
            known = False
            if not node.terminal:
                known = node.depth < max_depth
                for child in node.children:
                    if not nodes[child].cached:
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
    cur = nodes[tree.root_id]
    while open_children := [nodes[c] for c in cur.children if not nodes[c].cached and leads_to_open(c)]:
        visits = cur.visit_count
        cur = max(open_children, key=lambda child: puct_score(visits, child, tree.config.c_puct))
    return cur.id


def _memos(tree: SearchTree, registry: ToolRegistry) -> tuple[dict, dict]:
    if tree._made[1] is None or tree._made[0] is not registry:
        tree._made = (registry, {}, {})
    return tree._made[1:]


def _child_fields(tree: SearchTree, state: StateRecord, text: str, registry: ToolRegistry) -> tuple:
    """The (action, reward, failure) of the child that candidate
    ``text`` makes from ``state``, through the tree's memo: each distinct text
    is parsed and executed once per tree and registry object, and every node
    it makes shares that frozen record and outcome. They depend only on the
    text, the task and the registry: ``invoke`` is pure in (registry, name,
    args), ``evaluate`` reads only the task, and ``no_tool_update`` changes
    only the state, which is derived."""
    made = _memos(tree, registry)[0]
    if text not in made:
        try:
            record = parse_action(text)
        except ActionParseError as exc:
            step = ActionRecord(thought=text, action_name=FAILED_ACTION_NAME, action_input={}, observation=str(exc))
            made[text] = step, -1, str(exc)
        else:
            outcome = execute_action(state, record, registry, tree.config.no_tool_update)
            made[text] = outcome.step, outcome.reward, None
    return made[text]


def _children(tree: SearchTree, node: TreeNode, policy, registry: ToolRegistry) -> list[int]:
    """The node's children: on first use, one hidden child per policy
    candidate, each with prior 1/len(texts); [] once the node is a failed
    terminal, because the reflection gate stops it or the policy fails.

    An error state passes the gate, so it expands with the error in context;
    under the self-reflection ablation an invocation-error node stops.

    A policy marked ``pure`` proposes a function of the state, so its rows are
    kept per registry object under the ids of the path's records, which nodes
    hold, so no id is reused; equal records that are distinct objects only miss.
    """
    kind = node.action.kind if node.action is not None else None
    if reflection_gate(kind, tree.config.no_self_reflection):
        node.reward = -1
        return []
    if not node.children:
        key = tuple(map(id, tree.actions(node.id))) if getattr(policy, "pure", False) else None
        expansions = _memos(tree, registry)[1]
        rows = expansions.get(key)
        if rows is None:
            state = tree.state(node.id)
            try:
                texts = policy.propose(state, tree.config.k)
            except PolicyError as exc:
                node.reward, node.failure = -1, str(exc)
                return []
            tree.stats["policy_calls"] += 1
            rows = [_child_fields(tree, state, text, registry) for text in texts]
            if key is not None:
                expansions[key] = rows
        prior = 1.0 / len(rows)
        for action, reward, failure in rows:
            tree.add_node(node.id, action, prior=prior, cached=True, reward=reward, failure=failure)
    return node.children


def expand(tree: SearchTree, leaf_id: int, policy, registry: ToolRegistry) -> list[int]:
    """Unhide the leaf's children, reusing those an earlier rollout cached
    without a policy call; [] when the leaf became a failed terminal."""
    children = _children(tree, tree.node(leaf_id), policy, registry)
    for child_id in children:
        tree.node(child_id).cached = False
    return children


def simulate_cached(
    tree: SearchTree,
    node_id: int,
    policy,
    registry: ToolRegistry,
    rng: random.Random,
) -> int:
    """Roll out one episode from the node and return its terminal reward.

    With caching on, every rollout step materializes (or reuses) the full
    k-candidate set as hidden children and follows a seeded-random one; a
    repeat rollout over a stored subtree costs no policy calls. Episodes
    still unfinished at the depth limit count as failures.
    """
    cur = tree.node(node_id)
    if not tree.config.cache_rollouts and not cur.terminal:
        return _transient_rollout(tree, cur, policy, registry, rng)
    while not cur.terminal and cur.depth < tree.config.max_depth:
        children = _children(tree, cur, policy, registry)
        if children:
            cur = tree.node(rng.choice(children))
    return cur.reward or -1


def _transient_rollout(
    tree: SearchTree,
    start: TreeNode,
    policy,
    registry: ToolRegistry,
    rng: random.Random,
) -> int:
    """Cache-free rollout: walk states without adding nodes to the tree. Each
    step's outcome comes from the tree's candidate memo, like an expansion's."""
    state, depth = tree.state(start.id), start.depth
    kind = start.action.kind if start.action is not None else None
    while depth < tree.config.max_depth:
        if reflection_gate(kind, tree.config.no_self_reflection):
            return -1
        try:
            texts = policy.propose(state, tree.config.k)
        except PolicyError:
            return -1
        tree.stats["policy_calls"] += 1
        action, reward, _ = _child_fields(tree, state, rng.choice(texts), registry)
        if reward is not None:
            return reward
        state = advance(state, (action,), tree.config.no_tool_update)
        kind, depth = action.kind, depth + 1
    return -1


def backpropagate(tree: SearchTree, node_id: int, reward: int) -> None:
    """Apply the incremental-mean update from the node up to the root."""
    cur: int | None = node_id
    while cur is not None:
        node = tree.node(cur)
        node.q_value += (reward - node.q_value) / (node.visit_count + 1)
        node.visit_count += 1
        cur = node.parent


def run_search(
    task: TaskInstance,
    registry: ToolRegistry,
    policy,
    config: SearchConfig,
    manual: list[str],
    demos: list[str] = (),
    tree_id: str | None = None,
) -> SearchTree:
    """Build one search tree for a task; every failure becomes a terminal node."""
    rng = random.Random(config.rng_seed)
    tree = SearchTree(
        task=task,
        config=config,
        registry_generation=registry.generation,
        tree_id=tree_id or f"{task.id}__seed{config.rng_seed}",
        manual=tuple(manual),
        demos=tuple(demos),
    )
    tree.add_node(parent=None)
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
        backpropagate(tree, chosen, reward)
    return tree


# ---------------------------------------------------------------------------
# Serialization, tree JSON format_version 5, compact with sorted keys.
# ``actions`` holds each distinct action (with its observation's ``kind``) once,
# in order of first use. ``nodes`` is an object of columns, one list per node
# field of ``_NODE_COLUMNS`` (``parent``, ``action``, ``q_value``,
# ``visit_count``, ``prior``, ``cached``, ``reward``, ``failure``), each indexed
# by node id and all of one length. In the ``action`` column node 0 holds null
# and every other node an index into ``actions``; the ``parent`` column (null
# for node 0, an earlier id otherwise) is the only structural one. Children (in
# id order) and depth are rebuilt at load, and ``terminal`` is derived; states
# are neither written nor rebuilt, since ``SearchTree.state`` derives them from
# ``manual``, ``demos`` and the path's actions. ``stats`` holds only
# ``policy_calls``: the root's ``visit_count`` counts the simulations. A loader
# of version 5 reads no other version.
# ---------------------------------------------------------------------------

TREE_FORMAT_VERSION = 5

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
}
_ACTION_TYPES = {
    "thought": (str,),
    "action_name": (str,),
    "action_input": (dict,),
    "observation": (str, type(None)),
    "kind": (str, type(None)),
}
# The JSON types of each node column's entries, in the order of add_node's fields.
_NODE_TYPES = {
    "parent": (int, type(None)),
    "action": (int, type(None)),
    "q_value": (int, float),
    "visit_count": (int,),
    "prior": (int, float),
    "cached": (bool,),
    "reward": (int, type(None)),
    "failure": (str, type(None)),
}
_NODE_COLUMNS = tuple(_NODE_TYPES)
# The counters of SearchTree.stats, each a count >= 0.
_STATS_TYPES = {"policy_calls": (int,)}
# JSON types accepted for a SearchConfig field, keyed by its default's type.
_CONFIG_TYPES = {float: (int, float), int: (int,), bool: (bool,)}


def _require_invariants(tree: SearchTree) -> None:
    problems = check_tree_invariants(tree)
    if problems:
        raise ValueError(f"{len(problems)} invariant violation(s): {'; '.join(problems)}")


def _reject_constant(token: str):
    raise ValueError(f"tree: non-finite number {token}")


def tree_to_json(tree: SearchTree) -> str:
    """The tree's format_version 5 text; a tree that breaks an invariant of
    ``check_tree_invariants`` raises ValueError instead."""
    _require_invariants(tree)
    # Canonical action JSON -> (index, entry); index_of skips shared ActionRecords.
    table: dict[str, tuple[int, dict]] = {}
    index_of: dict[int, int] = {}

    def action_index(action: ActionRecord | None) -> int | None:
        if action is None:
            return None
        if id(action) not in index_of:
            entry = asdict(action)
            key = json.dumps(entry, sort_keys=True, ensure_ascii=False)
            index_of[id(action)] = table.setdefault(key, (len(table), entry))[0]
        return index_of[id(action)]

    nodes = tree.nodes
    columns = {name: list(map(attrgetter(name), nodes)) for name in _NODE_COLUMNS if name != "action"}
    columns["action"] = [action_index(n.action) for n in nodes]
    doc: dict[str, Any] = {
        "format_version": TREE_FORMAT_VERSION,
        "tree_id": tree.tree_id,
        "registry_generation": tree.registry_generation,
        "task": asdict(tree.task),
        "config": asdict(tree.config),
        "manual": list(tree.manual),
        "demos": list(tree.demos),
        "stats": tree.stats,
        "actions": [entry for _, entry in table.values()],
        "nodes": columns,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, ensure_ascii=False) + "\n"


def _node_columns(doc) -> dict[str, list]:
    """The ``nodes`` object's columns, once each is a list of one shared,
    non-zero length whose entries have the column's JSON types."""
    columns = typed_object(doc, {name: (list,) for name in _NODE_COLUMNS}, "nodes")
    lengths = {len(column) for column in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"nodes: columns differ in length {sorted(lengths)}")
    if lengths == {0}:
        raise ValueError("tree has no nodes")
    for name, allowed in _NODE_TYPES.items():
        odd = set(map(type, columns[name])).difference(allowed)
        if odd:
            raise ValueError(f"nodes: {name!r} holds {sorted(t.__name__ for t in odd)}")
    return columns


def tree_from_json(text: str) -> SearchTree:
    """Load a format_version 5 tree; any malformed document (a NaN or Infinity
    token, a parent that is not an earlier node, or an action index that is
    not an int into ``actions``, included), or one that breaks an invariant of
    ``check_tree_invariants``, raises ValueError. Nodes that name one table
    entry share its ActionRecord."""
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
    tree = SearchTree(
        task=task,
        config=config,
        registry_generation=doc["registry_generation"],
        tree_id=doc["tree_id"],
        manual=tuple(doc["manual"]),
        demos=tuple(doc["demos"]),
        stats=stats,
    )
    actions = [
        ActionRecord(**typed_object(entry, _ACTION_TYPES, f"action {index}"))
        for index, entry in enumerate(doc["actions"])
    ]
    columns = _node_columns(doc["nodes"])
    parents, indices = columns["parent"], columns["action"]
    if parents[0] is not None or indices[0] is not None:
        raise ValueError("node 0: the root has a parent or an action")
    for index in range(1, len(parents)):
        parent, action = parents[index], indices[index]
        if parent is None or not 0 <= parent < index:
            raise ValueError(f"node {index}: parent {parent!r} is not an earlier node")
        if action is None or not 0 <= action < len(actions):
            raise ValueError(f"node {index}: action {action!r} is not an index into actions")
    columns["action"] = [None] + [actions[i] for i in indices[1:]]
    for row in zip(*(columns[name] for name in _NODE_COLUMNS)):
        tree.add_node(*row)
    _require_invariants(tree)
    return tree


def check_tree_invariants(tree: SearchTree) -> list[str]:
    """The invariants ``tree`` breaks, one line each; empty for a sound tree."""
    problems = []
    nodes, max_depth = tree.nodes, tree.config.max_depth
    for node in nodes:
        if not -1.0 - 1e-9 <= node.q_value <= 1.0 + 1e-9:
            problems.append(f"node {node.id}: Q={node.q_value} outside [-1, 1]")
        if node.visit_count < 0:
            problems.append(f"node {node.id}: negative visit count")
        if node.children:
            total = sum(nodes[c].prior for c in node.children)
            if not abs(total - 1.0) <= 1e-6:  # also true for a NaN prior
                problems.append(f"node {node.id}: child priors sum to {total:.6f}")
        if node.depth > max_depth:
            problems.append(f"node {node.id}: beyond depth limit")
    return problems
