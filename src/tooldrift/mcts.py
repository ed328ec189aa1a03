"""Customized tree search: PUCT selection, policy expansion, cached rollouts.

A node stores only its executed action and statistics. Its state is derived:
``SearchTree.state`` replays the actions on the path from the root through
``adapt.advance``, so search and loaded trees share one step rule.

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
from dataclasses import dataclass, field, fields
from typing import Any

from .adapt import advance, execute_action, reflection_gate
from .env import TASK_TYPES, TaskInstance, ToolRegistry, typed_object
from .policy import PolicyError
from .react import ActionParseError, ActionRecord, StateRecord, parse_action

FAILED_ACTION_NAME = "MalformedAction"


@dataclass
class SearchConfig:
    """Search knobs; the defaults match the reference setup."""

    c_puct: float = 1.25
    max_depth: int = 15
    k: int = 5
    max_simulations: int = 30
    trees_per_task: int = 20
    rng_seed: int = 0
    cache_rollouts: bool = True
    no_self_reflection: bool = False
    no_tool_update: bool = False

    def validate(self) -> None:
        if not (math.isfinite(self.c_puct) and self.c_puct > 0):
            raise ValueError("c_puct must be a finite positive number")
        for name in ("max_depth", "k", "max_simulations", "trees_per_task"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


@dataclass
class TreeNode:
    """One search node; holds a single executed action and its statistics."""

    id: int
    parent: int | None
    action: ActionRecord | None = None
    q_value: float = 0.0
    visit_count: int = 0
    prior: float = 1.0
    children: list[int] = field(default_factory=list)
    cached: bool = False
    depth: int = 0
    terminal: bool = False
    reward: int | None = None
    failure: str | None = None


@dataclass
class SearchTree:
    task: TaskInstance
    config: SearchConfig
    registry_generation: str = "base"
    tree_id: str = "tree"
    manual: tuple[str, ...] = ()
    demos: tuple[str, ...] = ()
    nodes: list[TreeNode] = field(default_factory=list)
    stats: dict[str, int] = field(
        default_factory=lambda: {"simulations": 0, "backprops": 0, "policy_calls": 0}
    )

    @property
    def root_id(self) -> int:
        return 0

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def add_node(self, parent: int | None, **kwargs) -> TreeNode:
        depth = 0 if parent is None else self.node(parent).depth + 1
        node = TreeNode(id=len(self.nodes), parent=parent, depth=depth, **kwargs)
        self.nodes.append(node)
        if parent is not None:
            self.node(parent).children.append(node.id)
        return node

    def successful_leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.terminal and n.reward == 1]

    def path_to(self, node_id: int) -> list[TreeNode]:
        path = []
        cur: int | None = node_id
        while cur is not None:
            node = self.node(cur)
            path.append(node)
            cur = node.parent
        return list(reversed(path))

    def state(self, node_id: int) -> StateRecord:
        """The node's state: the root state advanced by the actions on its path."""
        actions = []
        node = self.nodes[node_id]
        while node.parent is not None:
            actions.append(node.action)
            node = self.nodes[node.parent]
        root = StateRecord(task=self.task, tool_manual=self.manual, demos=self.demos)
        return advance(root, reversed(actions), self.config.no_tool_update)


def puct_score(parent_visits: int, child: TreeNode, c_puct: float) -> float:
    """Q(s,a) + c_puct * P(s,a) * sqrt(N(s)) / (1 + N(s,a))."""
    return child.q_value + c_puct * child.prior * math.sqrt(parent_visits) / (1 + child.visit_count)


def best_child(tree: SearchTree, parent_id: int, c_puct: float, allowed=None) -> int | None:
    """Argmax of the PUCT score over visible, non-terminal children.

    Ties break toward the smallest child index. ``allowed`` optionally
    restricts the candidates (used by selection to skip dead subtrees).
    """
    parent = tree.node(parent_id)
    best_id: int | None = None
    best_score = -math.inf
    for child_id in parent.children:
        child = tree.node(child_id)
        if child.cached or child.terminal:
            continue
        if allowed is not None and child_id not in allowed:
            continue
        score = puct_score(parent.visit_count, child, c_puct)
        if score > best_score:
            best_id, best_score = child_id, score
    return best_id


def _visible_children(tree: SearchTree, node: TreeNode) -> list[int]:
    return [c for c in node.children if not tree.node(c).cached]


def select_leaf(tree: SearchTree) -> int | None:
    """Walk from the root by PUCT to the best open leaf; None when exhausted.

    An open leaf is a visible, non-terminal node above ``max_depth`` with no
    visible child.
    """
    reachable: dict[int, bool] = {}

    def leads_to_open(node_id: int) -> bool:
        known = reachable.get(node_id)
        if known is None:
            node = tree.node(node_id)
            if node.cached or node.terminal:
                known = False
            else:
                visible = _visible_children(tree, node)
                known = any(map(leads_to_open, visible)) if visible else node.depth < tree.config.max_depth
            reachable[node_id] = known
        return known

    if not leads_to_open(tree.root_id):
        return None
    cur = tree.root_id
    while allowed := {c for c in _visible_children(tree, tree.node(cur)) if leads_to_open(c)}:
        cur = best_child(tree, cur, tree.config.c_puct, allowed=allowed)
    return cur


def _make_child(tree: SearchTree, state: StateRecord, text: str, registry: ToolRegistry) -> dict[str, Any]:
    """The action and outcome of the child that candidate ``text`` makes from ``state``."""
    try:
        record = parse_action(text)
    except ActionParseError as exc:
        step = ActionRecord(
            thought=text, action_name=FAILED_ACTION_NAME, action_input={}, observation=str(exc)
        )
        return dict(action=step, terminal=True, reward=-1, failure=str(exc))
    outcome = execute_action(state, record, registry, tree.config.no_tool_update)
    return dict(action=outcome.step, terminal=outcome.terminal, reward=outcome.reward)


def _generate_children(tree: SearchTree, node: TreeNode, policy, registry: ToolRegistry) -> None:
    """Add one hidden child per policy candidate, each with prior 1/len(texts).
    Each distinct text is parsed and executed once; a duplicate sibling gets
    its own node sharing the first one's action and outcome, which is safe
    because ``execute_action`` is pure and the action record is frozen."""
    state = tree.state(node.id)
    texts = policy.propose(state, tree.config.k)
    tree.stats["policy_calls"] += 1
    prior = 1.0 / len(texts)
    made: dict[str, dict[str, Any]] = {}
    for text in texts:
        if text not in made:
            made[text] = _make_child(tree, state, text, registry)
        tree.add_node(node.id, prior=prior, cached=True, **made[text])


def _children(tree: SearchTree, node: TreeNode, policy, registry: ToolRegistry) -> list[int]:
    """The node's children, generated hidden on first use; [] once the node is
    a failed terminal, because the reflection gate stops it or the policy fails.

    An error state passes the gate, so it expands with the error in context;
    under the self-reflection ablation an invocation-error node stops.
    """
    kind = node.action.kind if node.action is not None else None
    if reflection_gate(kind, tree.config.no_self_reflection):
        node.terminal, node.reward = True, -1
        return []
    if not node.children:
        try:
            _generate_children(tree, node, policy, registry)
        except PolicyError as exc:
            node.terminal, node.reward, node.failure = True, -1, str(exc)
            return []
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
    if not tree.config.cache_rollouts:
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
    """Cache-free rollout: walk states without adding nodes to the tree."""
    if start.terminal:
        return start.reward or -1
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
        text = rng.choice(texts)
        try:
            record = parse_action(text)
        except ActionParseError:
            return -1
        outcome = execute_action(state, record, registry, tree.config.no_tool_update)
        if outcome.terminal:
            return outcome.reward or -1
        state, kind, depth = outcome.state, outcome.step.kind, depth + 1
    return -1


def backpropagate(tree: SearchTree, node_id: int, reward: int) -> None:
    """Apply the incremental-mean update from the node up to the root."""
    cur: int | None = node_id
    while cur is not None:
        node = tree.node(cur)
        node.q_value += (reward - node.q_value) / (node.visit_count + 1)
        node.visit_count += 1
        cur = node.parent
    tree.stats["backprops"] += 1


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
    config.validate()
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
        tree.stats["simulations"] += 1
    return tree


# ---------------------------------------------------------------------------
# Serialization, tree JSON format_version 3, compact with sorted keys.
# ``actions`` holds each distinct action (with its observation's ``kind``) once,
# in order of first use. ``nodes`` is a list whose index is the node id; its
# ``action`` is null for node 0 and an index into ``actions`` otherwise, and
# ``parent`` (null for node 0, an earlier index otherwise) is the only
# structural field. Children (in id order) and depth are rebuilt at load; states
# are neither written nor rebuilt, since ``SearchTree.state`` derives them from
# ``manual``, ``demos`` and the path's actions.
# ---------------------------------------------------------------------------

TREE_FORMAT_VERSION = 3

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
    "nodes": (list,),
}
_ACTION_TYPES = {
    "thought": (str,),
    "action_name": (str,),
    "action_input": (dict,),
    "observation": (str, type(None)),
    "kind": (str, type(None)),
}
_NODE_TYPES = {
    "parent": (int, type(None)),
    "action": (int, type(None)),
    "q_value": (int, float),
    "visit_count": (int,),
    "prior": (int, float),
    "cached": (bool,),
    "terminal": (bool,),
    "reward": (int, type(None)),
    "failure": (str, type(None)),
}
# JSON types accepted for a SearchConfig field, keyed by its default's type.
_CONFIG_TYPES = {float: (int, float), int: (int,), bool: (bool,)}


def _action_to_json(action: ActionRecord) -> dict:
    return {
        "thought": action.thought,
        "action_name": action.action_name,
        "action_input": action.action_input,
        "observation": action.observation,
        "kind": action.kind,
    }


def _require_invariants(tree: SearchTree) -> None:
    problems = check_tree_invariants(tree)
    if problems:
        raise ValueError(f"{len(problems)} invariant violation(s): {'; '.join(problems)}")


def _reject_constant(token: str):
    raise ValueError(f"tree: non-finite number {token}")


def tree_to_json(tree: SearchTree) -> str:
    """The tree's format_version 3 text; a tree that breaks an invariant of
    ``check_tree_invariants`` raises ValueError instead."""
    _require_invariants(tree)
    # Canonical action JSON -> (index, entry); index_of skips shared ActionRecords.
    table: dict[str, tuple[int, dict]] = {}
    index_of: dict[int, int] = {}

    def action_index(action: ActionRecord | None) -> int | None:
        if action is None:
            return None
        if id(action) not in index_of:
            entry = _action_to_json(action)
            key = json.dumps(entry, sort_keys=True, ensure_ascii=False)
            index_of[id(action)] = table.setdefault(key, (len(table), entry))[0]
        return index_of[id(action)]

    nodes = [
        {
            "parent": n.parent,
            "action": action_index(n.action),
            "q_value": n.q_value,
            "visit_count": n.visit_count,
            "prior": n.prior,
            "cached": n.cached,
            "terminal": n.terminal,
            "reward": n.reward,
            "failure": n.failure,
        }
        for n in tree.nodes
    ]
    doc: dict[str, Any] = {
        "format_version": TREE_FORMAT_VERSION,
        "tree_id": tree.tree_id,
        "registry_generation": tree.registry_generation,
        "task": {name: getattr(tree.task, name) for name in TASK_TYPES},
        "config": {f.name: getattr(tree.config, f.name) for f in fields(SearchConfig)},
        "manual": list(tree.manual),
        "demos": list(tree.demos),
        "stats": tree.stats,
        "actions": [entry for _, entry in table.values()],
        "nodes": nodes,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, ensure_ascii=False) + "\n"


def tree_from_json(text: str) -> SearchTree:
    """Load a format_version 3 tree; any malformed document (a NaN or Infinity
    token, or an action index that is not an int into ``actions``, included),
    or one that breaks an invariant of ``check_tree_invariants``, raises
    ValueError. Nodes that name one table entry share its ActionRecord."""
    doc = typed_object(json.loads(text, parse_constant=_reject_constant), _DOC_TYPES, "tree")
    if doc["format_version"] != TREE_FORMAT_VERSION:
        raise ValueError(f"unsupported tree format_version {doc['format_version']}")
    task = TaskInstance(**typed_object(doc["task"], TASK_TYPES, "task"))
    config = SearchConfig(**typed_object(
        doc["config"], {f.name: _CONFIG_TYPES[type(f.default)] for f in fields(SearchConfig)}, "config"
    ))
    config.validate()
    if not all(isinstance(entry, str) for entry in doc["manual"] + doc["demos"]):
        raise ValueError("tree: manual and demos must be lists of strings")
    tree = SearchTree(
        task=task,
        config=config,
        registry_generation=doc["registry_generation"],
        tree_id=doc["tree_id"],
        manual=tuple(doc["manual"]),
        demos=tuple(doc["demos"]),
        stats=doc["stats"],
    )
    actions = [
        ActionRecord(**typed_object(entry, _ACTION_TYPES, f"action {index}"))
        for index, entry in enumerate(doc["actions"])
    ]
    nodes = tree.nodes
    for index, node_doc in enumerate(doc["nodes"]):
        where = f"node {index}"
        parent = typed_object(node_doc, _NODE_TYPES, where)["parent"]
        if (parent is None) != (index == 0) or (parent is not None and not 0 <= parent < index):
            raise ValueError(f"{where}: parent {parent!r} is not an earlier node")
        if (node_doc["action"] is None) != (index == 0):
            raise ValueError(f"{where}: only the root has no action")
        depth = 0
        if parent is not None:
            if not 0 <= node_doc["action"] < len(actions):
                raise ValueError(f"{where}: action {node_doc['action']} is not an index into actions")
            # node_doc becomes the TreeNode's keyword arguments
            node_doc["action"] = actions[node_doc["action"]]
            depth = nodes[parent].depth + 1
            nodes[parent].children.append(index)
        nodes.append(TreeNode(id=index, depth=depth, **node_doc))
    if not tree.nodes:
        raise ValueError("tree has no nodes")
    _require_invariants(tree)
    return tree


def check_tree_invariants(tree: SearchTree) -> list[str]:
    """The invariants ``tree`` breaks, one line each; empty for a sound tree."""
    problems = []
    for node in tree.nodes:
        if not -1.0 - 1e-9 <= node.q_value <= 1.0 + 1e-9:
            problems.append(f"node {node.id}: Q={node.q_value} outside [-1, 1]")
        if node.terminal != (node.reward is not None):
            problems.append(f"node {node.id}: terminal/reward mismatch")
        if node.visit_count < 0:
            problems.append(f"node {node.id}: negative visit count")
        if node.children:
            total = sum(tree.node(c).prior for c in node.children)
            if not abs(total - 1.0) <= 1e-6:  # also true for a NaN prior
                problems.append(f"node {node.id}: child priors sum to {total:.6f}")
        if not node.cached and node.depth > tree.config.max_depth:
            problems.append(f"node {node.id}: beyond depth limit")
    return problems
