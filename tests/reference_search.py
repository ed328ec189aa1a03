"""The paper's search loop written plainly, as a reference for ``mcts.run_search``.

One object per node and no memos: the policy is asked at every expansion,
every candidate is parsed and executed anew, and every state is replayed from
the root. Selection is the AlphaZero PUCT rule (arXiv 1712.01815) with ties to
the smaller index, and the rng is drawn in ``run_search``'s order, so both
grow the same tree from the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from tooldrift.adapt import advance, execute_action, reflection_gate
from tooldrift.env import ANSWER_CORRECT_TEXT
from tooldrift.mcts import FAILED_ACTION_NAME, SearchConfig
from tooldrift.policy import PolicyError
from tooldrift.react import ActionParseError, ActionRecord, StateRecord, parse_action


@dataclass(eq=False)
class RefNode:
    id: int
    parent: RefNode | None
    action: ActionRecord | None
    depth: int
    prior: float = 1.0
    cached: bool = True
    reward: int | None = None
    failure: str | None = None
    q_value: float = 0.0
    visit_count: int = 0
    children: list[RefNode] = field(default_factory=list)


class ReferenceSearch:
    def __init__(self, task, registry, policy, config: SearchConfig, manual, demos=()):
        self.registry, self.policy, self.config = registry, policy, config
        self.root_state = StateRecord(task=task, tool_manual=tuple(manual), demos=tuple(demos))
        self.rng = random.Random(config.rng_seed)
        self.nodes = [RefNode(0, None, None, 0, cached=False)]
        self.simulations: list[list[int]] = []

    def path(self, node: RefNode) -> list[ActionRecord]:
        actions = []
        while node.parent is not None:
            actions.append(node.action)
            node = node.parent
        return actions[::-1]

    def state(self, actions) -> StateRecord:
        return advance(self.root_state, actions, self.config.no_tool_update)

    def step(self, state: StateRecord, text: str) -> tuple[ActionRecord, int | None]:
        """The (action, reward) of following candidate ``text``: a Finish is
        scored by its answer text, and an unparsed candidate, or a step the
        reflection gate stops, ends the child when it is made."""
        try:
            record = parse_action(text)
        except ActionParseError as exc:
            failed = ActionRecord(thought=text, action_name=FAILED_ACTION_NAME, action_input={}, observation=str(exc))
            return failed, -1
        step = execute_action(state, record, self.registry).step
        if step.kind == "task_done":
            return step, 1 if step.observation == ANSWER_CORRECT_TEXT else -1
        return step, -1 if reflection_gate(step.kind, self.config.no_self_reflection) else None

    def children(self, node: RefNode) -> list[RefNode]:
        """The node's children, made from a fresh policy call on first use;
        [] once a policy failure ends the node."""
        if node.children:
            return node.children
        state = self.state(self.path(node))
        try:
            texts = self.policy.propose(state, self.config.k)
        except PolicyError as exc:
            node.reward, node.failure = -1, str(exc)
            return []
        for text in texts:
            action, reward = self.step(state, text)
            child = RefNode(len(self.nodes), node, action, node.depth + 1, 1.0 / len(texts), True, reward)
            node.children.append(child)
            self.nodes.append(child)
        return node.children

    def leads_to_open(self, node: RefNode) -> bool:
        """Whether an open leaf (visible, non-terminal, above the depth limit,
        with no visible child) is the node or below it through visible nodes."""
        if node.reward is not None:
            return False
        visible = [child for child in node.children if not child.cached]
        if not visible:
            return node.depth < self.config.max_depth
        return any(self.leads_to_open(child) for child in visible)

    def select(self) -> RefNode | None:
        node = self.nodes[0]
        if not self.leads_to_open(node):
            return None
        while True:
            best, best_score = None, -math.inf
            for child in node.children:
                if child.cached or not self.leads_to_open(child):
                    continue
                score = child.q_value + self.config.c_puct * child.prior * math.sqrt(node.visit_count) / (
                    1 + child.visit_count
                )
                if score > best_score:
                    best, best_score = child, score
            if best is None:
                return node
            node = best

    def rollout(self, node: RefNode) -> int:
        while node.reward is None and node.depth < self.config.max_depth:
            children = self.children(node)
            if children:
                node = self.rng.choice(children)
        return -1 if node.reward is None else node.reward

    def backpropagate(self, node: RefNode | None, reward: int) -> None:
        while node is not None:
            node.q_value += (reward - node.q_value) / (node.visit_count + 1)
            node.visit_count += 1
            node = node.parent

    def run(self) -> dict[str, list]:
        """Search, then return the node columns and the simulation log."""
        for _ in range(self.config.max_simulations):
            leaf = self.select()
            if leaf is None:
                break
            children = self.children(leaf)
            for child in children:
                child.cached = False
            if children:
                chosen = self.rng.choice(children)
                reward = self.rollout(chosen)
            else:
                chosen, reward = leaf, -1
            self.simulations.append([leaf.id, chosen.id, reward])
            self.backpropagate(chosen, reward)
        columns = {
            name: [getattr(node, name) for node in self.nodes]
            for name in ("action", "q_value", "visit_count", "prior", "cached", "reward", "failure")
        }
        columns["parent"] = [node.parent.id if node.parent else None for node in self.nodes]
        columns["simulations"] = self.simulations
        return columns
