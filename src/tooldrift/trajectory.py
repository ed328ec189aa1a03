"""Successful-path extraction and line-delimited SFT export.

Each exported record pairs the root prompt (base manual only) with the
rendered step sequence of one reward-+1 root-to-leaf path; failed paths are
never exported. ``collect_from_trees`` is the one extractor. Tool updates made
along the way live in the target steps, never in the input prompt.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from .mcts import SearchTree, TreeNode
from .react import ActionRecord, parse_action, render_prompt, render_step

SFT_FORMAT_VERSION = 1

_BLOCK_SPLIT_RE = re.compile(r"\n\n(?=Thought: )")


@dataclass(frozen=True)
class SftRecord:
    """One training example: the root prompt in, the rendered steps of one
    root-to-leaf path out, with the episode reward."""

    input: str
    target: str
    task_id: str
    tree_id: str
    leaf_id: int
    registry_generation: str
    reward: int


def render_target(steps: tuple[ActionRecord, ...]) -> str:
    return "\n\n".join(render_step(step) for step in steps)


def parse_target(target: str) -> list[ActionRecord]:
    """Inverse of render_target; reconstructs the step list of a record."""
    return [parse_action(block) for block in _BLOCK_SPLIT_RE.split(target) if block.strip()]


def _record(tree: SearchTree, leaf: TreeNode) -> SftRecord:
    return SftRecord(
        input=render_prompt(tree.state(tree.root_id)),
        target=render_target(tuple(n.action for n in tree.path_to(leaf.id) if n.action is not None)),
        task_id=tree.task.id,
        tree_id=tree.tree_id,
        leaf_id=leaf.id,
        registry_generation=tree.registry_generation,
        reward=leaf.reward or -1,
    )


def collect_from_trees(trees: list[SearchTree], max_per_task: int = 4, seed: int = 0) -> list[SftRecord]:
    """Records of the reward-+1 root-to-leaf paths, at most max_per_task per task.

    The cap applies across all trees of one task, matching the data-budget
    rule of at most max_per_task correct trajectories per question. Paths
    through formerly cached (rollout-built) nodes count. Records come in task
    id order; within a task, a capped set is a seeded sample in (tree id,
    leaf id) order, and sampling comes before rendering, so only the kept
    paths are rendered.
    """
    by_task: dict[str, list[tuple[SearchTree, TreeNode]]] = {}
    for tree in trees:
        by_task.setdefault(tree.task.id, []).extend((tree, leaf) for leaf in tree.successful_leaves())
    out: list[SftRecord] = []
    for task_id in sorted(by_task):
        leaves = by_task[task_id]
        if max_per_task >= 0 and len(leaves) > max_per_task:
            chosen = random.Random(seed).sample(leaves, max_per_task)
            leaves = sorted(chosen, key=lambda pair: (pair[0].tree_id, pair[1].id))
        out.extend(_record(tree, leaf) for tree, leaf in leaves)
    return out


def record_to_json(record: SftRecord) -> dict:
    return {
        "format_version": SFT_FORMAT_VERSION,
        "task_id": record.task_id,
        "tree_id": record.tree_id,
        "leaf_id": record.leaf_id,
        "registry_generation": record.registry_generation,
        "reward": record.reward,
        "input": record.input,
        "target": record.target,
    }


def export_sft(records: list[SftRecord], path: str | Path) -> int:
    """Write one JSON object per line; returns the record count."""
    path = Path(path)
    lines = [json.dumps(record_to_json(r), sort_keys=True, ensure_ascii=False) for r in records]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


def load_sft(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records
