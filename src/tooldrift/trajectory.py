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
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

from .mcts import SearchTree
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
    """Inverse of render_target; reconstructs the step list of a record. A
    thought may hold ``\\n\\nThought: `` but never ``\\nAction:``, so a block
    without one begins the next block's thought."""
    steps, pending = [], ""
    for block in _BLOCK_SPLIT_RE.split(target):
        pending += block + "\n\n"
        if "\nAction:" in block:
            steps.append(parse_action(pending))
            pending = ""
    if pending.strip():
        steps.append(parse_action(pending))
    return steps


def collect_from_trees(trees: Iterable[SearchTree], max_per_task: int = 4, seed: int = 0) -> list[SftRecord]:
    """Records of the reward-+1 root-to-leaf paths, at most max_per_task per task.

    The cap applies across all trees of one task, matching the data-budget
    rule of at most max_per_task correct trajectories per question. Paths
    through formerly cached (rollout-built) nodes count. Records come in task
    id order; within a task, a capped set is a seeded sample in (tree id,
    leaf id) order, and sampling comes before rendering, so only the kept
    paths are rendered. Of each tree only the root state and the actions of
    its reward-+1 paths are kept, and the tree is released before the next is
    drawn, so ``trees`` may stream loaded files.
    """
    by_task: dict[str, list[tuple]] = {}
    for tree in trees:
        root = tree.state(tree.root_id)
        by_task.setdefault(tree.task.id, []).extend(
            (tree.tree_id, leaf, root, tree.registry_generation, tree.reward[leaf], tree.actions(leaf))
            for leaf in tree.successful_leaves()
        )
        del tree  # so the tree is released before the next one is drawn
    out: list[SftRecord] = []
    for task_id in sorted(by_task):
        paths = by_task[task_id]
        if len(paths) > max_per_task:
            paths = sorted(random.Random(seed).sample(paths, max_per_task), key=lambda path: path[:2])
        out.extend(
            SftRecord(render_prompt(root), render_target(actions), task_id, tree_id, leaf_id, generation, reward)
            for tree_id, leaf_id, root, generation, reward, actions in paths
        )
    return out


def export_sft(records: list[SftRecord], path: str | Path) -> int:
    """Write one JSON object per line; returns the record count."""
    path = Path(path)
    docs = ({"format_version": SFT_FORMAT_VERSION, **asdict(r)} for r in records)
    lines = [json.dumps(doc, sort_keys=True, ensure_ascii=False) for doc in docs]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


def load_sft(path: str | Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records
