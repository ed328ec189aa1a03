"""The bench patches and calls functions by name; a rename breaks it.

``bench/spans.py`` looks up every name it wraps when it installs, so a traced
command that exits 0 shows that all of them still exist. ``bench/run.py``
searches in process through ``cli.run_manifest`` with ``cli.build_policy``
patched, for the reference outcomes of the remote workload.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from tooldrift import cli
from tooldrift.corpus import load_corpus
from tooldrift.policy import ScriptedAdaptivePolicy

ROOT = Path(__file__).resolve().parents[1]

MANIFEST = """\
[run]
setting = consistent

[policy]
kind = scripted_adaptive
"""

SPANS = (
    "adapt.execute_action",
    "adapt.reflection_gate",
    "react.parse_action",
    "env.invoke",
    "mcts.backpropagate",
    "mcts.expand",
    "mcts.run_search",
    "mcts.select_leaf",
    "mcts.simulate_cached",
    "mcts.tree_to_json",
    "policy.propose",
)


def test_traced_search_records_every_layer(tmp_path):
    manifest = tmp_path / "run.ini"
    manifest.write_text(MANIFEST, encoding="utf-8")
    spans = tmp_path / "spans.json"
    command = [
        sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
        "search", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"),
        "--trees", "1", "--sims", "2",
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = {span[2] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert set(SPANS) <= names


def test_run_manifest_searches_with_the_patched_policy():
    """The call ``bench/run.py``'s ``reference_outcomes`` makes, on a 2-sim
    manifest: the patched policy proposes every step, and the trees come
    back sorted by tree id."""
    calls = []

    class CountingPolicy(ScriptedAdaptivePolicy):
        def propose(self, state, k):
            calls.append(state.task.id)
            return super().propose(state, k)

    parser = configparser.ConfigParser()
    parser.read_string(MANIFEST + "\n[search]\nmax_simulations = 2\ntrees_per_task = 1\n")
    overrides = argparse.Namespace(
        setting=None, sims=None, trees=None, no_self_reflection=False, no_tool_update=False, jobs=1
    )
    policy = CountingPolicy(load_corpus())
    with mock.patch.object(cli, "build_policy", lambda config, corpus: policy):
        trees, corpus, _ = cli.run_manifest(parser, overrides)
    tree_ids = [tree.tree_id for tree in trees]
    assert tree_ids == sorted(f"{task.id}__t0" for task in corpus.tasks)
    assert tree_ids != [f"{task.id}__t0" for task in corpus.tasks]
    assert len(calls) == sum(tree.stats["policy_calls"] for tree in trees) > 0
    assert set(calls) == {task.id for task in corpus.tasks}
