"""The bench's seed-7 outputs, pinned: its three workloads searched in process.

Each workload's manifest is ``bench/run.py``'s, with seed 7 and one tree per
task. The tree digest is the first 16 hex of sha256 over the tree texts in
tree-id order (the bytes of the tree files concatenated in name order); the
SFT digest is that of the file ``export --seed 7 --max-per-task 4`` writes
from those texts. remote_loopback calls ``bench/stub_server.py``'s ``Oracle``
directly, as the bench's ``reference_outcomes`` does, instead of over HTTP. A
change to these values is a change to search behaviour or to a file format,
and says so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from tooldrift import cli
from tooldrift.corpus import load_corpus
from tooldrift.mcts import tree_from_json
from tooldrift.react import render_prompt
from tooldrift.trajectory import collect_from_trees, export_sft

ROOT = Path(__file__).resolve().parents[1]
SEED = 7

# workload -> (trees, SFT)
PINS = {
    "adaptive_drift": ("a71ae760ba38256c", "b760379ef1d6575d"),
    "rigid_ood": ("3c002cee6638277a", "e3b0c44298fc1c14"),
    "remote_loopback": ("95ae65c41cab5628", "0981844ef575629e"),
}

OVERRIDES = argparse.Namespace(setting=None, no_self_reflection=False, no_tool_update=False, jobs=1)


@pytest.fixture
def bench(monkeypatch):
    """``bench/run.py`` and ``bench/stub_server.py``, loaded as the bench runs them."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run, importlib.import_module("stub_server")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed_7_digests(bench, tmp_path, name):
    run, stub_server = bench
    workload = run.WORKLOADS[name]
    endpoint = "endpoint = http://127.0.0.1:1/\n" if workload.policy == "remote" else ""
    parser = configparser.ConfigParser()
    parser.read_string(run.MANIFEST.format(
        setting=workload.setting, seed=SEED, policy=workload.policy, endpoint=endpoint, trees=1
    ))
    build_policy = cli.build_policy
    if workload.policy == "remote":
        oracle = stub_server.Oracle(load_corpus())

        class DirectPolicy:
            def propose(self, state, k):
                return oracle.choices(render_prompt(state), k)

        def build_policy(config, corpus):
            return DirectPolicy()

    with mock.patch.object(cli, "build_policy", build_policy):
        trees, _, _ = cli.run_manifest(parser, OVERRIDES)
    texts = [cli.tree_to_json(tree) for tree in trees]
    sft = tmp_path / "sft.jsonl"
    # Exported from the trees as read back, as ``export`` reads the tree files.
    export_sft(collect_from_trees(map(tree_from_json, texts), max_per_task=4, seed=SEED), sft)
    digests = (_digest("".join(texts).encode("utf-8")), _digest(sft.read_bytes()))
    assert digests == PINS[name]
