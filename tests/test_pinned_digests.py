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
    "adaptive_drift": ("2d7f5b6780268403", "d0745632522a5c03"),
    "rigid_ood": ("d134943b2807d310", "e3b0c44298fc1c14"),
    "remote_loopback": ("21af5e2856dbaf83", "be83b9c0783f51ed"),
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


def _search(bench, name) -> list:
    """The workload's seed-7 trees, searched in process, in tree-id order."""
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
        return cli.run_manifest(parser, OVERRIDES)[0]


def _sft(trees, path: Path) -> bytes:
    export_sft(collect_from_trees(trees, max_per_task=4, seed=SEED), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed_7_digests(bench, tmp_path, name):
    texts = [cli.tree_to_json(tree) for tree in _search(bench, name)]
    # Exported from the trees as read back, as ``export`` reads the tree files.
    sft = _sft(map(tree_from_json, texts), tmp_path / "sft.jsonl")
    assert (_digest("".join(texts).encode("utf-8")), _digest(sft)) == PINS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_sft_from_the_searched_trees_is_sft_from_their_files(bench, tmp_path, name):
    """A tree file keeps what search holds, each Action Input's key order
    included, so exporting the trees in process or from their texts writes
    the same records."""
    trees = _search(bench, name)
    read_back = _sft((tree_from_json(cli.tree_to_json(tree)) for tree in trees), tmp_path / "read_back.jsonl")
    assert _sft(trees, tmp_path / "searched.jsonl") == read_back
