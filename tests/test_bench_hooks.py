"""The bench patches and calls functions by name; a rename breaks it.

``bench/spans.py`` looks up every name it wraps when it installs, so a traced
command that exits 0 shows that all of them still exist. ``bench/run.py``
searches in process through ``cli.run_manifest`` with ``cli.build_policy``
patched, for the reference outcomes of the remote workload, on a manifest read
by a plain ``configparser.ConfigParser`` it builds itself, and it reads the
tree files that ``search`` writes with a reader of its own.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from tooldrift import cli
from tooldrift.corpus import load_corpus
from tooldrift.env import SYSTEM_ACTIONS
from tooldrift.mcts import SearchConfig, run_search, tree_to_json
from tooldrift.mutation import DEFAULT_SYNONYMS, MutationPlan, mutate_registry
from tooldrift.policy import PolicyError, ScriptedAdaptivePolicy

ROOT = Path(__file__).resolve().parents[1]

MANIFEST = """\
[run]
setting = consistent

[policy]
kind = scripted_adaptive
"""

# One tree per task, of ``max_simulations`` simulations.
SEARCH = "\n[search]\nmax_simulations = {}\ntrees_per_task = 1\n"

OVERRIDES = argparse.Namespace(
    setting=None, no_self_reflection=False, no_tool_update=False, jobs=1
)

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


def traced_span_names(tmp_path, *argv) -> set[str]:
    """The names of the spans a traced ``tooldrift`` command records; it must exit 0."""
    spans = tmp_path / "spans.json"
    command = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), *argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {span[2] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_traced_search_records_every_layer(tmp_path, jobs):
    """With any ``--jobs``, as the traced adaptive_drift run passes 2: the
    spans of every search reach the trace, so none may run in a process of
    its own unless its spans come back."""
    manifest = tmp_path / "run.ini"
    manifest.write_text(MANIFEST + SEARCH.format(2), encoding="utf-8")
    argv = ("search", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"), "--jobs", jobs)
    assert set(SPANS) <= traced_span_names(tmp_path, *argv)


def test_traced_mutate_and_mutated_search_record_the_drift_check(tmp_path):
    """Both derive the mutated registry through the one path that calls
    ``cli.verify_mutation``, the name the bench wraps, from the corpus and
    the drift that ``cli.load_corpus`` and ``cli.mutate_registry`` give. The
    wrappers are installed before ``cli`` binds these names, and still run."""
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        MANIFEST.replace("consistent", "mutated_in") + "\n[mutation]\nseed = 7\n" + SEARCH.format(1), encoding="utf-8"
    )
    mutate = traced_span_names(tmp_path, "mutate", "--seed", "7", "--out", str(tmp_path / "m.json"))
    search = traced_span_names(tmp_path, "search", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out"))
    assert {"corpus.load_corpus", "mutation.mutate_registry", "mutation.verify_mutation"} <= mutate & search


def test_traced_export_records_the_load_path(tmp_path):
    """Export loads, collects and writes through the names the bench wraps
    on the load path, so none of them is skipped unnoticed."""
    manifest = tmp_path / "run.ini"
    manifest.write_text(MANIFEST + SEARCH.format(2), encoding="utf-8")
    trees = tmp_path / "out" / "trees"
    assert cli.main(["search", "--manifest", str(manifest), "--output-dir", str(trees.parent)]) == 0
    names = traced_span_names(tmp_path, "export", "--trees", str(trees), "--out", str(tmp_path / "sft.jsonl"))
    assert {"mcts.tree_from_json", "trajectory.collect_from_trees", "trajectory.export_sft"} <= names


def bench_run(monkeypatch):
    """``bench/run.py``, loaded as the bench runs it."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run


def test_the_bench_reads_the_trees_search_writes(tmp_path, monkeypatch):
    """``bench/run.py``'s ``tree_outcomes``, loaded as the bench runs it, on
    the trees of a mutated_in search: every task solved on the drifted
    generation, and no node records a policy transport failure."""
    run = bench_run(monkeypatch)
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        MANIFEST.replace("consistent", "mutated_in") + "\n[mutation]\nseed = 7\n" + SEARCH.format(10), encoding="utf-8"
    )
    assert cli.main(["search", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")]) == 0
    solved, generations, transport_failures = run.tree_outcomes(tmp_path / "out" / "trees")
    assert solved == {task.id: True for task in load_corpus().tasks}
    assert (generations, transport_failures) == ({"mutated-7"}, 0)


def test_the_bench_counts_failed_expansions_not_malformed_candidates(tmp_path, monkeypatch):
    """A tree file stores a failure only for a failed expansion: a root whose
    remote expansion failed is one transport failure, and a candidate that
    did not parse, whose message is its action's observation, is none."""

    class Unreachable:
        def propose(self, state, k):
            raise PolicyError("remote policy failed: connection refused")

    class Malformed:
        def propose(self, state, k):
            return ["no labels here"] * k

    run, corpus = bench_run(monkeypatch), load_corpus()
    for policy, expected in ((Unreachable(), 1), (Malformed(), 0)):
        trees = tmp_path / type(policy).__name__
        trees.mkdir()
        tree = run_search(corpus.task("coffee-easy-1"), corpus.base_registry, policy, SearchConfig(), corpus.manual)
        (trees / "t.json").write_text(tree_to_json(tree), encoding="utf-8")
        assert run.tree_outcomes(trees) == ({"coffee-easy-1": False}, {"base"}, expected)


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
    parser.read_string(MANIFEST + SEARCH.format(2))
    policy = CountingPolicy(load_corpus())
    with mock.patch.object(cli, "build_policy", lambda config, corpus: policy):
        trees, corpus, _ = cli.run_manifest(parser, OVERRIDES)
    tree_ids = [tree.tree_id for tree in trees]
    assert tree_ids == sorted(f"{task.id}__t0" for task in corpus.tasks)
    assert tree_ids != [f"{task.id}__t0" for task in corpus.tasks]
    assert len(calls) == sum(tree.stats["policy_calls"] for tree in trees) > 0
    assert set(calls) == {task.id for task in corpus.tasks}


def test_run_manifest_reads_every_mutation_key_from_a_plain_parser():
    """A mutated_in manifest whose [mutation] section holds what the bench's
    does (seed, kinds, special_char) and a synonyms table: the search runs on
    the registry of exactly that plan."""
    synonyms = {word: options[:1] for word, options in DEFAULT_SYNONYMS.items()}
    parser = configparser.ConfigParser()
    parser.read_string(
        MANIFEST.replace("consistent", "mutated_in")
        + "\n[mutation]\nseed = 11\nkinds = name_text, param_text, param_format\nspecial_char = _\n"
        + f"synonyms = {json.dumps(synonyms)}\n" + SEARCH.format(2)
    )
    corpus = load_corpus()
    with mock.patch.object(cli, "build_policy", lambda config, corpus: ScriptedAdaptivePolicy(corpus)):
        trees, _, setting = cli.run_manifest(parser, OVERRIDES)
    plan = MutationPlan(
        seed=11, kinds=frozenset({"name_text", "param_text", "param_format"}), special_char="_", synonyms=synonyms
    )
    successors = set(mutate_registry(corpus.base_registry, plan).apis) - set(corpus.base_registry.apis)
    used = {node.action.action_name for tree in trees for node in tree.nodes[1:]}
    assert setting == "mutated_in" and {tree.registry_generation for tree in trees} == {"mutated-11"}
    assert used - set(corpus.base_registry.apis) - set(SYSTEM_ACTIONS) == successors
