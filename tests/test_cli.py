from __future__ import annotations

import argparse
import configparser
import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from contextlib import closing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift import cli
from tooldrift.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from tooldrift.corpus import load_corpus, tasks_to_json
from tooldrift.env import SPECIAL_CHARS, registry_to_json
from tooldrift.mcts import SearchConfig, run_search, tree_from_json, tree_to_json
from tooldrift.mutation import DEFAULT_SYNONYMS, MUTATION_KINDS, MutationPlan, mutate_registry
from tooldrift.policy import PolicyConfig, PolicyError, ScriptedAdaptivePolicy, build_policy

ROOT = Path(__file__).resolve().parents[1]

MANIFEST = """
[run]
corpus = builtin
registry = builtin
setting = {setting}
output_dir = {outdir}

[mutation]
seed = 11
kinds = name_text, param_text, param_format
special_char = _

[policy]
kind = {policy}

[search]
c_puct = 1.25
max_depth = 15
k = 5
max_simulations = {sims}
trees_per_task = {trees}
rng_seed = 7
"""


def manifest_text(tmp_path, setting="consistent", policy="scripted_adaptive", sims=30, trees=1):
    return MANIFEST.format(setting=setting, outdir=tmp_path / "out", policy=policy, sims=sims, trees=trees)


def write_manifest(tmp_path, **kwargs):
    path = tmp_path / "run.ini"
    path.write_text(manifest_text(tmp_path, **kwargs))
    return str(path)


def remote_policy(endpoint: str) -> str:
    """The ``policy`` of ``manifest_text`` for a remote policy at ``endpoint``,
    the one kind whose searches share the ``--jobs`` threads."""
    return f"remote\nendpoint = {endpoint}"


def scripted_in_place_of_remote(monkeypatch, kind):
    """Make ``cli.build_policy`` build the scripted ``kind`` for a remote
    manifest, so its searches take the thread pool with scripted candidates."""
    monkeypatch.setattr(
        cli, "build_policy", lambda config, corpus: build_policy(replace(config, kind=kind, endpoint=None), corpus)
    )


# A JSON document nested deeper than the interpreter's recursion limit.
TOO_DEEP = "[" * 100_000

MALFORMED_REGISTRIES = {
    "apis_not_a_list": '{"apis": {"a": 1}}',
    "params_not_a_list": '{"apis": [{"name": "LoadDB", "params": 5}]}',
    "not_an_object": "[]",
    "nested_too_deep": TOO_DEEP,
}


def write_drift_base(tmp_path) -> str:
    """A base registry file whose FilterDB takes its condition as a map with
    two conditions in one entry. A param_format drift to the text form splits
    them, so the drifted FilterDB answers the probe with other rows."""
    doc = json.loads(registry_to_json(load_corpus().base_registry))
    filter_db = next(spec for spec in doc["apis"] if spec["name"] == "FilterDB")
    condition = "Person=Sarah Chen, Date=2022-01-18"
    filter_db["params"][0]["example"] = "agenda"
    filter_db["params"][1].update(
        kind="map", example=json.dumps({"condition1": condition}), alt_kind="text", alt_example=condition
    )
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_retiring_base(tmp_path) -> str:
    """The seed-7 drift as a base file: it loads, but retires every builtin API."""
    path = tmp_path / "base.json"
    path.write_text(registry_to_json(mutate_registry(load_corpus().base_registry, MutationPlan(seed=7))))
    return str(path)


def write_renamed_param_base(tmp_path) -> str:
    """A base file whose LoadDB, which it keeps, calls its param DBLabel."""
    doc = json.loads(registry_to_json(load_corpus().base_registry))
    next(spec for spec in doc["apis"] if spec["name"] == "LoadDB")["params"][0]["name"] = "DBLabel"
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    return str(path)


# The words of the seed-7 drift's names that the default table lacks.
_SEED_7_WORDS = ("Clause", "Data", "Database", "Datastore", "Fetch", "Field", "Formula", "Header",
                 "Identifier", "Initialize", "Label", "Reckon", "Screen", "Select", "Table", "Title")

# (synonyms over the default table, base file writer or None for builtin, exit code, error line)
DRIFT_CASES = {
    "name_no_action_line_can_spell": (
        {"Load": ["Open Now"]}, None, EXIT_CONFIG, "error: mutation failed: mutated 'LoadDB': API Open Now"
    ),
    "behavior_drift": ({}, write_drift_base, EXIT_INVARIANT, "error: drift check failed: behavior drift: FilterDB -> "),
    "base_that_retires_apis": (
        {word: [f"{word}s"] for word in _SEED_7_WORDS}, write_retiring_base, EXIT_CONFIG,
        "error: mutation failed: the base of a drift retires nothing, not ['Calculate', 'FilterDB'",
    ),
    "base_that_renames_a_kept_param": (
        {}, write_renamed_param_base, EXIT_CONFIG,
        "error: cannot parse registry {base}: API LoadDB is neither a successor nor a base API",
    ),
}


class TestMutateCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mutate", "--out", str(out1), "--seed", "11"]) == EXIT_OK
        assert main(["mutate", "--out", str(out2), "--seed", "11"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert capsys.readouterr().out.count("wrote ") == 2

    def test_two_seeds_two_registries(self, tmp_path):
        out1, out2 = tmp_path / "in.json", tmp_path / "ood.json"
        assert main(["mutate", "--out", str(out1), "--seed", "11"]) == EXIT_OK
        assert main(["mutate", "--out", str(out2), "--seed", "42"]) == EXIT_OK
        assert out1.read_bytes() != out2.read_bytes()

    def test_broken_base_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["mutate", "--base", str(bad), "--out", str(tmp_path / "x.json"), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_base_file_is_io_error(self, tmp_path):
        code = main(["mutate", "--base", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "text",
        ["[mutation]\nsed = 5\n", "[other]\nseed = 5\n", "[mutation]\nseed = 5\nkinds =\n"],
        ids=["misspelled_key", "other_section_only", "empty_kinds"],
    )
    def test_bad_plan_is_config_error(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.ini"
        plan.write_text(text)
        assert main(["mutate", "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("doc", sorted(MALFORMED_REGISTRIES))
    def test_malformed_registry_is_config_error(self, tmp_path, capsys, doc):
        registry = tmp_path / "registry.json"
        registry.write_text(MALFORMED_REGISTRIES[doc])
        code = main(["mutate", "--base", str(registry), "--out", str(tmp_path / "m.json"), "--seed", "1"])
        assert code == EXIT_CONFIG
        manifest = tmp_path / "run.ini"
        manifest.write_text(f"[run]\nregistry = {registry}\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: cannot parse registry") for line in err)
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()

    def test_seed_flag_writes_the_default_plan(self, tmp_path, base_registry):
        plan = tmp_path / "plan.ini"
        plan.write_text("[mutation]\nseed = 3\n")
        by_seed, by_plan = tmp_path / "seed.json", tmp_path / "plan.json"
        assert main(["mutate", "--out", str(by_seed), "--seed", "5"]) == EXIT_OK
        assert main(["mutate", "--plan", str(plan), "--seed", "5", "--out", str(by_plan)]) == EXIT_OK
        expected = registry_to_json(mutate_registry(base_registry, MutationPlan(seed=5)))
        assert by_seed.read_text() == by_plan.read_text() == expected

    def test_plan_that_empties_a_param_name_is_config_error(self, tmp_path, capsys):
        """Synonyms that turn ``Expression`` into "" fail the mutation, in
        ``mutate --plan`` and in a mutated_in search, and nothing is written."""
        synonyms = {**DEFAULT_SYNONYMS, "Name": [""], "Expression": [""]}
        section = f"[mutation]\nsynonyms = {json.dumps(synonyms)}\n"
        plan = tmp_path / "plan.ini"
        plan.write_text(section)
        assert main(["mutate", "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[run]\nsetting = mutated_in\noutput_dir = {tmp_path / 'out'}\n\n"
            f"[search]\nmax_simulations = 1\n\n{section}"
        )
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error: mutation failed") and "Calculate" in line for line in err)
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()

    def test_plan_file(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text("[mutation]\nseed = 5\nkinds = name_special_char\nspecial_char = _\n")
        out = tmp_path / "m.json"
        assert main(["mutate", "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["generation"] == "mutated-5"

    @pytest.mark.parametrize("case", sorted(DRIFT_CASES))
    def test_drift_that_fails_a_rule_exits_alike_and_writes_nothing(self, tmp_path, capsys, case):
        """``mutate`` and a mutated_in search on the same base and plan."""
        synonyms, write_base, code, message = DRIFT_CASES[case]
        section = f"[mutation]\nsynonyms = {json.dumps({**DEFAULT_SYNONYMS, **synonyms})}\n"
        base = write_base(tmp_path) if write_base else "builtin"
        message = message.format(base=base)
        plan = tmp_path / "plan.ini"
        plan.write_text(section)
        assert main(["mutate", "--base", base, "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == code
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[run]\nregistry = {base}\nsetting = mutated_in\noutput_dir = {tmp_path / 'out'}\n\n"
            f"[search]\nmax_simulations = 1\n\n{section}"
        )
        assert main(["search", "--manifest", str(manifest)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith(message) for line in err)
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()

    def test_consistent_search_on_a_drifting_base_runs(self, tmp_path):
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[run]\nregistry = {write_drift_base(tmp_path)}\noutput_dir = {tmp_path / 'out'}\n\n"
            "[search]\nmax_simulations = 1\ntrees_per_task = 1\n"
        )
        assert main(["search", "--manifest", str(manifest)]) == EXIT_OK
        assert (tmp_path / "out" / "trees").is_dir()


class TestSearchCommand:
    def test_consistent_adaptive_all_solved(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, setting="consistent", policy="scripted_adaptive")
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("consistent")]
        assert len(lines) == 4  # (dataset, difficulty) pairs
        assert all("100.0%" in l for l in lines)
        trees = list((tmp_path / "out" / "trees").glob("*.json"))
        assert len(trees) == 24

    def test_mutated_ood_rigid_all_failed(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, setting="mutated_ood", policy="scripted_rigid", sims=10)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("mutated_ood")]
        assert len(lines) == 4
        assert all("0.0%" in l for l in lines)

    def test_csv_summary(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, sims=10)
        csv_path = tmp_path / "summary.csv"
        assert main(["search", "--manifest", manifest, "--csv", str(csv_path)]) == EXIT_OK
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "setting,dataset,difficulty,tasks,solved,success_rate"
        assert len(rows) == 5

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_csv_summary_matches_the_written_trees(self, tmp_path, capsys, monkeypatch, completion_server, jobs):
        """With ``--jobs 2`` the manifest names a remote policy, so the
        searches run in the thread pool; cli builds the scripted one instead."""
        policy = "scripted_semi_adaptive"
        if jobs != "1":
            scripted_in_place_of_remote(monkeypatch, policy)
            policy = remote_policy(completion_server[0])
        manifest = write_manifest(tmp_path, setting="mutated_in", policy=policy, sims=3, trees=2)
        csv_path = tmp_path / "summary.csv"
        args = ["search", "--manifest", manifest, "--csv", str(csv_path), "--jobs", jobs, "--no-self-reflection"]
        assert main(args) == EXIT_OK
        assert f"wrote 48 trees to {tmp_path / 'out' / 'trees'}" in capsys.readouterr().out
        trees = [tree_from_json(p.read_text()) for p in sorted((tmp_path / "out" / "trees").glob("*.json"))]
        assert len(trees) == 48
        rows = cli.summarize(((t.task.id, bool(t.successful_leaves())) for t in trees), load_corpus(), "mutated_in")
        assert {row["solved"] for row in rows} != {0}
        with open(csv_path, newline="") as handle:
            written = list(csv.DictReader(handle))
        assert written == [{key: str(value) for key, value in row.items()} for row in rows]

    def test_each_tree_is_written_before_the_next_search(self, tmp_path, capsys, monkeypatch):
        searched = []

        def checking_search(*args, tree_id, **kwargs):
            trees = tmp_path / "out" / "trees"
            assert sorted(p.stem for p in trees.glob("*.json")) == sorted(searched)
            searched.append(tree_id)
            return run_search(*args, tree_id=tree_id, **kwargs)

        monkeypatch.setattr(cli, "run_search", checking_search)
        assert main(["search", "--manifest", write_manifest(tmp_path, sims=2)]) == EXIT_OK
        assert len(searched) == 24

    @staticmethod
    def _one_task_manifest(tmp_path, trees_per_task, endpoint=None) -> str:
        """A manifest of ``trees_per_task`` trees of one task, with a remote
        policy at ``endpoint`` if one is given."""
        tasks = tmp_path / "tasks.json"
        tasks.write_text(tasks_to_json([load_corpus().task("coffee-easy-1")]))
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[run]\ncorpus = {tasks}\noutput_dir = {tmp_path / 'out'}\n\n[search]\ntrees_per_task = {trees_per_task}\n"
            + (f"\n[policy]\nkind = remote\nendpoint = {endpoint}\n" if endpoint else "")
        )
        return str(manifest)

    def test_runs_are_drawn_as_they_are_searched(self, tmp_path, monkeypatch):
        """200,000 trees of one task: the first search starts before the runs
        after it are drawn, so little memory is taken by then (tracemalloc)."""

        class FirstSearch(Exception):
            pass

        def first_search(*args, **kwargs):
            raise FirstSearch(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(cli, "run_search", first_search)
        manifest = self._one_task_manifest(tmp_path, 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(FirstSearch) as stop:
                main(["search", "--manifest", manifest])
        finally:
            tracemalloc.stop()
        assert stop.value.args[0] < 2_000_000

    def test_parallel_searches_start_at_most_two_per_job_ahead(self, tmp_path, monkeypatch, completion_server):
        """A remote policy's searches run in the pool's threads. Each time a
        tree is yielded, count the searches started after it; the consumer
        dawdles over the first tree, so idle workers could run on."""
        started, threads = [], set()

        def search(*args, tree_id, **kwargs):
            threads.add(threading.current_thread())
            started.append(tree_id)
            return tree_id

        monkeypatch.setattr(cli, "run_search", search)
        overrides = argparse.Namespace(
            setting=None, no_self_reflection=False, no_tool_update=False, jobs=2
        )
        parser = cli._read_config(self._one_task_manifest(tmp_path, 1000, endpoint=completion_server[0]))
        trees, _, _ = cli.search_manifest(parser, overrides)
        yielded, ahead = [], []
        with closing(trees):
            for tree_id in trees:
                if not yielded:
                    time.sleep(0.2)
                yielded.append(tree_id)
                ahead.append(len(started) - len(yielded))
        assert yielded == [f"coffee-easy-1__t{index}" for index in range(1000)]
        assert max(ahead) <= 2 * 2
        assert threads and threading.main_thread() not in threads

    def test_a_scripted_search_runs_every_search_in_the_calling_thread(self, tmp_path, capsys, monkeypatch):
        """Threads never run two in-process searches at once, so a scripted
        policy ignores ``--jobs`` and starts none."""
        threads = []

        def search(*args, **kwargs):
            threads.append(threading.current_thread())
            return run_search(*args, **kwargs)

        monkeypatch.setattr(cli, "run_search", search)
        assert main(["search", "--manifest", write_manifest(tmp_path, sims=2), "--jobs", "4"]) == EXIT_OK
        assert len(threads) == 24 and set(threads) == {threading.main_thread()}

    @pytest.mark.parametrize("policy", ["scripted_adaptive", "remote", "remote_built_scripted"])
    def test_jobs_parallelism_is_deterministic(self, tmp_path, capsys, monkeypatch, completion_server, policy):
        """Every ``--jobs`` writes the same tree files and CSV, for a scripted
        policy and for a remote one, whose searches share the threads: one
        that posts to a server, and one that cli builds as the scripted
        adaptive policy, so the threads interleave whole searches."""
        if policy == "remote_built_scripted":
            scripted_in_place_of_remote(monkeypatch, "scripted_adaptive")
        if policy.startswith("remote"):
            policy = remote_policy(completion_server[0])
        written = []
        for jobs in ("1", "2", "4"):
            run = serial_dir_mk(tmp_path, jobs)
            manifest = write_manifest(run, policy=policy, sims=10)
            assert main(["search", "--manifest", manifest, "--jobs", jobs, "--csv", str(run / "s.csv")]) == EXIT_OK
            files = sorted((run / "out" / "trees").glob("*.json"))
            written.append([(p.name, p.read_bytes()) for p in [*files, run / "s.csv"]])
        capsys.readouterr()
        assert len(written[0]) == 24 + 1
        assert written[0] == written[1] == written[2]

    def test_no_tool_update_ablation(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, setting="mutated_in", sims=20)
        assert main(["search", "--manifest", manifest, "--no-tool-update"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("mutated_in")]
        assert all("100.0%" in l for l in lines)
        for path in (tmp_path / "out" / "trees").glob("*.json"):
            tree = tree_from_json(path.read_text())
            for node in tree.nodes:
                if node.action is not None:
                    assert node.action.action_name != "UpdateTool"
                assert tree.state(node.id).tool_manual == tree.manual

    @pytest.mark.parametrize(
        "policy, setting, flags, solved",
        [
            ("scripted_adaptive", "mutated_in", [], 24),
            ("scripted_rigid", "consistent", [], 24),
            ("scripted_rigid", "mutated_ood", [], 0),
            ("scripted_semi_adaptive", "consistent", ["--no-self-reflection"], 0),
        ],
    )
    def test_greedy_decoding_is_one_simulation_with_one_candidate(self, tmp_path, policy, setting, flags, solved):
        """A manifest with ``k = 1`` and ``max_simulations = 1`` decodes greedily:
        each tree is one simulation down a single child per node, and the
        reflection gate applies as in any search."""
        manifest = tmp_path / "run.ini"
        manifest.write_text(manifest_text(tmp_path, setting=setting, policy=policy, sims=1).replace("k = 5", "k = 1"))
        assert main(["search", "--manifest", str(manifest), *flags]) == EXIT_OK
        docs = [json.loads(path.read_text()) for path in sorted((tmp_path / "out" / "trees").glob("*.json"))]
        assert len(docs) == 24
        assert all(len(doc["simulations"]) == 1 for doc in docs)
        assert all(count == 1 for doc in docs for _, count in doc["nodes"]["expansions"])
        assert sum(reward == 1 for doc in docs for _, _, reward in doc["simulations"]) == solved

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        manifest = write_manifest(tmp_path, sims=2)
        assert main(["search", "--manifest", manifest, "--jobs", jobs]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["search", "--manifest", str(tmp_path / "none.ini")]) == EXIT_IO

    def test_bad_setting_is_config_error(self, tmp_path):
        manifest = tmp_path / "run.ini"
        manifest.write_text("[run]\nsetting = weird\n")
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("[mutation]\nseed = 11", "[mutation]\nseed = x", "[mutation]"),
            ("k = 5", "k = five", "k"),
            ("rng_seed = 7", "rng_seed = 7\ncache_rollouts = false", "cache_rollouts"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\ntemperature = hot", "temperature"),
            ("max_simulations = 5", "max_simulation = 2", "max_simulation"),
            ("[mutation]\nseed = 11", "[mutation]\nsed = 5", "sed"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nmax_inflight = 8", "max_inflight"),
            ("output_dir =", "outputdir =", "outputdir"),
            ("rng_seed = 7", "rng_seed = 7\nno_tool_update = true", "no_tool_update"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nemit_tool_updates = false", "emit_tool_updates"),
            ("[search]", "[serach]", "[serach]"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint =", "endpoint"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint = localhost:8080", "endpoint"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint = ftp://localhost/complete", "endpoint"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint = http:///complete", "endpoint"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint = http://localhost:http/", "endpoint"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint = http://localhost/a b", "endpoint"),
            ("kinds = name_text, param_text, param_format", "kinds =", "[mutation]"),
            ("c_puct = 1.25", "c_puct = nan", "c_puct"),
            ("c_puct = 1.25", "c_puct = inf", "c_puct"),
            ("c_puct = 1.25", "c_puct = 5%", "c_puct"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\ntemperature = nan", "temperature"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nrequest_timeout = -5", "request_timeout"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nrequest_timeout = inf", "request_timeout"),
            ("max_simulations = 5", "max_simulations = 0", "max_simulations"),
            ("trees_per_task = 1", "trees_per_task = 0", "trees_per_task"),
        ],
        ids=[
            "seed_x",
            "k_five",
            "removed_cache_rollouts",
            "temperature_hot",
            "max_simulation",
            "sed",
            "max_inflight",
            "outputdir",
            "flag_owned_no_tool_update",
            "flag_owned_emit_tool_updates",
            "unknown_section",
            "remote_without_endpoint",
            "remote_endpoint_without_scheme",
            "remote_endpoint_not_http",
            "remote_endpoint_without_host",
            "remote_endpoint_port_not_a_number",
            "remote_endpoint_with_a_space",
            "empty_kinds",
            "c_puct_nan",
            "c_puct_inf",
            "c_puct_percent",
            "temperature_nan",
            "request_timeout_negative",
            "request_timeout_inf",
            "max_simulations_0",
            "trees_per_task_0",
        ],
    )
    def test_bad_manifest_value_is_config_error(self, tmp_path, capsys, old, new, named):
        text = manifest_text(tmp_path, setting="mutated_in", sims=5)
        assert old in text
        manifest = tmp_path / "run.ini"
        manifest.write_text(text.replace(old, new))
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_every_manifest_key_is_read_by_its_type(self, tmp_path, monkeypatch):
        """Each field a manifest or plan key sets is read by the type of its
        default: an int, float, dict or frozenset one through ``_READERS``,
        and any other one takes the key's text, so its default must be a str
        or None. A bool field has no reader and is set only by a flag."""
        read = []
        config = cli._config

        def recording(parser, name, cls, **owned):
            read.append((cls, owned.keys()))
            return config(parser, name, cls, **owned)

        monkeypatch.setattr(cli, "_config", recording)
        assert main(["search", "--manifest", write_manifest(tmp_path, setting="mutated_in", sims=1)]) == EXIT_OK
        assert {cls for cls, _ in read} == {MutationPlan, SearchConfig, PolicyConfig}
        for cls, owned in read:
            for field in fields(cls):
                if field.name not in owned:
                    default = field.default_factory() if field.default is MISSING else field.default
                    assert type(default) in cli._READERS or default is None or type(default) is str, field.name

    def _search_corpus(self, tmp_path, ids):
        """Search a corpus file holding coffee-easy-1 under each of ``ids``."""
        task = load_corpus().task("coffee-easy-1")
        tasks = tmp_path / "tasks.json"
        tasks.write_text(tasks_to_json([replace(task, id=task_id) for task_id in ids]))
        text = manifest_text(tmp_path, sims=2).replace("corpus = builtin", f"corpus = {tasks}")
        manifest = tmp_path / "run.ini"
        manifest.write_text(text)
        return main(["search", "--manifest", str(manifest)])

    def test_corpus_task_id_that_is_not_a_file_name_is_config_error(self, tmp_path, capsys):
        assert self._search_corpus(tmp_path, ["ok", "../escaped"]) == EXIT_CONFIG
        assert "'../escaped' is not a file-name token" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_corpus_task_id_is_config_error(self, tmp_path, capsys):
        assert self._search_corpus(tmp_path, ["dup", "other", "dup"]) == EXIT_CONFIG
        assert "'dup' is repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [TOO_DEEP.encode(), b"\xff\xfe"], ids=["nested_too_deep", "not_utf8"])
    def test_undecodable_corpus_is_config_error(self, tmp_path, capsys, content):
        tasks = tmp_path / "tasks.json"
        tasks.write_bytes(content)
        manifest = tmp_path / "run.ini"
        manifest.write_text(manifest_text(tmp_path).replace("corpus = builtin", f"corpus = {tasks}"))
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot parse corpus {tasks}: ")
        assert not (tmp_path / "out").exists()

    def test_scripted_policy_without_a_plan_for_a_task_is_config_error(self, tmp_path, capsys):
        assert self._search_corpus(tmp_path, ["coffee-easy-1", "custom-1", "custom-2"]) == EXIT_CONFIG
        assert "no plan for task 'custom-1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_search_deeper_than_the_recursion_limit_finishes(self, tmp_path, capsys):
        """With k = 1 every simulation unhides one more node of a single
        chain, so selection walks a visible path 1,200 nodes deep."""
        tasks = tmp_path / "tasks.json"
        tasks.write_text(tasks_to_json([load_corpus().task("coffee-easy-1")]))
        manifest = tmp_path / "run.ini"
        manifest.write_text(
            f"[run]\ncorpus = {tasks}\nsetting = mutated_ood\n\n[mutation]\nseed = 11\n\n"
            "[policy]\nkind = scripted_rigid\n\n"
            "[search]\nk = 1\nmax_depth = 1200\nmax_simulations = 1200\ntrees_per_task = 1\n"
        )
        trees = tmp_path / "out" / "trees"
        assert main(["search", "--manifest", str(manifest), "--output-dir", str(tmp_path / "out")]) == EXIT_OK
        tree = tree_from_json((trees / "coffee-easy-1__t0.json").read_text())
        assert tree.nodes[0].visit_count == 1200
        assert max(node.depth for node in tree.nodes if not node.cached) == 1200

    def test_empty_endpoint_under_scripted_kind_is_no_endpoint(self, tmp_path, capsys):
        text = manifest_text(tmp_path, sims=5).replace("kind = scripted_adaptive", "kind = scripted_adaptive\nendpoint =")
        manifest = tmp_path / "run.ini"
        manifest.write_text(text)
        assert main(["search", "--manifest", str(manifest)]) == EXIT_OK
        assert "100.0%" in capsys.readouterr().out

    @pytest.mark.parametrize("section", ["run", "search", "policy"])
    def test_absent_section_takes_defaults(self, tmp_path, capsys, section):
        """On a one-task corpus, 1 tree of 5 simulations: without [run] the
        builtin corpus is searched, and without [search] the default trees."""
        tasks = tmp_path / "tasks.json"
        tasks.write_text(tasks_to_json([load_corpus().task("coffee-easy-1")]))
        parser = configparser.ConfigParser()
        parser.read_string(manifest_text(tmp_path, sims=5).replace("corpus = builtin", f"corpus = {tasks}"))
        parser.remove_section(section)
        manifest = tmp_path / "run.ini"
        with open(manifest, "w") as handle:
            parser.write(handle)
        out = tmp_path / "out"
        assert main(["search", "--manifest", str(manifest), "--output-dir", str(out)]) == EXIT_OK
        assert "100.0%" in capsys.readouterr().out
        expected = {"run": len(load_corpus().tasks), "search": SearchConfig().trees_per_task}.get(section, 1)
        assert len(list((out / "trees").glob("*.json"))) == expected

    def test_tree_that_breaks_an_invariant_exits_4_unwritten(self, tmp_path, capsys, monkeypatch):
        def broken_search(*args, **kwargs):
            tree = run_search(*args, **kwargs)
            tree.q_value[1] = 7.5
            return tree

        monkeypatch.setattr(cli, "run_search", broken_search)
        manifest = write_manifest(tmp_path, sims=2)
        assert main(["search", "--manifest", manifest]) == EXIT_INVARIANT
        assert "Q=7.5" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "trees").glob("*.json"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_later_tree_that_breaks_an_invariant_leaves_the_earlier_ones(
        self, tmp_path, capsys, monkeypatch, completion_server, jobs
    ):
        """With ``--jobs 2`` the policy is remote, so later searches run ahead
        in the thread pool; their trees are not written either."""
        corpus = load_corpus()
        bad = corpus.tasks[3].id

        def broken_search(task, *args, **kwargs):
            tree = run_search(task, *args, **kwargs)
            if task.id == bad:
                tree.q_value[1] = 7.5
            return tree

        monkeypatch.setattr(cli, "run_search", broken_search)
        policy = "scripted_adaptive" if jobs == "1" else remote_policy(completion_server[0])
        manifest = write_manifest(tmp_path, policy=policy, sims=2)
        assert main(["search", "--manifest", manifest, "--jobs", jobs]) == EXIT_INVARIANT
        assert f"tree {bad}__t0" in capsys.readouterr().err
        written = sorted(p.stem for p in (tmp_path / "out" / "trees").glob("*.json"))
        assert written == sorted(f"{task.id}__t0" for task in corpus.tasks[:3])

    def test_unparseable_plan_is_config_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.ini"
        plan.write_text("seed = 5\n")
        assert main(["mutate", "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search --manifest", "mutate --plan", "mutate --base"])
def test_file_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[mutation]\nseed = 1\n\xff\n")
    out = ["--out", str(tmp_path / "m.json")] if command.startswith("mutate") else ["--output-dir", str(tmp_path)]
    assert main([*command.split(), str(bad), *out]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot parse ") and "utf-8" in err[0]
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "trees").exists()


def serial_dir_mk(tmp_path, name) -> Path:
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    return d


class TestExportCommand:
    def test_empty_dir_exports_zero(self, tmp_path, capsys):
        empty = tmp_path / "trees"
        empty.mkdir()
        out = tmp_path / "sft.jsonl"
        assert main(["export", "--trees", str(empty), "--out", str(out)]) == EXIT_OK
        assert "exported 0 records" in capsys.readouterr().out
        assert out.read_text() == ""

    def test_export_bounded_and_deterministic(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, setting="mutated_in", sims=20, trees=2)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        trees_dir = tmp_path / "out" / "trees"
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["export", "--trees", str(trees_dir), "--out", str(out1), "--seed", "3"]) == EXIT_OK
        assert main(["export", "--trees", str(trees_dir), "--out", str(out2), "--seed", "3"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        records = [json.loads(l) for l in out1.read_text().splitlines()]
        assert 0 < len(records) <= 24 * 4
        per_task = {}
        for record in records:
            per_task[record["task_id"]] = per_task.get(record["task_id"], 0) + 1
        assert all(v <= 4 for v in per_task.values())
        capsys.readouterr()

    @staticmethod
    def _live_trees_at_each_read(tmp_path, monkeypatch, policy):
        """Export the trees of a 24-task search; returns how many loaded trees
        are still reachable each time the next file is read."""
        manifest = write_manifest(tmp_path, setting="mutated_in", policy=policy, sims=3)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        load, loaded, live_at_read = cli.tree_from_json, [], []

        def tracked_load(text):
            gc.collect()
            live_at_read.append(sum(ref() is not None for ref in loaded))
            tree = load(text)
            loaded.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(cli, "tree_from_json", tracked_load)
        out = tmp_path / "sft.jsonl"
        assert main(["export", "--trees", str(tmp_path / "out" / "trees"), "--out", str(out)]) == EXIT_OK
        return live_at_read

    def test_unsolved_tree_is_released_before_the_next_is_read(self, tmp_path, capsys, monkeypatch):
        """Export streams the tree files: a tree without a reward-+1 leaf is
        unreachable by the time the next file is read."""
        assert self._live_trees_at_each_read(tmp_path, monkeypatch, "scripted_rigid") == [0] * 24
        assert "exported 0 records" in capsys.readouterr().out

    def test_solved_tree_is_released_before_the_next_is_read(self, tmp_path, capsys, monkeypatch):
        """Export keeps a solved tree's paths, not the tree."""
        assert self._live_trees_at_each_read(tmp_path, monkeypatch, "scripted_adaptive") == [0] * 24
        assert "exported 0 records" not in capsys.readouterr().out

    def test_corrupt_later_tree_is_invariant_error_and_writes_nothing(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, sims=5)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        trees_dir = tmp_path / "out" / "trees"
        (trees_dir / "zz-corrupt.json").write_text('{"definitely": "not a tree"}')
        out = tmp_path / "sft.jsonl"
        assert main(["export", "--trees", str(trees_dir), "--out", str(out)]) == EXIT_INVARIANT
        assert "corrupt tree file" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_per_task_is_config_error(self, tmp_path, capsys):
        empty = tmp_path / "trees"
        empty.mkdir()
        out = tmp_path / "sft.jsonl"
        assert main(["export", "--trees", str(empty), "--out", str(out), "--max-per-task", "-1"]) == EXIT_CONFIG
        assert "--max-per-task" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_directory_is_created(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, sims=5)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        out = tmp_path / "new" / "dir" / "sft.jsonl"
        assert main(["export", "--trees", str(tmp_path / "out" / "trees"), "--out", str(out)]) == EXIT_OK
        records = out.read_text().splitlines()
        assert records and f"exported {len(records)} records to {out}" in capsys.readouterr().out

    def test_missing_dir_is_io_error(self, tmp_path):
        assert main(["export", "--trees", str(tmp_path / "nope"), "--out", str(tmp_path / "x.jsonl")]) == EXIT_IO


# First 16 hex chars of sha256 over ``inspect``'s output for the coffee-hard-4
# tree that each policy kind grows at rng_seed 7 on the seed-7 mutated registry.
INSPECT_PINS = {
    "scripted_adaptive": "dad64a33acc8685e",
    "scripted_rigid": "0712b6b3f4779d50",
}


class TestInspectCommand:
    def test_outline_marks_cached_and_update_tool(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, setting="mutated_in", sims=30)
        assert main(["search", "--manifest", manifest]) == EXIT_OK
        capsys.readouterr()
        tree_path = next((tmp_path / "out" / "trees").glob("coffee-hard-4*.json"))
        assert main(["inspect", str(tree_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[cached]" in out
        assert "UpdateTool" in out
        assert "[terminal r=+1]" in out
        assert "invariants: ok" in out
        assert "[deprecation_error]" in out

    def test_header_shows_the_simulations_and_policy_calls(self, tmp_path, capsys, small_tree_doc):
        """The root's visit count is the number of simulations run."""
        assert main(["inspect", _write_json(tmp_path / "t.json", small_tree_doc)]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        calls = small_tree_doc["stats"]["policy_calls"]
        assert header.endswith(f"generation=base simulations=5 policy_calls={calls}")
        assert calls > 0

    @pytest.mark.parametrize("kind", sorted(INSPECT_PINS))
    def test_output_is_pinned(self, tmp_path, capsys, kind):
        corpus = load_corpus()
        registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
        tree = run_search(
            corpus.task("coffee-hard-4"), registry, build_policy(PolicyConfig(kind=kind), corpus),
            SearchConfig(rng_seed=7), corpus.manual, corpus.demos,
        )
        path = tmp_path / "t.json"
        path.write_text(tree_to_json(tree), encoding="utf-8")
        assert main(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == INSPECT_PINS[kind]

    def test_corrupt_tree_is_invariant_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"definitely": "not a tree"}')
        assert main(["inspect", str(bad)]) == EXIT_INVARIANT
        assert "corrupt tree file" in capsys.readouterr().err


class TestPipelineReproducibility:
    def test_mutate_search_export_byte_identical(self, tmp_path, capsys):
        digests = []
        for name in ("one", "two"):
            base = serial_dir_mk(tmp_path, name)
            registry_path = base / "registry.json"
            assert main(["mutate", "--out", str(registry_path), "--seed", "11"]) == EXIT_OK
            manifest = write_manifest(base, setting="mutated_in", sims=20)
            assert main(["search", "--manifest", manifest]) == EXIT_OK
            sft = base / "sft.jsonl"
            assert main(["export", "--trees", str(base / "out" / "trees"), "--out", str(sft), "--seed", "1"]) == EXIT_OK
            tree_bytes = b"".join(p.read_bytes() for p in sorted((base / "out" / "trees").glob("*.json")))
            digests.append((registry_path.read_bytes(), tree_bytes, sft.read_bytes()))
        capsys.readouterr()
        assert digests[0] == digests[1]


class FailingOncePolicy(ScriptedAdaptivePolicy):
    """The adaptive agent, but the first state with two steps that it is
    shown fails to expand, as a remote policy's transport can."""

    pure = False

    def __init__(self, corpus):
        super().__init__(corpus)
        self.failed = False

    def propose(self, state, k):
        if len(state.steps) == 2 and not self.failed:
            self.failed = True
            raise PolicyError("remote policy failed: connection refused")
        return super().propose(state, k)


@pytest.fixture(scope="module")
def small_tree_doc():
    corpus = load_corpus()
    tree = run_search(
        corpus.task("coffee-easy-1"), corpus.base_registry, FailingOncePolicy(corpus),
        SearchConfig(max_simulations=5, rng_seed=3), corpus.manual, corpus.demos,
    )
    doc = json.loads(tree_to_json(tree))
    # Rewards are read off the Finish entries, and the one failed expansion is stored.
    assert len(doc["nodes"]["expansions"]) > 2 and len(doc["nodes"]["failure"]) == 1
    assert {"response", "task_done"} <= {entry["kind"] for entry in doc["actions"]}
    assert len(doc["simulations"]) == doc["config"]["max_simulations"]
    return doc


def _set(column, index, value):
    def edit(doc):
        doc["nodes"][column][index] = value
    return edit


def _set_expansion(index, position, value):
    """Set entry ``position`` (0 parent, 1 count) of expansion ``index``."""
    def edit(doc):
        doc["nodes"]["expansions"][index][position] = value
    return edit


def _set_logged(position, value):
    """Set entry ``position`` (0 leaf, 1 chosen, 2 reward) of the first simulation."""
    def edit(doc):
        doc["simulations"][0][position] = value
    return edit


def _node_count(doc) -> int:
    return 1 + len(doc["nodes"]["action"])


def _parents(doc) -> list:
    """Each node's parent, None for the root, as the expansions give them."""
    return [None, *(node for node, count in doc["nodes"]["expansions"] for _ in range(count))]


def _first_child(doc, index) -> int:
    """The id of the first child that expansion ``index`` adds."""
    return 1 + sum(count for _, count in doc["nodes"]["expansions"][:index])


def _expand_each_other(doc):
    """Put the first two expansions each under the other's first child."""
    expansions = doc["nodes"]["expansions"]
    expansions[0][0], expansions[1][0] = _first_child(doc, 1), _first_child(doc, 0)


def _choose_beyond_the_child(doc):
    """Log the first simulation's choice as a node that is neither its leaf
    nor one of the leaf's children."""
    leaf, parents = doc["simulations"][0][0], _parents(doc)
    doc["simulations"][0][1] = next(i for i, p in enumerate(parents) if i != leaf and p not in (None, leaf))


def _lower_max_depth_past_the_deepest(doc):
    """Lower max_depth to the depth above the deepest nodes, which rollouts
    built; a file stores no cached flag, so the limit holds for every node."""
    depth = [0]
    for parent in _parents(doc)[1:]:
        depth.append(depth[parent] + 1)
    doc["config"]["max_depth"] = max(depth) - 1


def _node_of_kind(doc, kind) -> int:
    """The first node that is not expanded and whose action has class ``kind``."""
    expanded = {node for node, _ in doc["nodes"]["expansions"]}
    kinds = [None, *(doc["actions"][index]["kind"] for index in doc["nodes"]["action"])]
    return next(i for i, node_kind in enumerate(kinds) if i not in expanded and node_kind == kind)


def _fail(node, message="x"):
    """Add a failed expansion at ``node``, a function of the document, keeping the ids in order."""
    def edit(doc):
        doc["nodes"]["failure"] = sorted([*doc["nodes"]["failure"], [node(doc), message]])
    return edit


def _fail_out_of_order(doc):
    """A second failed expansion, at an open leaf, then both pairs in reverse id order."""
    _fail(lambda doc: _node_of_kind(doc, "response"))(doc)
    doc["nodes"]["failure"].reverse()


def _set_finish_observation(text):
    def edit(doc):
        next(entry for entry in doc["actions"] if entry["kind"] == "task_done")["observation"] = text
    return edit


def _v8(doc):
    """The same tree as format_version 8 wrote it: with a sparse reward column."""
    rewards = tree_from_json(json.dumps(doc)).reward
    doc["format_version"] = 8
    doc["nodes"]["reward"] = [[i, reward] for i, reward in enumerate(rewards) if reward is not None]


def _v7(doc):
    """The same tree as format_version 7 wrote it: one parent per node, and
    the root's null action."""
    _v8(doc)
    doc["format_version"] = 7
    columns = doc["nodes"]
    columns["parent"] = _parents(doc)
    del columns["expansions"]
    columns["action"].insert(0, None)


def _v6(doc):
    """The same tree as format_version 6 wrote it: its config holds
    ``cache_rollouts``."""
    _v7(doc)
    doc["format_version"] = 6
    doc["config"]["cache_rollouts"] = True


def _v5(doc):
    """The same tree as format_version 5 wrote it: the statistics stored
    instead of the simulation log, and one reward and failure per node."""
    rows = tree_from_json(json.dumps(doc)).nodes
    _v6(doc)
    doc["format_version"] = 5
    del doc["simulations"]
    columns = doc["nodes"]
    for column in ("q_value", "visit_count", "prior", "cached", "reward", "failure"):
        columns[column] = [getattr(row, column) for row in rows]


def _v4(doc):
    """The same tree as format_version 4 wrote it: a stored ``terminal``
    column and the run counters in ``stats``."""
    _v5(doc)
    doc["format_version"] = 4
    columns = doc["nodes"]
    columns["terminal"] = [reward is not None for reward in columns["reward"]]
    doc["stats"].update(simulations=columns["visit_count"][0], backprops=columns["visit_count"][0])


def _v3(doc):
    """The same tree as format_version 3 wrote it: one object per node."""
    _v4(doc)
    doc["format_version"] = 3
    columns = doc["nodes"]
    doc["nodes"] = [dict(zip(columns, row)) for row in zip(*columns.values())]


def _v1(doc):
    _v3(doc)
    doc["format_version"] = 1
    for i, node in enumerate(doc["nodes"]):
        node.update(id=i, depth=0, children=[j for j, n in enumerate(doc["nodes"]) if n["parent"] == i])


def _v2(doc):
    """The same tree as format_version 2 wrote it: each node holds its action."""
    _v3(doc)
    doc["format_version"] = 2
    table = doc.pop("actions")
    for node in doc["nodes"][1:]:
        node["action"] = table[node["action"]]


MALFORMED_TREES = {
    "parent_out_of_range": _set_expansion(1, 0, 999),
    # The second expansion under its own first child.
    "parent_forward": lambda doc: _set_expansion(1, 0, _first_child(doc, 1))(doc),
    "parent_cycle": _expand_each_other,
    "expansion_under_a_later_node": lambda doc: _set_expansion(0, 0, _node_count(doc) - 1)(doc),
    "expansion_parent_negative": _set_expansion(1, 0, -1),
    "node_expanded_twice": lambda doc: _set_expansion(1, 0, doc["nodes"]["expansions"][0][0])(doc),
    "expansion_count_0": _set_expansion(0, 1, 0),
    "expansion_count_negative": _set_expansion(0, 1, -1),
    "expansion_count_true": _set_expansion(0, 1, True),
    "expansion_count_past_the_actions": _set_expansion(0, 1, 10**12),
    "expansion_not_a_pair": lambda doc: doc["nodes"]["expansions"][0].append(1),
    "expansion_not_a_list": _set("expansions", 0, 5),
    "stale_children_list": lambda doc: doc["nodes"].update(
        children=[[999] if i == 1 else [] for i in range(_node_count(doc))]
    ),
    "nodes_not_a_list": lambda doc: doc.update(nodes=5),
    "node_not_an_object": lambda doc: _set("action", 1, doc["actions"][0])(doc),
    "format_v1": _v1,
    # A Q of 7.5 would take a logged reward of 7.5.
    "q_out_of_range": _set_logged(2, 7.5),
    # Priors are not written; a file that writes them is not version 8.
    "priors_do_not_sum": lambda doc: doc["nodes"].update(prior=[1.0] + [0.9] * (_node_count(doc) - 1)),
    "prior_nan": _set_logged(2, float("nan")),
    "c_puct_infinite": lambda doc: doc["config"].update(c_puct=float("inf")),
    "c_puct_nan": lambda doc: doc["config"].update(c_puct=float("nan")),
    "action_index_out_of_range": lambda doc: _set("action", 1, len(doc["actions"]))(doc),
    "action_index_negative": _set("action", 1, -1),
    "action_index_true": _set("action", 1, True),
    "action_index_float": _set("action", 1, 0.0),
    "action_entry_missing_key": lambda doc: doc["actions"][0].pop("kind"),
    "action_kind_not_an_observation_class": lambda doc: doc["actions"][0].update(kind="banana"),
    "action_entry_extra_key": lambda doc: doc["actions"][0].update(extra=1),
    "actions_not_a_list": lambda doc: doc.update(actions={}),
    "action_entry_not_an_object": lambda doc: doc["actions"].__setitem__(0, 5),
    "format_v2": _v2,
    "format_v3": _v3,
    "format_v4": _v4,
    "format_v5": _v5,
    "format_v6": _v6,
    "format_v7": _v7,
    "format_v8": _v8,
    "cached_beyond_depth_limit": _lower_max_depth_past_the_deepest,
    "column_too_short": lambda doc: doc["nodes"]["action"].pop(),
    "column_too_long": lambda doc: doc["nodes"]["action"].append(0),
    "column_missing": lambda doc: doc["nodes"].pop("failure"),
    "column_extra": lambda doc: doc["nodes"].update(depth=[0] * _node_count(doc)),
    "column_not_a_list": lambda doc: doc["nodes"].update(failure=5),
    "visit_count_true": _set_logged(0, True),
    "parent_true": _set_expansion(1, 0, True),
    "stats_untyped": lambda doc: doc.update(stats={"x": [1, {"y": None}]}),
    "stats_count_missing": lambda doc: doc["stats"].pop("policy_calls"),
    "stats_count_negative": lambda doc: doc["stats"].update(policy_calls=-1),
    "stats_count_true": lambda doc: doc["stats"].update(policy_calls=True),
    # A node's reward is read off its action, so a Finish observation must be
    # an answer text; the one reward a file stores is a failure pair's -1.
    "reward_not_plus_or_minus_one": _set_finish_observation(None),
    "task_done_text_neither_answer": _set_finish_observation("Answer is correct"),
    "reward_on_expanded_node": _fail(lambda doc: 0),
    "failure_on_a_finish_node": _fail(lambda doc: _node_of_kind(doc, "task_done")),
    "reward_pair_ids_out_of_order": _fail_out_of_order,
    "reward_pair_id_repeated": lambda doc: doc["nodes"]["failure"].append(doc["nodes"]["failure"][-1]),
    "reward_pair_id_out_of_range": lambda doc: doc["nodes"]["failure"].append([10**12, "x"]),
    "reward_pair_id_negative": lambda doc: doc["nodes"]["failure"].insert(0, [-1, "x"]),
    "reward_pair_not_a_pair": lambda doc: doc["nodes"]["failure"][0].append("x"),
    "reward_pair_value_null": lambda doc: doc["nodes"]["failure"][0].__setitem__(1, None),
    "failure_pair_id_out_of_range": lambda doc: doc["nodes"]["failure"].append([_node_count(doc), "x"]),
    "failure_pair_value_not_a_string": lambda doc: doc["nodes"]["failure"].append([1, 5]),
    "simulations_missing": lambda doc: doc.pop("simulations"),
    "simulations_not_a_list": lambda doc: doc.update(simulations={}),
    "simulation_not_a_triple": lambda doc: doc["simulations"][0].pop(),
    "simulation_not_a_list": lambda doc: doc["simulations"].__setitem__(0, 5),
    "simulation_chosen_not_the_leaf_or_its_child": _choose_beyond_the_child,
    "simulation_chosen_out_of_range": _set_logged(1, 999),
    "simulation_leaf_out_of_range": lambda doc: _set_logged(0, _node_count(doc))(doc),
    "simulation_leaf_negative": _set_logged(0, -1),
    "simulation_reward_0": _set_logged(2, 0),
    "simulation_reward_2": _set_logged(2, 2),
    "simulation_reward_true": _set_logged(2, True),
    "simulations_exceed_max_simulations": lambda doc: doc["simulations"].append(doc["simulations"][-1]),
}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestMalformedTrees:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TREES) + ["nested_too_deep"])
    def test_inspect_and_export_exit_4(self, tmp_path, capsys, small_tree_doc, case):
        trees = tmp_path / "trees"
        trees.mkdir()
        path = trees / "t.json"
        if case in MALFORMED_TREES:
            doc = json.loads(json.dumps(small_tree_doc))
            MALFORMED_TREES[case](doc)
            _write_json(path, doc)
            with pytest.raises(ValueError):
                tree_from_json(path.read_text())
        else:
            path.write_text(TOO_DEEP)
        assert main(["inspect", str(path)]) == EXIT_INVARIANT
        assert main(["export", "--trees", str(trees), "--out", str(tmp_path / "sft.jsonl")]) == EXIT_INVARIANT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: corrupt tree file") for line in err)
        if case.startswith("format_v"):
            assert all(line.endswith(f"unsupported tree format_version {case[-1]}") for line in err)
        assert not (tmp_path / "sft.jsonl").exists()

    def test_unmodified_doc_inspects_clean(self, tmp_path, capsys, small_tree_doc):
        assert main(["inspect", _write_json(tmp_path / "t.json", small_tree_doc)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.rstrip().endswith("invariants: ok")
        # Its one failed expansion is named as such.
        [failed] = [line for line in out.splitlines() if "[policy_error]" in line]
        assert f"[{small_tree_doc['nodes']['failure'][0][0]}] " in failed and "[terminal r=-1]" in failed


_ODD_VALUES = st.sampled_from([None, True, 0, -1, 7, 1.5, "x", [], {}, [0], {"a": 1}])


@given(data=st.data())
def test_perturbed_tree_inspects_to_0_or_4(small_tree_doc, data):
    """One field, cell or log entry of a real tree changed: inspect succeeds
    or reports exit 4."""
    doc = json.loads(json.dumps(small_tree_doc))
    columns = doc["nodes"]
    # A column's cells or the log's entries; a sparse cell or a log entry is itself a list.
    cells = data.draw(
        st.sampled_from([*(columns[name] for name in sorted(columns) if columns[name]), doc["simulations"]]),
        label="cells",
    )
    index = data.draw(st.integers(0, len(cells) - 1), label="index")
    entry = data.draw(st.sampled_from(doc["actions"]), label="action entry")
    target = data.draw(
        st.sampled_from([doc, doc["task"], doc["config"], doc["stats"], columns, entry]), label="object"
    )
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    op = data.draw(
        st.sampled_from(
            ["drop", "value", "drop_cell", "cell", "inner_cell", "forward_parent", "far_parent", "far_action"]
        ),
        label="op",
    )
    if op == "drop":
        del target[key]
    elif op == "value":
        target[key] = data.draw(_ODD_VALUES, label="value")
    elif op == "drop_cell":
        del cells[index]
    elif op == "cell":
        cells[index] = data.draw(_ODD_VALUES, label="value")
    elif op == "inner_cell" and isinstance(cells[index], list):
        inner = cells[index]
        inner[data.draw(st.integers(0, len(inner) - 1), label="position")] = data.draw(
            st.one_of(_ODD_VALUES, st.integers(-2, _node_count(doc) + 2)), label="value"
        )
    elif op == "far_action":
        node = data.draw(st.integers(0, len(columns["action"]) - 1), label="node")
        columns["action"][node] = len(doc["actions"]) + data.draw(st.integers(0, 5), label="past the end")
    elif op in ("forward_parent", "far_parent"):
        expansion = data.draw(st.integers(0, len(columns["expansions"]) - 1), label="expansion")
        parent = _first_child(doc, expansion) if op == "forward_parent" else _node_count(doc) + 5
        columns["expansions"][expansion][0] = parent
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["inspect", _write_json(Path(tmp) / "t.json", doc)])
    assert code in (EXIT_OK, EXIT_INVARIANT)


@pytest.fixture(scope="module")
def registry_docs():
    base = load_corpus().base_registry
    return [json.loads(registry_to_json(r)) for r in (base, mutate_registry(base, MutationPlan(seed=11)))]


@given(data=st.data())
def test_perturbed_registry_mutates_to_0_or_2(registry_docs, data):
    """One field of a real base or mutated registry changed: mutate --base
    succeeds or reports exit 2."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(registry_docs), label="registry")))
    spec = data.draw(st.sampled_from(doc["apis"]), label="api")
    containers = [c for c in (doc, spec, *spec["params"], doc["deprecated"]) if c]
    target = data.draw(st.sampled_from(containers), label="object")
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    if data.draw(st.booleans(), label="drop"):
        del target[key]
    else:
        target[key] = data.draw(_ODD_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        base = _write_json(Path(tmp) / "base.json", doc)
        code = main(["mutate", "--base", base, "--out", str(Path(tmp) / "out.json"), "--seed", "3"])
    assert code in (EXIT_OK, EXIT_CONFIG)


# Words that fail a plan: the empty word, words no name may hold, and words
# already in the base names, so renamed params can collide.
_PLAN_ODD_WORDS = ["", "Open Now", "tch", "DB", "Name"]

OVERRIDES = argparse.Namespace(
    setting=None, no_self_reflection=False, no_tool_update=False, jobs=1
)


@given(
    kinds=st.frozensets(st.sampled_from(MUTATION_KINDS), min_size=1),
    special_char=st.sampled_from(SPECIAL_CHARS),
    seed=st.integers(0, 2**32),
    synonyms=st.fixed_dictionaries(
        {
            word: st.one_of(
                st.just(options), st.lists(st.sampled_from(_PLAN_ODD_WORDS + options), min_size=1, max_size=2)
            )
            for word, options in DEFAULT_SYNONYMS.items()
        }
    ),
)
def test_mutate_and_a_mutated_search_exit_alike_on_every_plan(kinds, special_char, seed, synonyms):
    """Both build the registry through one path. ``search_manifest`` builds it
    before any search runs, so its exit code is that of the registry."""
    section = (
        f"[mutation]\nseed = {seed}\nkinds = {', '.join(sorted(kinds))}\nspecial_char = {special_char}\n"
        f"synonyms = {json.dumps(synonyms)}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        plan = Path(tmp) / "plan.ini"
        plan.write_text(section)
        mutate_code = main(["mutate", "--plan", str(plan), "--out", str(Path(tmp) / "m.json")])
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string("[run]\nsetting = mutated_in\n\n" + section)
    try:
        trees, _, _ = cli.search_manifest(parser, OVERRIDES)
    except cli.CliError as exc:
        search_code = exc.code
    else:
        trees.close()
        search_code = EXIT_OK
    assert mutate_code == search_code


def test_closed_stdout_exits_3_without_a_traceback(tmp_path, small_tree_doc):
    """``tooldrift inspect t.json | head -1``, with the reader gone before the
    command writes."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tooldrift.cli", "inspect", _write_json(tmp_path / "t.json", small_tree_doc)],
            stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_IO, b"error: stdout was closed\n")


_MANIFEST_ODD_VALUES = st.sampled_from(
    ["", "x", "-1", "0", "2", "1.5", "nan", "inf", "true", "builtin", "remote", "mutated_ood", "name_text", "{}"]
)
_SECTION_NAMES = st.sampled_from(["run", "search", "policy", "mutation", "mutation_in", "mutation_ood", "serach"])


@given(data=st.data())
def test_perturbed_manifest_searches_to_0_2_3_or_4(data):
    """One thing in a real manifest changed (a key dropped, a value set to an
    odd one, a section renamed): ``search`` ends in a documented exit code."""
    corpus = load_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tasks = tmp / "tasks.json"
        tasks.write_text(tasks_to_json([corpus.task("coffee-easy-1"), corpus.task("agenda-hard-5")]))
        parser = configparser.ConfigParser()
        parser.read_string(manifest_text(tmp, setting="mutated_in", sims=1, trees=1))
        parser["run"]["corpus"] = str(tasks)
        section = data.draw(st.sampled_from(parser.sections()), label="section")
        op = data.draw(st.sampled_from(["drop", "value", "rename"]), label="op")
        if op != "rename":
            key = data.draw(st.sampled_from(sorted(parser[section])), label="key")
            if op == "drop":
                del parser[section][key]
            else:
                parser[section][key] = data.draw(_MANIFEST_ODD_VALUES, label="value")
        manifest = tmp / "run.ini"
        with open(manifest, "w") as handle:
            parser.write(handle)
        if op == "rename":
            text = manifest.read_text().replace(f"[{section}]", f"[{data.draw(_SECTION_NAMES, label='to')}]")
            manifest.write_text(text)
        argv = ["search", "--manifest", str(manifest), "--output-dir", str(tmp / "o")]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_INVARIANT)
