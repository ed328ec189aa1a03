"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from tooldrift import mcts
from tooldrift.cli import EXIT_OK, main
from tooldrift.corpus import load_corpus
from tooldrift.env import TaskInstance, registry_to_json
from tooldrift.mcts import (
    SearchConfig,
    SearchTree,
    backpropagate,
    puct_score,
    run_search,
    select_leaf,
)
from tooldrift.mutation import MutationPlan, mutate_registry, split_words, verify_mutation
from tooldrift.policy import (
    ScriptedAdaptivePolicy,
    ScriptedRigidPolicy,
    ScriptedSemiAdaptivePolicy,
)
from tooldrift.react import StateRecord, parse_action
from tooldrift.trajectory import collect_from_trees, load_sft, parse_target


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def _dummy_state() -> StateRecord:
    task = TaskInstance(id="t", description="q", gold_answer="1", dataset="coffee", difficulty="easy")
    return StateRecord(task=task, tool_manual=("Tool[x]: t.",))


PAPER_DEFAULTS = SearchConfig(c_puct=1.25, max_depth=15, k=5, max_simulations=30, rng_seed=7)


class TestCriterion1Backprop:
    def test_q_equals_brute_force_mean(self):
        with criterion(1, "backprop incremental mean matches brute force over 1000 trees"):
            rng = random.Random(20240917)
            start = time.perf_counter()
            state = _dummy_state()
            for _ in range(1000):
                n_nodes = rng.randint(2, 60)
                # Only the columns backpropagate reads.
                tree = SearchTree(task=state.task, config=SearchConfig(), q_value=[0.0] * n_nodes,
                                  visit_count=[0] * n_nodes, parent=[None])
                tree.parent += [rng.randrange(node_id) for node_id in range(1, n_nodes)]
                propagated: dict[int, list[int]] = {node_id: [] for node_id in range(n_nodes)}
                for _ in range(rng.randint(1, 60)):
                    node_id = rng.randrange(n_nodes)
                    reward = rng.choice((-1, 1))
                    backpropagate(tree, node_id, reward)
                    cur = node_id
                    while cur is not None:
                        propagated[cur].append(reward)
                        cur = tree.parent[cur]
                for node_id, rewards in propagated.items():
                    assert tree.visit_count[node_id] == len(rewards)
                    if rewards:
                        assert abs(tree.q_value[node_id] - sum(rewards) / len(rewards)) <= 1e-12
                    else:
                        assert tree.q_value[node_id] == 0.0
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"backprop oracle took {elapsed:.2f}s"


class TestCriterion2Puct:
    def test_selection_step_matches_exhaustive_argmax(self):
        with criterion(2, "PUCT choice equals exhaustive argmax on 10000 configurations"):
            rng = random.Random(77)
            state = _dummy_state()
            start = time.perf_counter()
            for _ in range(10_000):
                visits, m = rng.randint(0, 200), rng.randint(1, 8)
                # A root with m children in one expansion, written column by
                # column; each child's prior is 1/m, so Q and N decide.
                tree = SearchTree(
                    task=state.task, config=SearchConfig(), parent=[None] + [0] * m, action=[None] * (1 + m),
                    visit_count=[visits], q_value=[0.0], reward=[None] * (1 + m),
                    expanded={0}, children=[range(1, 1 + m)] + [()] * m, depth=[0] + [1] * m,
                )
                for _ in range(m):
                    tree.q_value.append(rng.choice((-1.0, -0.5, 0.0, 0.25, 0.25, 0.5, 1.0)))
                    tree.visit_count.append(rng.randint(0, 12))
                got = select_leaf(tree)
                expected, expected_score = None, -math.inf
                for child_id in tree.children[0]:
                    score = puct_score(tree.visit_count[0], tree.q_value[child_id], 1.0 / m,
                                       tree.visit_count[child_id], tree.config.c_puct)
                    if score > expected_score:
                        expected, expected_score = child_id, score
                assert got == expected
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, f"PUCT oracle took {elapsed:.2f}s"


class TestCriterion3Cache:
    def test_cache_invisible_and_effective(self, corpus, mutated_registry, selected_leaves, monkeypatch):
        with criterion(3, "cached nodes invisible to selection; stored children are reused without a policy call"):

            class Unmarked(ScriptedAdaptivePolicy):
                pure = False  # asked at every expansion, so its calls count the expansions

            reused = []
            children = mcts._children

            def counting(tree, node_id, *rest):
                stored = bool(tree.children[node_id])
                found = children(tree, node_id, *rest)
                reused.append(stored)
                return found

            monkeypatch.setattr(mcts, "_children", counting)
            for task_id in ["coffee-easy-1", "coffee-hard-4", "agenda-easy-1", "agenda-hard-1"]:
                selected_leaves.clear()
                reused.clear()
                tree = run_search(
                    corpus.task(task_id), mutated_registry, Unmarked(corpus), PAPER_DEFAULTS,
                    corpus.manual, corpus.demos,
                )
                # (a) selection never returned a node that was cached at the time
                assert selected_leaves
                assert all(not was_cached for _, was_cached in selected_leaves)
                # (b) one policy call per expanded node: no expansion is made twice
                assert tree.stats["policy_calls"] == sum(1 for ids in tree.children if ids)
                # (c) some expansion or rollout was served from stored children
                assert any(reused)


class TestCriterion4ClosedLoop:
    def test_adaptation_across_settings(self, corpus, base_registry, mutated_registry, mutated_registry_alt):
        with criterion(4, "adaptive 100% on all settings; rigid 100% consistent / 0% mutated"):
            settings = {
                "consistent": base_registry,
                "mutated_in": mutated_registry,
                "mutated_ood": mutated_registry_alt,
            }
            start = time.perf_counter()
            adaptive = ScriptedAdaptivePolicy(corpus)
            for name, registry in settings.items():
                for task in corpus.tasks:
                    tree = run_search(
                        task, registry, adaptive, PAPER_DEFAULTS, corpus.manual, corpus.demos
                    )
                    assert tree.successful_leaves(), (name, task.id)
            rigid = ScriptedRigidPolicy(corpus)
            for name, registry in settings.items():
                expected_success = name == "consistent"
                for task in corpus.tasks:
                    tree = run_search(
                        task, registry, rigid, PAPER_DEFAULTS, corpus.manual, corpus.demos
                    )
                    assert bool(tree.successful_leaves()) == expected_success, (name, task.id)
            elapsed = time.perf_counter() - start
            assert elapsed < 30.0, f"closed-loop runs took {elapsed:.2f}s"


class TestCriterion5Ablations:
    def test_no_self_reflection_collapses_recovery(self, corpus, base_registry):
        with criterion(5, "reflection ablation 100%->0%; tool-update ablation succeeds without updates"):
            config = replace(PAPER_DEFAULTS, max_simulations=8)
            with_reflection = 0
            without_reflection = 0
            for task in corpus.tasks:
                policy = ScriptedSemiAdaptivePolicy(corpus)
                tree = run_search(task, base_registry, policy, config, corpus.manual, corpus.demos)
                with_reflection += bool(tree.successful_leaves())
                tree = run_search(
                    task, base_registry, ScriptedSemiAdaptivePolicy(corpus),
                    replace(config, no_self_reflection=True),
                    corpus.manual, corpus.demos,
                )
                without_reflection += bool(tree.successful_leaves())
            assert with_reflection == len(corpus.tasks)
            assert without_reflection == 0

            mutated = mutate_registry(base_registry, MutationPlan(seed=11))
            no_update_cfg = replace(PAPER_DEFAULTS, no_tool_update=True)
            for task in corpus.tasks:
                policy = ScriptedAdaptivePolicy(corpus, emit_tool_updates=False)
                tree = run_search(task, mutated, policy, no_update_cfg, corpus.manual, corpus.demos)
                assert tree.successful_leaves(), task.id
                for record in collect_from_trees([tree], max_per_task=10**9):
                    assert all(step.action_name != "UpdateTool" for step in parse_target(record.target))
                assert all(tree.state(node.id).tool_manual == tree.manual for node in tree.nodes)


class TestCriterion6Mutation:
    def test_hundred_seeded_plans(self, base_registry):
        with criterion(6, "verify_mutation passes for 100 seeds; determinism and divergence hold"):
            serialized = []
            chars = re.escape("_-.")
            for seed in range(100):
                plan = MutationPlan(seed=seed)
                mutated = mutate_registry(base_registry, plan)
                verify_mutation(base_registry, mutated)  # raises MutationError on a behaviour drift
                for spec in mutated.apis.values():
                    for identifier in [spec.name] + spec.param_names():
                        for segment in re.split(f"[{chars}]", identifier):
                            assert re.fullmatch(r"[A-Z][A-Za-z0-9]*", segment), identifier
                        assert split_words(identifier)  # splittable back into words
                serialized.append(registry_to_json(mutated))
            assert registry_to_json(mutate_registry(base_registry, MutationPlan(seed=0))) == serialized[0]
            for a, b in zip(serialized, serialized[1:]):
                assert a != b


LOADDB_STEP = (
    "Thought: To answer this question, I should first load the database containing coffee "
    "price information. The database named 'coffee' seems to be the relevant one.\n"
    "Action: LoadDB\n"
    'Action Input: {"DBName": "coffee"}\n'
    "Observation: We have successfully loaded the coffee database, including the following "
    "columns: Date, Open, High, Low, Close, Volume, Currency."
)
UPDATE_TOOL_STEP = (
    "Thought: The Execute_Python_Script API works as intended, and we have successfully "
    "calculated the result. Now, we need to Finish the task using the calculated result. "
    "First, let's update the tool description for the new API.\n"
    "Action: UpdateTool\n"
    'Action Input: {"newtool_desc": "Execute_Python_Script[PythonCode], which is an updated '
    "version of PythonInterpreter and return the execution result according to the python "
    "code. For example, {'PythonCode': 'The Python code is as follows:\n"
    "percentage_change = ((float(189.35) - float(189.7)) / float(189.7)) * 100\n"
    "print(round(percentage_change, 2))'}.\"}\n"
    "Observation: The description for the new tool has been updated successfully."
)


class TestCriterion7FormatFidelity:
    def test_transcripts_and_sft_round_trip(self, corpus, mutated_registry, tmp_path):
        with criterion(7, "transcripts parse verbatim; SFT round-trips with base-manual inputs"):
            record = parse_action(LOADDB_STEP)
            assert record.action_name == "LoadDB"
            assert record.action_input == {"DBName": "coffee"}
            assert record.thought == (
                "To answer this question, I should first load the database containing coffee "
                "price information. The database named 'coffee' seems to be the relevant one."
            )
            assert record.observation == (
                "We have successfully loaded the coffee database, including the following "
                "columns: Date, Open, High, Low, Close, Volume, Currency."
            )
            update = parse_action(UPDATE_TOOL_STEP)
            assert update.action_name == "UpdateTool"
            assert "newtool_desc" in update.action_input
            assert "updated version of PythonInterpreter" in update.action_input["newtool_desc"]
            assert update.observation == "The description for the new tool has been updated successfully."

            tree = run_search(
                corpus.task("coffee-hard-4"), mutated_registry, ScriptedAdaptivePolicy(corpus),
                PAPER_DEFAULTS, corpus.manual, corpus.demos, tree_id="accept7",
            )
            records = collect_from_trees([tree], max_per_task=4, seed=0)
            assert records
            from tooldrift.trajectory import export_sft

            out = tmp_path / "sft.jsonl"
            export_sft(records, out)
            for record_doc, record in zip(load_sft(out), records):
                # The SFT text never carries the observation kind.
                path = tuple(replace(a, kind=None) for a in tree.actions(record.leaf_id))
                assert tuple(parse_target(record_doc["target"])) == path
                for entry in corpus.manual:
                    assert entry in record_doc["input"]
                assert "updated version of" not in record_doc["input"]


class TestCriterion8Reproducibility:
    def test_full_pipeline_byte_identical(self, tmp_path):
        with criterion(8, "mutate -> search -> export pipeline is byte-identical across runs"):
            manifest_text = (
                "[run]\ncorpus = builtin\nregistry = builtin\nsetting = mutated_in\n"
                "output_dir = {out}\n\n"
                "[mutation]\nseed = 11\nkinds = name_text, param_text, param_format\n\n"
                "[policy]\nkind = scripted_adaptive\n\n"
                "[search]\nmax_simulations = 20\ntrees_per_task = 1\nrng_seed = 7\n"
            )
            outputs = []
            for name in ("first", "second"):
                base = tmp_path / name
                base.mkdir()
                registry_path = base / "registry.json"
                assert main(["mutate", "--out", str(registry_path), "--seed", "11"]) == EXIT_OK
                manifest = base / "run.ini"
                manifest.write_text(manifest_text.format(out=base / "out"))
                assert main(["search", "--manifest", str(manifest)]) == EXIT_OK
                sft = base / "sft.jsonl"
                assert main(
                    ["export", "--trees", str(base / "out" / "trees"), "--out", str(sft), "--seed", "1"]
                ) == EXIT_OK
                tree_files = sorted((base / "out" / "trees").glob("*.json"))
                outputs.append(
                    (
                        registry_path.read_bytes(),
                        [p.name for p in tree_files],
                        b"".join(p.read_bytes() for p in tree_files),
                        sft.read_bytes(),
                    )
                )
            assert outputs[0] == outputs[1]
