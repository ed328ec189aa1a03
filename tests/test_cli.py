from __future__ import annotations

import configparser
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tooldrift import cli
from tooldrift.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main
from tooldrift.corpus import load_corpus, tasks_to_json
from tooldrift.env import registry_to_json
from tooldrift.mcts import SearchConfig, run_search, tree_from_json, tree_to_json
from tooldrift.mutation import MutationPlan, mutate_registry
from tooldrift.policy import ScriptedAdaptivePolicy

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


MALFORMED_REGISTRIES = {
    "apis_not_a_list": '{"apis": {"a": 1}}',
    "params_not_a_list": '{"apis": [{"name": "LoadDB", "params": 5}]}',
    "not_an_object": "[]",
}


class TestMutateCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mutate", "--out", str(out1), "--seed", "11"]) == EXIT_OK
        assert main(["mutate", "--out", str(out2), "--seed", "11"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert "verify_mutation: ok" in capsys.readouterr().out

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
        manifest.write_text(f"[run]\nregistry = {registry}\n")
        assert main(["search", "--manifest", str(manifest)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: cannot parse registry") for line in err)

    def test_seed_flag_writes_the_default_plan(self, tmp_path, base_registry):
        plan = tmp_path / "plan.ini"
        plan.write_text("[mutation]\nseed = 3\n")
        by_seed, by_plan = tmp_path / "seed.json", tmp_path / "plan.json"
        assert main(["mutate", "--out", str(by_seed), "--seed", "5"]) == EXIT_OK
        assert main(["mutate", "--plan", str(plan), "--seed", "5", "--out", str(by_plan)]) == EXIT_OK
        expected = registry_to_json(mutate_registry(base_registry, MutationPlan(seed=5)))
        assert by_seed.read_text() == by_plan.read_text() == expected

    def test_plan_file(self, tmp_path):
        plan = tmp_path / "plan.ini"
        plan.write_text("[mutation]\nseed = 5\nkinds = name_special_char\nspecial_char = _\n")
        out = tmp_path / "m.json"
        assert main(["mutate", "--plan", str(plan), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["generation"] == "mutated-5"


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

    def test_jobs_parallelism_is_deterministic(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, sims=10)
        assert main(["search", "--manifest", manifest, "--jobs", "4"]) == EXIT_OK
        serial = serial_dir_mk(tmp_path, "serial")
        manifest2 = write_manifest(serial, sims=10)
        assert main(["search", "--manifest", manifest2, "--jobs", "1"]) == EXIT_OK
        capsys.readouterr()
        a = sorted((tmp_path / "out" / "trees").glob("*.json"))
        b = sorted((serial / "out" / "trees").glob("*.json"))
        assert [p.name for p in a] == [p.name for p in b]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))

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
            ("rng_seed = 7", "rng_seed = 7\ncache_rollouts = maybe", "cache_rollouts"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\ntemperature = hot", "temperature"),
            ("max_simulations = 5", "max_simulation = 2", "max_simulation"),
            ("[mutation]\nseed = 11", "[mutation]\nsed = 5", "sed"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nmax_inflight = 8", "max_inflight"),
            ("output_dir =", "outputdir =", "outputdir"),
            ("rng_seed = 7", "rng_seed = 7\nno_tool_update = true", "no_tool_update"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nemit_tool_updates = false", "emit_tool_updates"),
            ("[search]", "[serach]", "[serach]"),
            ("kind = scripted_adaptive", "kind = remote\nendpoint =", "endpoint"),
            ("kinds = name_text, param_text, param_format", "kinds =", "[mutation]"),
            ("c_puct = 1.25", "c_puct = nan", "c_puct"),
            ("c_puct = 1.25", "c_puct = inf", "c_puct"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\ntemperature = nan", "temperature"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nrequest_timeout = -5", "request_timeout"),
            ("kind = scripted_adaptive", "kind = scripted_adaptive\nrequest_timeout = inf", "request_timeout"),
        ],
        ids=[
            "seed_x",
            "k_five",
            "cache_rollouts_maybe",
            "temperature_hot",
            "max_simulation",
            "sed",
            "max_inflight",
            "outputdir",
            "flag_owned_no_tool_update",
            "flag_owned_emit_tool_updates",
            "unknown_section",
            "remote_without_endpoint",
            "empty_kinds",
            "c_puct_nan",
            "c_puct_inf",
            "temperature_nan",
            "request_timeout_negative",
            "request_timeout_inf",
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

    def test_empty_endpoint_under_scripted_kind_is_no_endpoint(self, tmp_path, capsys):
        text = manifest_text(tmp_path, sims=5).replace("kind = scripted_adaptive", "kind = scripted_adaptive\nendpoint =")
        manifest = tmp_path / "run.ini"
        manifest.write_text(text)
        assert main(["search", "--manifest", str(manifest)]) == EXIT_OK
        assert "100.0%" in capsys.readouterr().out

    @pytest.mark.parametrize("section", ["run", "search", "policy"])
    def test_absent_section_takes_defaults(self, tmp_path, capsys, section):
        parser = configparser.ConfigParser()
        parser.read_string(manifest_text(tmp_path, sims=5))
        parser.remove_section(section)
        manifest = tmp_path / "run.ini"
        with open(manifest, "w") as handle:
            parser.write(handle)
        out = tmp_path / "out"
        args = ["--manifest", str(manifest), "--output-dir", str(out), "--trees", "1", "--sims", "5"]
        assert main(["search", *args]) == EXIT_OK
        assert "100.0%" in capsys.readouterr().out
        assert len(list((out / "trees").glob("*.json"))) == 24

    def test_tree_that_breaks_an_invariant_exits_4_unwritten(self, tmp_path, capsys, monkeypatch):
        def broken_search(*args, **kwargs):
            tree = run_search(*args, **kwargs)
            tree.node(1).q_value = 7.5
            return tree

        monkeypatch.setattr(cli, "run_search", broken_search)
        manifest = write_manifest(tmp_path, sims=2)
        assert main(["search", "--manifest", manifest]) == EXIT_INVARIANT
        assert "Q=7.5" in capsys.readouterr().err
        assert not list((tmp_path / "out" / "trees").glob("*.json"))

    def test_unparseable_plan_is_config_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.ini"
        plan.write_text("seed = 5\n")
        assert main(["mutate", "--plan", str(plan), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert "cannot parse" in capsys.readouterr().err


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

    def test_missing_dir_is_io_error(self, tmp_path):
        assert main(["export", "--trees", str(tmp_path / "nope"), "--out", str(tmp_path / "x.jsonl")]) == EXIT_IO


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


@pytest.fixture(scope="module")
def small_tree_doc():
    corpus = load_corpus()
    tree = run_search(
        corpus.task("coffee-easy-1"), corpus.base_registry, ScriptedAdaptivePolicy(corpus),
        SearchConfig(max_simulations=5, rng_seed=3), corpus.manual, corpus.demos,
    )
    doc = json.loads(tree_to_json(tree))
    assert len(doc["nodes"]) > 3
    return doc


def _set_parent(node_id, parent):
    def edit(doc):
        doc["nodes"][node_id]["parent"] = parent
    return edit


def _v1(doc):
    doc["format_version"] = 1
    for i, node in enumerate(doc["nodes"]):
        node.update(id=i, depth=0, children=[j for j, n in enumerate(doc["nodes"]) if n["parent"] == i])


def _v2(doc):
    """The same tree as format_version 2 wrote it: each node holds its action."""
    doc["format_version"] = 2
    table = doc.pop("actions")
    for node in doc["nodes"][1:]:
        node["action"] = table[node["action"]]


MALFORMED_TREES = {
    "parent_out_of_range": _set_parent(1, 999),
    "parent_forward": _set_parent(1, 2),
    "parent_cycle": lambda doc: (_set_parent(1, 2)(doc), _set_parent(2, 1)(doc)),
    "root_with_parent": _set_parent(0, 0),
    "stale_children_list": lambda doc: doc["nodes"][1].update(children=[999]),
    "nodes_not_a_list": lambda doc: doc.update(nodes=5),
    "node_not_an_object": lambda doc: doc["nodes"].append(5),
    "no_nodes": lambda doc: doc.update(nodes=[]),
    "format_v1": _v1,
    "q_out_of_range": lambda doc: doc["nodes"][1].update(q_value=7.5),
    "terminal_without_reward": lambda doc: doc["nodes"][2].update(terminal=True, reward=None),
    "priors_do_not_sum": lambda doc: doc["nodes"][1].update(prior=0.9),
    "prior_nan": lambda doc: doc["nodes"][1].update(prior=float("nan")),
    "c_puct_infinite": lambda doc: doc["config"].update(c_puct=float("inf")),
    "c_puct_nan": lambda doc: doc["config"].update(c_puct=float("nan")),
    "action_index_out_of_range": lambda doc: doc["nodes"][1].update(action=len(doc["actions"])),
    "action_index_negative": lambda doc: doc["nodes"][1].update(action=-1),
    "action_index_true": lambda doc: doc["nodes"][1].update(action=True),
    "action_index_float": lambda doc: doc["nodes"][1].update(action=0.0),
    "action_entry_missing_key": lambda doc: doc["actions"][0].pop("kind"),
    "action_entry_extra_key": lambda doc: doc["actions"][0].update(extra=1),
    "actions_not_a_list": lambda doc: doc.update(actions={}),
    "action_entry_not_an_object": lambda doc: doc["actions"].__setitem__(0, 5),
    "format_v2": _v2,
}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestMalformedTrees:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TREES))
    def test_inspect_and_export_exit_4(self, tmp_path, capsys, small_tree_doc, case):
        doc = json.loads(json.dumps(small_tree_doc))
        MALFORMED_TREES[case](doc)
        trees = tmp_path / "trees"
        trees.mkdir()
        path = _write_json(trees / "t.json", doc)
        with pytest.raises(ValueError):
            tree_from_json(Path(path).read_text())
        assert main(["inspect", path]) == EXIT_INVARIANT
        assert main(["export", "--trees", str(trees), "--out", str(tmp_path / "sft.jsonl")]) == EXIT_INVARIANT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: corrupt tree file") for line in err)

    def test_unmodified_doc_inspects_clean(self, tmp_path, capsys, small_tree_doc):
        assert main(["inspect", _write_json(tmp_path / "t.json", small_tree_doc)]) == EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith("invariants: ok")


_ODD_VALUES = st.sampled_from([None, True, 0, -1, 7, 1.5, "x", [], {}, [0], {"a": 1}])


@given(data=st.data())
def test_perturbed_tree_inspects_to_0_or_4(small_tree_doc, data):
    """One field of a real tree changed: inspect succeeds or reports exit 4."""
    doc = json.loads(json.dumps(small_tree_doc))
    index = data.draw(st.integers(0, len(doc["nodes"]) - 1), label="node")
    node = doc["nodes"][index]
    entry = data.draw(st.sampled_from(doc["actions"]), label="action entry")
    target = data.draw(st.sampled_from([doc, doc["task"], doc["config"], node, entry]), label="object")
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    op = data.draw(st.sampled_from(["drop", "value", "forward_parent", "far_parent", "far_action"]), label="op")
    if op == "drop":
        del target[key]
    elif op == "value":
        target[key] = data.draw(_ODD_VALUES, label="value")
    elif op == "far_action":
        node["action"] = len(doc["actions"]) + data.draw(st.integers(0, 5), label="past the end")
    else:
        node["parent"] = index + 1 if op == "forward_parent" else len(doc["nodes"]) + 5
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
    containers = [doc, spec, *spec["params"], *doc["deprecated"].values()]
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
        argv = ["search", "--manifest", str(manifest), "--sims", "1", "--trees", "1", "--output-dir", str(tmp / "o")]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_INVARIANT)
