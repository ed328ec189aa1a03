"""What each command loads, and the ``cli`` names callers patch.

``tooldrift.cli`` imports a module only when a command needs it, so each
command is run in a fresh interpreter here: an in-process run would see every
module the other tests loaded. The names ``cli`` binds lazily stay ``cli``
attributes, and a name patched before the command runs is the one it calls.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tooldrift.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

MANIFEST = """\
[run]
setting = mutated_in

[mutation]
seed = 7

[policy]
kind = scripted_adaptive

[search]
max_simulations = 2
trees_per_task = 1
"""

# Runs ``cli.main`` on its arguments, then prints its exit code and every module loaded.
RUN_AND_LIST_MODULES = """\
import json, sys
from tooldrift import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

PACKAGE = ("corpus", "mcts", "adapt", "mutation", "policy", "trajectory")
# Only a remote policy needs these: socket, logging, ssl for an https endpoint,
# and with ``--jobs`` above 1 concurrent.futures, which loads logging. Nothing
# imports requests or http.client, nor the email package that http.client
# parses headers with.
ELSEWHERE = ("concurrent.futures", "logging", "socket", "ssl", "email", "http.client", "requests")


def run_python(code: str, *args: str, cwd: Path) -> str:
    """The stdout of ``code`` run by a fresh interpreter with the package on its path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def searched(tmp_path_factory):
    """A directory holding the manifest above and the trees it searches."""
    root = tmp_path_factory.mktemp("searched")
    (root / "run.ini").write_text(MANIFEST, encoding="utf-8")
    assert main(["search", "--manifest", str(root / "run.ini"), "--output-dir", str(root / "out")]) == EXIT_OK
    return root


# (command line, modules it must load, modules it must not load)
COMMANDS = {
    "mutate": (
        ["mutate", "--seed", "7", "--out", "m.json"],
        {"corpus", "mutation"},
        {"mcts", "adapt", "policy", "trajectory", *ELSEWHERE},
    ),
    "export": (
        ["export", "--trees", "out/trees", "--out", "sft.jsonl"],
        {"mcts", "trajectory"},
        {"corpus", "mutation", "policy", *ELSEWHERE},
    ),
    "inspect": (
        ["inspect", "{first_tree}"],
        {"mcts"},
        {"corpus", "mutation", "policy", "trajectory", *ELSEWHERE},
    ),
    "search": (
        ["search", "--manifest", "run.ini", "--output-dir", "again", "--jobs", "1"],
        {"corpus", "mcts", "mutation", "policy"},
        {"trajectory", *ELSEWHERE},
    ),
    # A scripted policy searches in the calling thread whatever --jobs says.
    "search --jobs 2": (
        ["search", "--manifest", "run.ini", "--output-dir", "in-one-thread", "--jobs", "2"],
        {"corpus", "mcts", "mutation", "policy"},
        {"trajectory", *ELSEWHERE},
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(searched, command):
    argv, needed, unneeded = COMMANDS[command]
    first_tree = str(min((searched / "out" / "trees").iterdir()))
    argv = [arg.format(first_tree=first_tree) for arg in argv]
    code, modules = json.loads(run_python(RUN_AND_LIST_MODULES, *argv, cwd=searched).splitlines()[-1])
    assert code == EXIT_OK
    name = {module: f"tooldrift.{module}" if module in PACKAGE else module for module in needed | unneeded}
    loaded = {module for module in needed | unneeded if name[module] in modules}
    assert loaded & unneeded == set()
    assert loaded >= needed


# bench/spans.py wraps these ``cli`` names before the command runs.
SPANNED = (
    "load_corpus", "mutate_registry", "verify_mutation", "run_search",
    "tree_to_json", "tree_from_json", "collect_from_trees", "export_sft",
)

# Wraps each SPANNED name through getattr and setattr before anything is bound,
# runs a mutated search, mutate and export, then prints each wrapper's call count.
WRAP_AND_RUN = """\
import collections, json, sys
from tooldrift import cli
names = sys.argv[1:]
assert not set(names) & set(vars(cli)), "bound before any command ran"
calls = collections.Counter()

def counting(name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return wrapper

wrappers = {name: counting(name, getattr(cli, name)) for name in names}
for name, wrapper in wrappers.items():
    setattr(cli, name, wrapper)
assert cli.main(["search", "--manifest", "run.ini", "--output-dir", "wrapped"]) == 0
assert cli.main(["mutate", "--seed", "7", "--out", "wrapped.json"]) == 0
assert cli.main(["export", "--trees", "wrapped/trees", "--out", "wrapped.jsonl"]) == 0
assert all(getattr(cli, name) is wrapper for name, wrapper in wrappers.items())
print(json.dumps({name: calls[name] for name in names}))
"""


def test_spanned_names_are_the_ones_the_bench_wraps():
    text = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")
    assert set(re.findall(r'\(cli, "(\w+)"', text)) == set(SPANNED)


def test_names_wrapped_in_a_fresh_interpreter_reach_the_commands(searched):
    calls = json.loads(run_python(WRAP_AND_RUN, *SPANNED, cwd=searched).splitlines()[-1])
    assert {name for name, count in calls.items() if count == 0} == set()


# Patches ``cli.build_policy`` with mock.patch.object before anything is bound,
# searches through ``run_manifest`` and checks that the patch is undone.
PATCH_BUILD_POLICY = """\
import argparse, configparser, json
from unittest import mock
from tooldrift import cli, policy
assert "build_policy" not in vars(cli)
proposed = []

class Finishing:
    def propose(self, state, k):
        proposed.append(state.task.id)
        return ['Thought: done\\nAction: Finish\\nAction Input: {"answer": "x"}'] * k

parser = configparser.ConfigParser()
parser.read_string(open("run.ini", encoding="utf-8").read())
overrides = argparse.Namespace(setting=None, no_self_reflection=False, no_tool_update=False, jobs=1)
with mock.patch.object(cli, "build_policy", lambda config, corpus: Finishing()):
    trees, corpus, _ = cli.run_manifest(parser, overrides)
assert cli.build_policy is policy.build_policy
print(json.dumps([len(trees), sorted(set(proposed)), sorted(task.id for task in corpus.tasks)]))
"""


def test_a_build_policy_patched_before_binding_is_honoured_and_restored(searched):
    trees, proposed, tasks = json.loads(run_python(PATCH_BUILD_POLICY, cwd=searched).splitlines()[-1])
    assert trees == len(tasks) and proposed == tasks


# Proposes once through a RemotePolicy for the endpoint given, then prints the
# number of texts and which of the modules named after it were loaded.
PROPOSE_AND_LIST_MODULES = """\
import json, sys
from tooldrift.env import TaskInstance
from tooldrift.policy import PolicyConfig, RemotePolicy
from tooldrift.react import StateRecord
task = TaskInstance(id="t", description="What?", gold_answer="5", dataset="coffee", difficulty="easy")
policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=sys.argv[1]))
texts = policy.propose(StateRecord(task=task, tool_manual=()), 2)
policy.close()
print(json.dumps([len(texts), [name for name in sys.argv[2:] if name in sys.modules]]))
"""


def test_a_remote_policy_for_http_loads_neither_http_client_nor_ssl(completion_server, tmp_path):
    url, _ = completion_server
    out = run_python(PROPOSE_AND_LIST_MODULES, url, "http.client", "ssl", "email", cwd=tmp_path)
    assert json.loads(out.splitlines()[-1]) == [2, []]
