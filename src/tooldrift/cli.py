"""Batch front-end: mutate registries, run searches, export data, inspect trees.

Exit codes: 0 success, 2 configuration or parse problem, 3 I/O failure (a
closed stdout too), 4 invariant violation (a failed drift check, or a tree
that breaks an invariant when it is written or read). An input file that does
not decode (not UTF-8, or JSON nested past the recursion limit) exits 2; a
tree file, 4.

``mutate`` writes the registry of the default mutation plan, or of the
[mutation] section of a ``--plan`` file (the keys of the manifest's mutation
sections below); ``--seed`` overrides the plan's seed. It and a mutated search
setting build the registry through one path, before anything is written: a
plan that cannot be applied, or that deploys a name an Action line cannot
spell, exits 2; a drift that fails ``verify_mutation`` exits 4. A registry
file (``--base``, ``[run] registry``) loads as a drift of the builtin
registry and obeys its rules (``env.ToolRegistry``): each retired name is a
builtin API with one successor of the same arity, and every other API is a
builtin API with its param names. Since the base of a drift retires nothing,
a base file that retires APIs exits 2 from ``mutate --base`` and from a
mutated search, as does a file that renames a kept API's param.

A run manifest (``search --manifest``) is an INI file. Every section and key
is optional, and an absent key takes its default:

  [run]                         corpus, registry, setting, output_dir
  [mutation], [mutation_in],    seed, kinds (comma-separated), special_char,
  [mutation_ood]                synonyms (a JSON object of word -> words)
  [search]                      c_puct, max_depth, k, max_simulations,
                                trees_per_task, rng_seed
  [policy]                      kind, endpoint (an http or https URL),
                                temperature, request_timeout

Each key names a field of ``MutationPlan``, ``SearchConfig`` or
``PolicyConfig`` and is read by the type of its default; the config checks
its values when it is built. Any other section or key, or a bad value, exits
2. Only --no-self-reflection and --no-tool-update set the ablations.
``[search] k = 1, max_simulations = 1`` is greedy decoding, ablations included.

The setting picks the registry searched: consistent the base one; mutated_in
the plan of [mutation_in], else of [mutation]; mutated_ood the plan of
[mutation_ood], else of [mutation] with seed + 1. A mutated setting with
neither section exits 2, and every mutation section present is checked even
when the setting does not use it. A scripted policy needs a plan for every
task of the corpus; the first task without one exits 2.

``search`` draws each (task, tree index) run as it searches it and writes
each tree to ``<output_dir>/trees/<tree id>.json`` as it finishes, in run
order (task, then tree index). It keeps only each tree's task id and outcome
for the summary, so one tree at a time is held. A search runs in the calling
thread unless the policy is remote and ``--jobs`` is above 1: then ``--jobs``
threads overlap its requests, and the trees of at most two searches per job
are submitted ahead of the tree last written. Under the interpreter lock
threads never run two in-process searches at once, so ``--jobs`` has no effect
on a scripted policy. A tree that breaks an invariant exits 4 unwritten; the
trees written before it remain.

``export`` reads the tree files one at a time, in name order, and holds only
the reward-+1 paths of each; a corrupt file exits 4 before any SFT is written.
It creates the directory of ``--out`` if it is missing.

Each command imports only the modules it runs, since every interpreter start
pays for them: ``mutate`` loads ``corpus`` and ``mutation``; ``search`` those,
``mcts`` and ``policy``, and ``concurrent.futures`` only for a remote policy
with ``--jobs`` above 1; ``export`` loads ``mcts`` and ``trajectory``;
``inspect``, ``mcts``. The names cli uses from those modules (``_LAZY``) are
still ``cli`` attributes: reading one binds it, and a command binds what it
needs without replacing a name that a caller has already set, so a patched or
wrapped name is the one the command calls.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import closing, contextmanager
from dataclasses import MISSING, fields, replace
from itertools import islice
from pathlib import Path

from .env import ToolRegistry, registry_from_json, registry_to_json

# Each module cli loads only when a command runs it -> the names cli uses from it.
_LAZY = {
    "corpus": ("Corpus", "load_corpus", "tasks_from_json"),
    "mcts": ("SearchConfig", "SearchTree", "run_search", "tree_from_json", "tree_to_json"),
    "mutation": ("MutationError", "MutationPlan", "draw", "mutate_registry", "verify_mutation"),
    "policy": ("PolicyConfig", "UnknownTaskError", "build_policy"),
    "trajectory": ("collect_from_trees", "export_sft"),
}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind the names cli uses from them; a name that is
    already bound, a patched one included, is kept."""
    for module in modules:
        path = f"{__package__}.{module}"
        __import__(path)  # importlib.import_module would be missing from -X importtime
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(sys.modules[path], name))


def __getattr__(name: str):
    """A ``_LAZY`` name read before a command has bound it (PEP 562)."""
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

SETTINGS = ("consistent", "mutated_in", "mutated_ood")
RUN_KEYS = ("corpus", "registry", "setting", "output_dir")
MUTATION_SECTIONS = ("mutation", "mutation_in", "mutation_ood")


# A section value's reader, by the type of its field's default; any other field
# (a str, or the None endpoint) takes its text. Plain functions, not ConfigParser
# converters, so a parser that a caller builds itself reads the same.
_READERS = {
    int: int, float: float, dict: json.loads,
    frozenset: lambda text: frozenset(filter(None, map(str.strip, text.split(",")))),
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextmanager
def _exits(code: int, what: str, errors=(ValueError, RecursionError)):
    """Re-raise ``errors`` as the CliError "<what>: <error>" with exit ``code``.
    By default those are what a loader or config raises on bad outside input:
    a ValueError (a file that is not UTF-8 included), or the RecursionError of
    a JSON document nested deeper than the interpreter's recursion limit."""
    try:
        yield
    except errors as exc:
        raise CliError(f"{what}: {exc}", code) from exc


def _read_text(path: str) -> str:
    with _exits(EXIT_IO, f"cannot read {path}", OSError):
        return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` as it is: no newline is translated."""
    with _exits(EXIT_IO, f"cannot write {path}", OSError):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8", newline="")


def _load_registry(value: str, corpus: Corpus) -> ToolRegistry:
    if value == "builtin":
        return corpus.base_registry
    with _exits(EXIT_CONFIG, f"cannot parse registry {value}"):
        return registry_from_json(_read_text(value), corpus.base_registry)


def _load_corpus(value: str) -> Corpus:
    corpus = load_corpus()
    if value != "builtin":
        with _exits(EXIT_CONFIG, f"cannot parse corpus {value}"):
            corpus.tasks = tasks_from_json(_read_text(value))
    return corpus


def _read_config(path: str) -> configparser.ConfigParser:
    """The INI file, its values taken as written: a ``%`` is not interpolated."""
    parser = configparser.ConfigParser(interpolation=None)
    with _exits(EXIT_CONFIG, f"cannot parse {path}", (configparser.Error, ValueError)):
        parser.read_string(_read_text(path))
    return parser


def _section(parser: configparser.ConfigParser, name: str, keys) -> configparser.SectionProxy:
    """The named section; an absent one is added empty, so every key takes its
    default. A key outside ``keys`` is a config error."""
    if name not in parser:
        parser.add_section(name)
    unknown = sorted(set(parser[name]) - set(keys))
    if unknown:
        raise CliError(f"unknown key {unknown[0]!r} in [{name}]", EXIT_CONFIG)
    return parser[name]


def _config(parser: configparser.ConfigParser, name: str, cls, **owned):
    """A ``cls`` dataclass from the named section, which ``cls`` checks when it
    is built. Every field outside ``owned`` is set by the key of its name, read
    by the type of its default, so each default is written once, in ``cls``;
    ``owned`` holds the fields that command-line flags set."""
    defaults = {f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(cls)}
    section = _section(parser, name, defaults.keys() - owned.keys())
    values = dict(owned)
    for key in section:
        with _exits(EXIT_CONFIG, f"bad [{name}] {key}"):
            values[key] = _READERS.get(type(defaults[key]), str)(section[key])
    with _exits(EXIT_CONFIG, f"bad [{name}] section"):
        return cls(**values)


def _plan_from_args(args) -> MutationPlan:
    """The plan of ``--plan``'s [mutation] section, or the default plan; ``--seed``
    overrides its seed."""
    parser = _read_config(args.plan) if args.plan else configparser.ConfigParser()
    if args.plan and "mutation" not in parser:
        raise CliError(f"{args.plan} has no [mutation] section", EXIT_CONFIG)
    plan = _config(parser, "mutation", MutationPlan)
    return plan if args.seed is None else replace(plan, seed=args.seed)


def _mutated(base: ToolRegistry, plan: MutationPlan) -> ToolRegistry:
    """The registry ``plan`` derives from ``base``, once it has passed the drift
    check: a plan that cannot be applied exits 2, a drifted API that answers
    the probe unlike its base API exits 4."""
    with _exits(EXIT_CONFIG, "mutation failed"):
        mutated = mutate_registry(base, plan)
    with _exits(EXIT_INVARIANT, "drift check failed", MutationError):
        verify_mutation(mutated)
    return mutated


def cmd_mutate(args) -> int:
    _bind("corpus", "mutation")
    corpus = _load_corpus("builtin")
    base = _load_registry(args.base, corpus)
    mutated = _mutated(base, _plan_from_args(args))
    _write_text(args.out, registry_to_json(mutated))
    print(f"wrote {args.out} (generation {mutated.generation})")
    return EXIT_OK


def _registry_for_setting(setting: str, parser: configparser.ConfigParser, base: ToolRegistry):
    plans = {name: _config(parser, name, MutationPlan) for name in MUTATION_SECTIONS if name in parser}
    if setting == "consistent":
        return base
    section_name = {"mutated_in": "mutation_in", "mutated_ood": "mutation_ood"}[setting]
    if section_name in plans:
        plan = plans[section_name]
    elif "mutation" in plans:
        plan = plans["mutation"]
        if setting == "mutated_ood":
            plan = replace(plan, seed=plan.seed + 1)
    else:
        raise CliError(f"setting {setting} requires a [mutation] section", EXIT_CONFIG)
    return _mutated(base, plan)


def search_manifest(parser: configparser.ConfigParser, overrides) -> tuple[Iterator[SearchTree], Corpus, str]:
    """Check the manifest and the overrides, then return an iterator that runs
    each search as it is drawn and yields the trees in run order (task, then
    tree index), with the corpus and the setting. A bad manifest raises
    CliError before any search runs. The searches run in the calling thread,
    unless the policy is remote and ``--jobs`` is above 1: a remote policy
    waits on the network, so its searches run in a thread pool, at most two
    per job submitted ahead of the tree last yielded; closing the iterator
    cancels those not yet started."""
    _bind("corpus", "mcts", "mutation", "policy")
    if overrides.jobs < 1:
        raise CliError(f"--jobs must be a positive integer, not {overrides.jobs}", EXIT_CONFIG)
    unknown = sorted(set(parser.sections()) - {"run", "search", "policy", *MUTATION_SECTIONS})
    if unknown:
        raise CliError(f"unknown section [{unknown[0]}]", EXIT_CONFIG)
    run = _section(parser, "run", RUN_KEYS)
    corpus = _load_corpus(run.get("corpus", "builtin"))
    base = _load_registry(run.get("registry", "builtin"), corpus)
    setting = overrides.setting or run.get("setting", "consistent")
    if setting not in SETTINGS:
        raise CliError(f"unknown setting {setting!r}", EXIT_CONFIG)
    registry = _registry_for_setting(setting, parser, base)

    search_cfg = _config(parser, "search", SearchConfig, no_self_reflection=overrides.no_self_reflection,
                         no_tool_update=overrides.no_tool_update)
    policy_cfg = _config(parser, "policy", PolicyConfig, emit_tool_updates=not overrides.no_tool_update)
    with _exits(EXIT_CONFIG, f"[policy] kind {policy_cfg.kind}", UnknownTaskError):
        policy = build_policy(policy_cfg, corpus)

    def one(run_spec):
        task, index = run_spec
        config = replace(search_cfg, rng_seed=draw(search_cfg.rng_seed, task.id, str(index)))
        return run_search(
            task,
            registry,
            policy,
            config,
            manual=corpus.manual,
            demos=corpus.demos,
            tree_id=f"{task.id}__t{index}",
        )

    def trees():
        runs = ((task, index) for task in corpus.tasks for index in range(search_cfg.trees_per_task))
        if policy_cfg.kind != "remote" or overrides.jobs == 1:
            yield from map(one, runs)
            return
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=overrides.jobs)
        try:
            pending = deque(pool.submit(one, run) for run in islice(runs, 2 * overrides.jobs))
            while pending:
                tree = pending.popleft().result()
                pending.extend(pool.submit(one, run) for run in islice(runs, 1))
                yield tree
        finally:
            pool.shutdown(cancel_futures=True)

    return trees(), corpus, setting


def run_manifest(parser: configparser.ConfigParser, overrides) -> tuple[list[SearchTree], Corpus, str]:
    """``search_manifest`` with every tree held, sorted by tree id."""
    trees, corpus, setting = search_manifest(parser, overrides)
    return sorted(trees, key=lambda t: t.tree_id), corpus, setting


def summarize(outcomes: Iterable[tuple[str, bool]], corpus: Corpus, setting: str) -> list[dict]:
    """Per (dataset, difficulty) success rates from one (task id, solved) pair
    per tree; a task counts as solved when any of its trees holds a reward-+1
    terminal node."""
    solved: dict[str, bool] = {}
    for task_id, won in outcomes:
        solved[task_id] = solved.get(task_id, False) or won
    groups: dict[tuple[str, str], list[str]] = {}
    for task in corpus.tasks:
        groups.setdefault((task.dataset, task.difficulty), []).append(task.id)
    rows = []
    for (dataset, difficulty) in sorted(groups):
        ids = [tid for tid in groups[(dataset, difficulty)] if tid in solved]
        if not ids:
            continue
        n_solved = sum(1 for tid in ids if solved[tid])
        rows.append(
            {
                "setting": setting,
                "dataset": dataset,
                "difficulty": difficulty,
                "tasks": len(ids),
                "solved": n_solved,
                "success_rate": 100.0 * n_solved / len(ids),
            }
        )
    return rows


def print_summary(rows: list[dict]) -> None:
    header = f"{'setting':<12} {'dataset':<10} {'difficulty':<10} {'tasks':>5} {'solved':>6} {'success':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['setting']:<12} {row['dataset']:<10} {row['difficulty']:<10} "
            f"{row['tasks']:>5} {row['solved']:>6} {row['success_rate']:>7.1f}%"
        )


def cmd_search(args) -> int:
    parser = _read_config(args.manifest)
    trees, corpus, setting = search_manifest(parser, args)
    out_dir = args.output_dir or parser["run"].get("output_dir", "out")
    tree_dir = Path(out_dir) / "trees"
    outcomes = []
    with closing(trees):
        for tree in trees:
            with _exits(EXIT_INVARIANT, f"tree {tree.tree_id}"):
                text = tree_to_json(tree)
            _write_text(str(tree_dir / f"{tree.tree_id}.json"), text)
            outcomes.append((tree.task.id, bool(tree.successful_leaves())))
    rows = summarize(outcomes, corpus, setting)
    print_summary(rows)
    if args.csv:
        import csv

        table = io.StringIO()
        writer = csv.DictWriter(
            table, fieldnames=["setting", "dataset", "difficulty", "tasks", "solved", "success_rate"]
        )
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.csv, table.getvalue())
    print(f"wrote {len(outcomes)} trees to {tree_dir}")
    return EXIT_OK


def _load_tree(path) -> SearchTree:
    _bind("mcts")
    with _exits(EXIT_INVARIANT, f"corrupt tree file {path}"):
        return tree_from_json(_read_text(str(path)))


def cmd_export(args) -> int:
    if args.max_per_task < 0:
        raise CliError(f"--max-per-task must be >= 0, not {args.max_per_task}", EXIT_CONFIG)
    tree_dir = Path(args.trees)
    if not tree_dir.is_dir():
        raise CliError(f"not a directory: {tree_dir}", EXIT_IO)
    _bind("trajectory")
    trees = map(_load_tree, sorted(tree_dir.glob("*.json")))
    records = collect_from_trees(trees, max_per_task=args.max_per_task, seed=args.seed)
    with _exits(EXIT_IO, f"cannot write {args.out}", OSError):
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        count = export_sft(records, args.out)
    print(f"exported {count} records to {args.out}")
    return EXIT_OK


def _node_label(node) -> str:
    """One line of the outline for a row of ``SearchTree.nodes``."""
    action, reward = node.action, node.reward
    label = "root" if action is None else action.action_name
    flags = []
    if node.cached:
        flags.append("[cached]")
    if reward is not None:
        flags.append(f"[terminal r={reward:+d}]")
    kind = action.kind if action is not None else None
    if kind is not None and kind.endswith("_error"):
        flags.append(f"[{kind}]")
    if node.failure is not None:
        flags.append("[policy_error]")
    suffix = " " + " ".join(flags) if flags else ""
    return f"[{node.id}] {label} N={node.visit_count} Q={node.q_value:+.3f} P={node.prior:.2f} d={node.depth}{suffix}"


def cmd_inspect(args) -> int:
    tree = _load_tree(args.tree)
    print(f"tree {tree.tree_id} task={tree.task.id} generation={tree.registry_generation} "
          f"simulations={tree.visit_count[0]} policy_calls={tree.stats['policy_calls']}")

    nodes = tree.nodes
    stack = [(nodes[tree.root_id], 0)]
    while stack:
        node, indent = stack.pop()
        print("  " * indent + _node_label(node))
        stack.extend((nodes[child], indent + 1) for child in reversed(node.children))
    # tree_from_json has checked the invariants.
    print("invariants: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tooldrift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mutate = sub.add_parser("mutate", help="derive a drifted registry generation")
    p_mutate.add_argument("--base", default="builtin", help="base registry JSON or 'builtin'")
    p_mutate.add_argument("--out", required=True, help="output registry JSON path")
    p_mutate.add_argument("--seed", type=int, default=None, help="mutation seed; overrides the plan's")
    p_mutate.add_argument(
        "--plan",
        default=None,
        help="INI file with a [mutation] section (seed, kinds, special_char, synonyms); absent keys take defaults",
    )
    p_mutate.set_defaults(func=cmd_mutate)

    p_search = sub.add_parser("search", help="run tree searches over a task corpus")
    p_search.add_argument("--manifest", required=True, help="INI run manifest")
    p_search.add_argument("--setting", choices=SETTINGS, default=None)
    p_search.add_argument("--output-dir", dest="output_dir", default=None)
    p_search.add_argument("--csv", default=None, help="also write the summary as CSV")
    p_search.add_argument(
        "--jobs", type=int, default=1,
        help="remote policy: searches in flight, one thread each; a scripted policy searches in the calling thread",
    )
    p_search.add_argument("--no-tool-update", dest="no_tool_update", action="store_true")
    p_search.add_argument("--no-self-reflection", dest="no_self_reflection", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_export = sub.add_parser("export", help="export successful trajectories as SFT records")
    p_export.add_argument("--trees", required=True, help="directory of tree JSON files")
    p_export.add_argument("--out", required=True, help="output JSONL path")
    p_export.add_argument("--max-per-task", dest="max_per_task", type=int, default=4)
    p_export.add_argument("--seed", type=int, default=0)
    p_export.set_defaults(func=cmd_export)

    p_inspect = sub.add_parser("inspect", help="print a tree as an indented outline")
    p_inspect.add_argument("tree", help="tree JSON file")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader of stdout has gone; the flush at exit writes to nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
