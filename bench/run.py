"""End-to-end benchmark of the tooldrift pipeline: mutate -> search -> export.

Every step runs the real CLI as a subprocess with ``PYTHONPATH=src``:

    python3 bench/run.py --workload adaptive_drift --seed 7 --seconds 20 --trace 0

The seed drives the inputs: it is the ``[mutation]`` seed, the search
``rng_seed`` and the export sampling seed. Untraced runs (``--trace 0``)
report the end-to-end metrics named in BENCHMARK.json; a traced run
(``--trace 1``) also repeats one pipeline under ``bench/traced_cli.py`` and
reports the per-layer metrics instead. Both record the ablation success
table once, outside the timed loop, and check every output. Human-readable
lines come first; the last line of standard output is the JSON result.
Everything is written under ``.bench_work/`` in the current directory.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import LayerStats, percentile  # noqa: E402

SETUP_REPS = 5
MIN_ITERATIONS = 3
INSPECTED_TREES = 3
# One tree per task keeps a pipeline to a few seconds, so a run times
# several and reports medians.
TREES_PER_TASK = 1
NPROC = len(os.sched_getaffinity(0))
ABLATIONS = ("full", "no-self-reflection", "no-tool-update")
SETTINGS = ("consistent", "mutated_in", "mutated_ood")


@dataclass(frozen=True)
class Workload:
    setting: str
    policy: str
    jobs: int
    # Tasks that must end solved: True for all, False for none, None for the
    # outcome of the same search run in process with the stub's oracle.
    solved: bool | None


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "adaptive_drift": Workload("mutated_in", "scripted_adaptive", NPROC, True),
    "rigid_ood": Workload("mutated_ood", "scripted_rigid", 1, False),
    "remote_loopback": Workload("mutated_in", "remote", NPROC, None),
}

MANIFEST = """\
[run]
corpus = builtin
registry = builtin
setting = {setting}

[mutation]
seed = {seed}
kinds = name_text, param_text, param_format
special_char = _

[policy]
kind = {policy}
{endpoint}
[search]
c_puct = 1.25
max_depth = 15
k = 5
max_simulations = 30
trees_per_task = {trees}
rng_seed = {seed}
"""


class StepFailed(Exception):
    """A CLI command or a check failed; the run cannot go on."""


@dataclass
class CliRun:
    wall_s: float
    peak_rss_mb: float
    output: str


class Ledger:
    """Operations and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.problems)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_success(csv_path: Path) -> tuple[int, int]:
    """(solved, tasks) summed over the rows of ``search --csv``."""
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return sum(int(r["solved"]) for r in rows), sum(int(r["tasks"]) for r in rows)


def tree_outcomes(tree_dir: Path) -> tuple[dict[str, bool], set[str], int]:
    """Per task, whether any tree holds a reward-+1 leaf; the registry
    generations searched; and the nodes that record a policy transport failure."""
    from tooldrift.mcts import tree_from_json

    solved: dict[str, bool] = {}
    generations: set[str] = set()
    transport_failures = 0
    for path in sorted(tree_dir.glob("*.json")):
        tree = tree_from_json(path.read_text(encoding="utf-8"))
        task = tree.task.id
        solved[task] = solved.get(task, False) or bool(tree.successful_leaves())
        generations.add(tree.registry_generation)
        transport_failures += sum(
            1 for n in tree.nodes if (n.failure or "").startswith("remote policy failed")
        )
    return solved, generations, transport_failures


class Bench:
    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".bench_work" / name
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.ledger = Ledger()
        self.stub: subprocess.Popen | None = None
        self.endpoint: str | None = None
        self.notes: list[str] = []

    # -- processes ---------------------------------------------------------

    def cli(self, args: list, log: Path, spans: Path | None = None) -> CliRun:
        """Run one CLI command to completion; rusage comes from wait4."""
        args = [str(a) for a in args]
        if spans is None:
            cmd = [sys.executable, "-m", "tooldrift.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        output = log.read_text(encoding="utf-8", errors="replace")
        if not self.ledger.check(code == 0, f"{args[0]} exited {code}"):
            raise StepFailed(f"tooldrift {' '.join(args)} exited {code}:\n{output[-2000:]}")
        return CliRun(wall, usage.ru_maxrss / 1024, output)

    def start_stub(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
        )
        line = self.stub.stdout.readline()
        if not self.ledger.check(line.strip().isdigit(), "stub server did not start"):
            raise StepFailed("stub server did not start")
        self.endpoint = f"http://127.0.0.1:{int(line)}/"

    def close(self) -> None:
        if self.stub is None:
            return
        self.stub.stdin.close()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()
        self.stub = None

    # -- inputs ------------------------------------------------------------

    def manifest(self, path: Path, policy: str, setting: str) -> Path:
        endpoint = f"endpoint = {self.endpoint}\n" if policy == "remote" else ""
        path.write_text(
            MANIFEST.format(
                setting=setting, seed=self.seed, policy=policy, endpoint=endpoint, trees=TREES_PER_TASK
            ),
            encoding="utf-8",
        )
        return path

    @property
    def registry_seed(self) -> int:
        # Without a [mutation_ood] section, search derives OOD from seed + 1.
        return self.seed + 1 if self.workload.setting == "mutated_ood" else self.seed

    # -- the pipeline --------------------------------------------------------

    def pipeline(self, out: Path, traced: bool = False) -> dict:
        """mutate -> search -> export into ``out``; returns timings and digests."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

        def spans(cmd):
            return out / f"spans-{cmd}.json" if traced else None

        mutate = self.cli(
            ["mutate", "--out", out / "registry.json", f"--seed={self.registry_seed}"],
            out / "mutate.log",
            spans("mutate"),
        )
        search = self.cli(
            ["search", "--manifest", self.work / "run.ini", "--output-dir", out,
             "--csv", out / "summary.csv", "--jobs", self.workload.jobs],
            out / "search.log",
            spans("search"),
        )
        trees = sorted((out / "trees").glob("*.json"))
        export = self.cli(
            ["export", "--trees", out / "trees", "--out", out / "sft.jsonl", f"--seed={self.seed}"],
            out / "export.log",
            spans("export"),
        )
        return {
            "mutate": mutate,
            "search": search,
            "export": export,
            "trees": len(trees),
            "tree_digest": digest(trees),
            "tree_bytes": sum(p.stat().st_size for p in trees),
            "sft_digest": digest([out / "sft.jsonl"]),
            "pipeline_s": mutate.wall_s + search.wall_s + export.wall_s,
        }

    def setup_times(self) -> list[float]:
        out = self.work / "setup"
        out.mkdir(parents=True, exist_ok=True)
        return [
            self.cli(["mutate", "--out", out / "registry.json", f"--seed={self.registry_seed}"],
                     out / "mutate.log").wall_s
            for _ in range(SETUP_REPS)
        ]

    # -- checks --------------------------------------------------------------

    def ablation_table(self) -> dict[tuple[str, str], tuple[int, int]]:
        """scripted_semi_adaptive over settings x {full, two ablations}."""
        out = self.work / "ablation"
        out.mkdir(parents=True, exist_ok=True)
        manifest = self.manifest(out / "ablation.ini", "scripted_semi_adaptive", "consistent")

        def one(cell):
            setting, ablation = cell
            cell_dir = out / f"{setting}-{ablation}"
            flags = [] if ablation == "full" else [f"--{ablation}"]
            self.cli(
                ["search", "--manifest", manifest, "--setting", setting, "--output-dir", cell_dir,
                 "--csv", cell_dir / "summary.csv", *flags],
                out / f"{setting}-{ablation}.log",
            )
            return read_success(cell_dir / "summary.csv")

        cells = [(s, a) for s in SETTINGS for a in ABLATIONS]
        with ThreadPoolExecutor(max_workers=NPROC) as pool:
            results = list(pool.map(one, cells))
        table = dict(zip(cells, results))
        for (setting, ablation), (solved, tasks) in table.items():
            expected = 0 if (setting, ablation) == ("consistent", "no-self-reflection") else tasks
            self.ledger.check(
                solved == expected,
                f"ablation {setting} {ablation}: solved {solved}/{tasks}, expected {expected}",
            )
        shutil.rmtree(out)
        return table

    def reference_outcomes(self, out: Path) -> dict[str, bool]:
        """Search once in this process with the stub's oracle called directly,
        and check that the CLI's trees over HTTP are byte-identical to it."""
        from stub_server import Oracle
        from tooldrift import cli
        from tooldrift.corpus import load_corpus
        from tooldrift.react import render_prompt

        oracle = Oracle(load_corpus())

        class DirectPolicy:
            def propose(self, state, k):
                return oracle.choices(render_prompt(state), k)

        parser = configparser.ConfigParser()
        parser.read_string((self.work / "run.ini").read_text(encoding="utf-8"))
        overrides = argparse.Namespace(
            setting=None, sims=None, trees=None, no_self_reflection=False, no_tool_update=False, jobs=1
        )
        with mock.patch.object(cli, "build_policy", lambda config, corpus: DirectPolicy()):
            trees, _, _ = cli.run_manifest(parser, overrides)
        same = all(
            (out / "trees" / f"{t.tree_id}.json").read_text(encoding="utf-8") == cli.tree_to_json(t)
            for t in trees
        )
        self.ledger.check(same, "trees over HTTP differ from the in-process oracle search")
        outcomes: dict[str, bool] = {}
        for t in trees:
            outcomes[t.task.id] = outcomes.get(t.task.id, False) or bool(t.successful_leaves())
        return outcomes

    def check_outputs(self, runs: list[dict], out: Path) -> tuple[float, float]:
        """Checks on the last pipeline's outputs; returns (success %, outcome match %)."""
        check = self.ledger.check
        first = runs[0]
        for key in ("tree_digest", "sft_digest"):
            check(all(r[key] == first[key] for r in runs), f"{key} differs between runs of one seed")

        generation = json.loads((out / "registry.json").read_text(encoding="utf-8"))["generation"]
        check(generation == f"mutated-{self.registry_seed}", f"mutate wrote generation {generation}")
        solved, generations, transport_failures = tree_outcomes(out / "trees")
        check(generations == {generation}, f"trees searched on {sorted(generations)}, mutate wrote {generation}")
        check(transport_failures == 0, f"{transport_failures} policy transport failures")

        trees = sorted((out / "trees").glob("*.json"))
        by_size = sorted(trees, key=lambda p: (-p.stat().st_size, p.name))
        picks = {by_size[0]} | {trees[(self.seed + i) % len(trees)] for i in range(INSPECTED_TREES - 1)}
        for path in sorted(picks):
            run = self.cli(["inspect", path], self.work / "inspect.log")
            check(run.output.rstrip().endswith("invariants: ok"), f"inspect {path.name}: invariants not ok")

        from tooldrift.trajectory import load_sft, parse_target, render_target

        records = load_sft(out / "sft.jsonl")
        for record in records:
            check(render_target(tuple(parse_target(record["target"]))) == record["target"],
                  f"SFT record {record['tree_id']}/{record['leaf_id']} does not round-trip")

        csv_solved, tasks = read_success(out / "summary.csv")
        check(csv_solved == sum(solved.values()) and tasks == len(solved), "summary CSV disagrees with trees")
        if self.workload.solved is None:
            expected = self.reference_outcomes(out)
        else:
            expected = {task: self.workload.solved for task in solved}
        matches = sum(1 for task, won in solved.items() if expected.get(task) == won)
        check(matches == len(solved), f"{len(solved) - matches} task outcomes differ from the expected table")
        check((len(records) > 0) == any(solved.values()), "export record count disagrees with outcomes")
        return 100.0 * csv_solved / tasks, 100.0 * matches / len(solved)

    # -- metrics -------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        sys.path.insert(0, str(self.root / "src"))
        w = self.workload
        if w.policy == "remote":
            self.start_stub()
        self.manifest(self.work / "run.ini", w.policy, w.setting)

        phases = {}
        clock = time.perf_counter()

        def lap(name):
            nonlocal clock
            now = time.perf_counter()
            phases[name] = now - clock
            clock = now

        setup = self.setup_times()
        lap("setup")
        ablation = self.ablation_table()
        lap("ablation")
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_ITERATIONS or time.perf_counter() < deadline:
            runs.append(self.pipeline(self.work / "run"))
        lap("timed")
        success_pct, match_pct = self.check_outputs(runs, self.work / "run")
        lap("checks")

        report = {
            "runs": runs,
            "setup": setup,
            "ablation": ablation,
            "success_pct": success_pct,
            "phases": phases,
        }
        if trace:
            traced = self.pipeline(self.work / "traced", traced=True)
            self.ledger.check(traced["tree_digest"] == runs[0]["tree_digest"], "tracing changed the trees")
            self.ledger.check(traced["sft_digest"] == runs[0]["sft_digest"], "tracing changed the SFT")
            report["metrics"] = self.layer_metrics(traced, runs)
            lap("traced")
        else:
            n = runs[0]["trees"]
            report["metrics"] = {
                "setup_s": median(setup + [r["mutate"].wall_s for r in runs]),
                "pipeline_s": median(r["pipeline_s"] for r in runs),
                "search_trees_per_s": median(n / r["search"].wall_s for r in runs),
                "peak_rss_mb": median(r["search"].peak_rss_mb for r in runs),
                "tree_bytes_per_tree": runs[0]["tree_bytes"] / n,
                "outcome_match_pct": match_pct,
            }
        return report

    def layer_metrics(self, traced: dict, runs: list[dict]) -> dict:
        """Per-layer numbers from the traced pipeline; export throughput and
        the tracing overhead come from comparing it with the untraced runs."""
        untraced_pipeline_s = median(r["pipeline_s"] for r in runs)
        stats = LayerStats()
        out = self.work / "traced"
        covered = {
            cmd: stats.add(json.loads((out / f"spans-{cmd}.json").read_text(encoding="utf-8")))
            for cmd in ("mutate", "search", "export")
        }
        calls, self_s, counts = stats.calls, stats.self_s, stats.counts
        p50, samples = percentile(stats.durations["policy.propose"], 50)
        p99, _ = percentile(stats.durations["policy.propose"], 99)
        self.notes.append(
            f"traced pipeline {traced['pipeline_s']:.3f} s against {untraced_pipeline_s:.3f} s untraced; "
            f"policy.propose percentiles over {samples} samples"
        )
        metrics = {
            "policy.propose.calls": calls["policy.propose"],
            "policy.propose.self_s": self_s["policy.propose"],
            "policy.propose.p50_ms": 1000 * p50,
            "policy.propose.p99_ms": 1000 * p99,
            "policy.distinct_candidates_ratio":
                counts["policy.propose.distinct_candidates"] / counts["policy.propose.candidates"],
            "policy.http_posts": calls["policy.http_post"],
            "react.parse_action.errors": counts["react.parse_action.errors"],
            "react.render_prompt.bytes": counts["react.render_prompt.bytes"],
            "env.invoke.deprecation_errors": counts["env.invoke.deprecation_errors"],
            "env.invoke.invocation_errors": counts["env.invoke.invocation_errors"],
            "mcts.nodes": counts["mcts.nodes"],
            "mcts.tree_to_json.bytes": counts["mcts.tree_to_json.bytes"],
            "trajectory.records": counts["trajectory.records"],
            "cli.residual_s": traced["search"].wall_s - covered["search"],
            "cli.export_trees_per_s": median(r["trees"] / r["export"].wall_s for r in runs),
            "trace.overhead_ratio": traced["pipeline_s"] / untraced_pipeline_s,
        }
        for name in ("react.parse_action", "react.render_prompt", "adapt.execute_action", "env.invoke"):
            metrics[f"{name}.calls"] = calls[name]
        for name in (
            "react.parse_action", "react.render_prompt", "adapt.execute_action",
            "adapt.reflection_gate", "env.invoke", "policy.http_post", "mcts.run_search", "mcts.select_leaf",
            "mcts.expand", "mcts.simulate_cached", "mcts.backpropagate", "mcts.tree_to_json",
            "mcts.tree_from_json", "trajectory.collect_from_trees", "trajectory.export_sft",
            "mutation.mutate_registry", "mutation.verify_mutation", "corpus.load_corpus",
        ):
            metrics[f"{name}.self_s"] = self_s[name]
        return metrics


def metric_specs(root: Path, trace: bool) -> list[dict]:
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["per_layer"] if trace else doc["end_to_end"]


def print_report(bench: Bench, report: dict, specs: list[dict], seconds: float, trace: bool) -> None:
    runs, ledger = report["runs"], bench.ledger
    w = bench.workload
    print(f"workload {bench.name}: seed {bench.seed}, setting {w.setting}, policy {w.policy}, jobs {w.jobs}")
    print(f"  {len(runs)} pipelines of {runs[0]['trees']} trees in a {seconds:g} s budget; "
          f"{len(report['setup'])} set-ups; {NPROC} CPUs")
    print("  phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in report["phases"].items()))
    print("  set-up walls: " + " ".join(f"{s:.3f}" for s in report["setup"]) + " s")
    for i, r in enumerate(runs):
        print(f"  pipeline {i}: mutate {r['mutate'].wall_s:.3f} s, search {r['search'].wall_s:.3f} s "
              f"({r['search'].peak_rss_mb:.1f} MB), export {r['export'].wall_s:.3f} s")
    print(f"  ablation success table (scripted_semi_adaptive, {TREES_PER_TASK} tree per task):")
    for (setting, ablation), (solved, tasks) in report["ablation"].items():
        print(f"    {setting:<12} {ablation:<19} {solved:>3}/{tasks}")
    for note in bench.notes:
        print(f"  {note}")
    print(f"  success_pct {report['success_pct']:.1f} %")
    print(f"  error_rate {ledger.failed / ledger.attempted:.4f} ({ledger.failed}/{ledger.attempted})")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    print(f"  {'traced per-layer' if trace else 'end-to-end'} metrics:")
    for spec in specs:
        value = report["metrics"][spec["name"]]
        print(f"    {spec['name']:<36} {value:>14.6g} {spec['unit']:<6} ({spec['better']} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tooldrift" / "cli.py").is_file():
        print(f"error: no src/tooldrift under {root}; run from the repository root", file=sys.stderr)
        return 2
    specs = metric_specs(root, bool(args.trace))
    bench = Bench(root, args.workload, args.seed)
    try:
        report = bench.run(args.seconds, bool(args.trace))
        error = None
    except StepFailed as exc:
        report, error = None, str(exc)
    finally:
        bench.close()

    ledger = bench.ledger
    metrics = {}
    if report is not None:
        if not args.trace:
            report["metrics"]["checks_ok_pct"] = 100.0 * (ledger.attempted - ledger.failed) / ledger.attempted
        missing = {s["name"] for s in specs} - set(report["metrics"])
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        print_report(bench, report, specs, args.seconds, bool(args.trace))
        metrics = {s["name"]: {"value": report["metrics"][s["name"]], "unit": s["unit"]} for s in specs}
    else:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": report is not None and ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
