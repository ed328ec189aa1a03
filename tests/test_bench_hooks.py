"""The bench's span tracer patches functions by name; a rename breaks it.

``bench/spans.py`` looks up every name it wraps when it installs, so a traced
command that exits 0 shows that all of them still exist.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
