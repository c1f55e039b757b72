"""The traced benchmark (pipebench/launch.py) replaces medqakit functions by
(module, attribute) and calls a few names of medqakit.cli directly. A rename
here would break it without failing any other test, so this reads launch.py
and checks that every such name still resolves, and runs it on tiny inputs
to check that each layer still records spans."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "pipebench" / "launch.py"
TABLES = ("SPANNED", "COUNTED", "BYTES_WRITTEN")


def launch_tree() -> ast.Module:
    return ast.parse(LAUNCH.read_text(encoding="utf-8"), filename=str(LAUNCH))


def test_patched_attributes_resolve():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in launch_tree().body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in TABLES
    }
    assert set(tables) == set(TABLES)
    for table, rows in tables.items():
        assert rows, table
        for module_name, attribute, *_ in rows:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attribute, None)), f"{table}: {module_name}.{attribute}"


def test_cli_names_called_by_launch_resolve():
    from medqakit import cli

    called = {
        node.attr
        for node in ast.walk(launch_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"build_parser", "load_run_config", "main"} <= called
    for name in called:
        assert callable(getattr(cli, name, None)), f"medqakit.cli.{name}"


def test_traced_commands_record_every_layer(tmp_path):
    """Run label, curate artificial, curate templates-export and eval through
    launch.py --trace: a patched name that dropped off the call path would
    read as 0 s in the benchmark without failing anything."""
    from tests.test_cli import write_config, write_corpus, write_sources

    write_sources(tmp_path, n_l=6, n_a=6)
    write_corpus(tmp_path, n=12)
    config = str(write_config(tmp_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    layers = set()

    def trace(*command):
        spans = tmp_path / "spans.json"
        result = subprocess.run(
            [sys.executable, str(LAUNCH), "--trace", str(spans), "cli", *command],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        by_layer = json.loads(spans.read_text())["by_layer"]
        layers.update(layer for layer, totals in by_layer.items() if totals["spans"] > 0)

    trace("label", "--config", config)
    trace("curate", "artificial", "--config", config)
    trace("curate", "templates-export", "--config", config)
    gold = tmp_path / "out" / "d1.json"
    articles = json.loads(gold.read_text())["data"]
    ids = [qa["id"] for a in articles for p in a["paragraphs"] for qa in p["qas"]]
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(json.dumps({"id": i, "predicted_text": "x"}) + "\n" for i in ids))
    trace("eval", str(gold), str(predictions), "--task", "extractive")
    required = {
        "corpus.parse",
        "corpus.segment",
        "bm25.best_sentence",
        "formats.read",
        "covid.review_search",
        "metrics.evaluate",
    }
    assert required <= layers, sorted(required - layers)
