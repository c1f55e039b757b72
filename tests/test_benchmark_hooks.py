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


def traced_spans(root: Path, *command: str) -> dict[str, int]:
    """The span count of each layer when launch.py --trace runs a CLI command in root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spans = root / "spans.json"
    result = subprocess.run(
        [sys.executable, str(LAUNCH), "--trace", str(spans), "cli", *command],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    by_layer = json.loads(spans.read_text())["by_layer"]
    return {layer: totals["spans"] for layer, totals in by_layer.items() if totals["spans"] > 0}


def test_traced_commands_record_every_layer(tmp_path):
    """Run label, curate artificial, curate templates-export and eval through
    launch.py --trace: a patched name that dropped off the call path would
    read as 0 s in the benchmark without failing anything."""
    from tests.test_cli import write_config, write_corpus, write_sources

    write_sources(tmp_path, n_l=6, n_a=6)
    write_corpus(tmp_path, n=12)
    config = str(write_config(tmp_path))
    layers = set(traced_spans(tmp_path, "label", "--config", config))
    layers |= set(traced_spans(tmp_path, "curate", "artificial", "--config", config))
    layers |= set(traced_spans(tmp_path, "curate", "templates-export", "--config", config))
    gold = tmp_path / "out" / "d1.json"
    articles = json.loads(gold.read_text())["data"]
    ids = [qa["id"] for a in articles for p in a["paragraphs"] for qa in p["qas"]]
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(json.dumps({"id": i, "predicted_text": "x"}) + "\n" for i in ids))
    layers |= set(traced_spans(tmp_path, "eval", str(gold), str(predictions), "--task", "extractive"))
    required = {
        "corpus.parse",
        "corpus.segment",
        "bm25.best_sentence",
        "weak_label.label",
        "formats.read",
        "covid.review_search",
        "metrics.evaluate",
    }
    assert required <= layers, sorted(required - layers)


def test_traced_schedule_records_morph_layers(tmp_path):
    """Schedule XII (lemma concatenation, form and meaning replacement)
    through launch.py --trace: the transforms must still call decompose and
    lemmatize_token where the tracer replaces them."""
    from medqakit import default_lemma_lexicon
    from tests.test_cli import write_config, write_sources

    write_sources(tmp_path, n_l=20, n_a=6)
    config = str(write_config(tmp_path))
    spans = traced_spans(tmp_path, "schedule", "--config", config, "--schedule", "XII")
    required = {"morph.transform", "morph.decompose", "morph.lemmatize", "schedule.emit"}
    assert required <= set(spans), sorted(required - set(spans))
    # Loading the lemma lexicon checks each exception through lemmatize_token.
    assert spans["morph.lemmatize"] > len(default_lemma_lexicon().exceptions)
