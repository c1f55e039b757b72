"""Fuzz of the command line over mutated input files.

Each example takes one valid input file, mutates it (a subtree of its JSON
replaced or deleted, or a few bytes replaced), and runs the command that
reads it. Drawn strings may hold lone surrogates. Whatever the input, the
command must end with a documented exit code and without an uncaught
exception, and a validation error (exit 1) must name the file it is about,
or, for a value of the run config, its key.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medqakit import DatasetSubsetId, Provenance, QAPair, formats
from medqakit.cli import main
from medqakit.defaults import COVID_PHRASES

from tests.conftest import make_corpus_lines, make_paragraph, make_question

# strings hold lone surrogates too, which json writes as \u escapes
TEXT = st.text(st.characters() | st.sampled_from("\ud800\udbff\udc00\udfff"), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=5,
)
BYTES = st.binary(max_size=4) | st.sampled_from(
    [b"\t", b"\n", b"\r", b'"', b"{", b"]", b"x", b"0", b"\xff", b"\xe2\x80\xa8"]
)


def mutate_tree(data, node):
    """node with one subtree replaced by a drawn JSON value, or deleted."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)) > 0:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        copy = node.copy()
        if data.draw(st.integers(0, 4)) == 0:
            del copy[key]
        else:
            copy[key] = mutate_tree(data, node[key])
        return copy
    return data.draw(JSON_VALUES)


def mutate_bytes(data, raw: bytes) -> bytes:
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, len(raw)))
        end = data.draw(st.integers(start, min(len(raw), start + 6)))
        raw = raw[:start] + data.draw(BYTES) + raw[end:]
    return raw


def jsonl(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The directory, the valid seed bytes of each input file, and the
    command that reads each."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(7)
    sources = [
        {
            "id": f"s{i}",
            "question": make_question(rng),
            "context": make_paragraph(rng, 2),
            "label": rng.choice(["yes", "no"]),
        }
        for i in range(3)
    ]
    abstracts = [json.loads(line) for line in make_corpus_lines(8)]
    templates = {
        "templates": [{"template_id": "t", "pattern": "Does [X] matter?", "slot_types": ["xs"]}],
        "vocabularies": [{"name": "xs", "values": ["diabetes", "asthma"], "aliases": {}}],
    }
    context = "Alpha beta. Gamma."
    pairs = [
        QAPair(f"q{i}", "Why?", context, "Gamma.", 12, DatasetSubsetId.D1, Provenance.BM25_WEAK)
        for i in range(2)
    ]
    predictions = [{"id": p.id, "predicted_text": "Gamma."} for p in pairs]
    # 20 ids, the fewest the folds take
    pqa_l = [{**sources[i % 3], "id": f"pqa_l-{i:04d}"} for i in range(20)]
    seeds = {
        "sources.jsonl": jsonl(sources),
        "pqa_l.jsonl": jsonl(pqa_l),
        "covid.jsonl": jsonl(abstracts),
        "templates.json": json.dumps(templates).encode("utf-8"),
        "predictions.jsonl": jsonl(predictions),
    }
    for name, raw in seeds.items():
        (root / name).write_bytes(raw)
    formats.write_squad(root / "gold.json", pairs)
    formats.write_squad(root / "out" / "d1.json", pairs)
    config = root / "config.json"
    paths = {
        "pqa_l": str(root / "pqa_l.jsonl"),
        "pqa_a": str(root / "sources.jsonl"),
        "covid_corpus": str(root / "covid.jsonl"),
        "templates": str(root / "templates.json"),
    }
    # the default phrases, written out so that a mutation can reach them
    covid_filter = {"phrases": list(COVID_PHRASES)}
    run = {"output_dir": str(root / "out"), "paths": paths, "covid_filter": covid_filter}
    config.write_text(json.dumps(run))
    for name in ("gold.json", "out/d1.json", "config.json"):
        seeds[name] = (root / name).read_bytes()
    # the flag wins over a mutated output_dir, so every output stays under root
    with_config = ["--config", str(config), "--output-dir", str(root / "out")]
    assert main(["curate", "templates-export", *with_config]) == 0
    queue = (root / "out" / "review_queue.tsv").read_text().splitlines()
    assert len(queue) > 1
    # the first sentence of each group selected
    reviewed = [queue[0]] + [row + ("x" if row.split("\t")[2] == "0" else "") for row in queue[1:]]
    seeds["reviewed.tsv"] = ("\n".join(reviewed) + "\n").encode("utf-8")
    evaluate = ["eval", str(root / "gold.json"), str(root / "predictions.jsonl")]
    commands = {
        "sources.jsonl": ["label", "--subset", "pqa_a", *with_config],
        "pqa_l.jsonl": ["schedule", "--schedule", "baseline", *with_config],
        "out/d1.json": ["schedule", "--schedule", "1", *with_config],
        "config.json": ["curate", "artificial", *with_config],
        "covid.jsonl": ["curate", "artificial", *with_config],
        "templates.json": ["curate", "templates-export", *with_config],
        "reviewed.tsv": ["curate", "templates-import", "--review", str(root / "reviewed.tsv"),
                         *with_config],
        "gold.json": [*evaluate, "--task", "extractive"],
        "predictions.jsonl": [*evaluate, "--task", "extractive"],
    }
    return root, seeds, commands


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_mutated_input_exits_cleanly(workspace, data):
    root, seeds, commands = workspace
    name = data.draw(st.sampled_from(sorted(commands)), label="file")
    seed = seeds[name]
    if name.endswith(".tsv") or data.draw(st.booleans(), label="byte mutation"):
        raw = mutate_bytes(data, seed)
    elif name.endswith(".jsonl"):
        records = [json.loads(line) for line in seed.decode("utf-8").splitlines()]
        line = data.draw(st.integers(0, len(records) - 1), label="line")
        records[line] = mutate_tree(data, records[line])
        raw = jsonl(records)
    else:
        raw = json.dumps(mutate_tree(data, json.loads(seed))).encode("utf-8")
    for other, seed_bytes in seeds.items():
        (root / other).write_bytes(raw if other == name else seed_bytes)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(commands[name])  # an uncaught exception fails the example
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        # a run config's value is named by its key, as `config KEY`
        named = [str(root / name), *(["error: config "] if name == "config.json" else [])]
        assert any(where in err.getvalue() for where in named), err.getvalue()
