"""Warnings: each skipped or degenerate input is one stderr line of the form
`WARNING {module}: {message}`, with the exact text pinned below, and the
command still exits 0.

Each command runs in a fresh interpreter, as from a shell, so what is pinned
is the stderr a user sees."""

import json
from pathlib import Path

import pytest

from tests.test_cli import mark_first_per_group, write_config, write_corpus, write_sources
from tests.test_cold_start import python


def stderr_of(root: Path, *argv: str) -> str:
    """The stderr of one `medqakit` command that must exit 0."""
    result = python(root, "-m", "medqakit.cli", *argv)
    assert result.returncode == 0, result.stderr
    return result.stderr


def append_jsonl(path: Path, *records: dict) -> None:
    with path.open("a") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)


def test_label_warns_once_per_skipped_source_record(tmp_path):
    write_sources(tmp_path)
    write_corpus(tmp_path)
    append_jsonl(
        tmp_path / "pqa_l.jsonl",
        {"id": "pqa_l-empty-q", "question": "", "context": "Some text here.", "label": "yes"},
        {"id": "pqa_l-no-ctx", "question": "Is it?", "context": "", "label": "no"},
    )
    config = write_config(tmp_path)
    assert stderr_of(tmp_path, "label", "--config", str(config)) == (
        "WARNING medqakit.weak_label: skipping pqa_l-empty-q: empty question\n"
        "WARNING medqakit.weak_label: skipping pqa_l-no-ctx:"
        " degenerate context: empty conclusions text\n"
    )


# The stderr of each command of one pipeline run, on a corpus with an
# undated abstract and an empty conclusions section, a d4 of 5 pairs, 30
# PQA-L ids, and a morpheme lexicon that lists one entry twice.
PIPELINE = {
    "label": "",
    "curate artificial": (
        "WARNING medqakit.covid: pmid 20001: missing pub_date, excluded from COVID set\n"
        "WARNING medqakit.covid: pmid 20002: degenerate context: empty conclusions text\n"
    ),
    "curate templates-export": (
        "WARNING medqakit.covid: pmid 20001: missing pub_date, excluded from COVID set\n"
    ),
    "curate templates-import": "",
    "schedule": (
        "WARNING medqakit.schedule: subset d4 has only 5 instances; holding out at least 1\n"
        "WARNING medqakit.schedule: expected 1000 ids, got 30;"
        " scaling the CV layout proportionally\n"
        "WARNING medqakit.morph: duplicate morpheme (cardi, root): last entry wins\n"
    ),
}


@pytest.fixture(scope="module")
def pipeline_stderr(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("warnings")
    write_sources(root)
    write_corpus(root, n=12)
    append_jsonl(
        root / "covid.jsonl",
        {
            "pmid": "20001",
            "title": "Is COVID bad?",
            "keywords": [],
            "sections": [{"label": "conclusions", "text": "COVID-19 was bad."}],
        },
        {
            "pmid": "20002",
            "title": "Does COVID-19 spread?",
            "pub_date": "2020-05-01",
            "keywords": ["COVID"],
            "sections": [{"label": "conclusions", "text": ""}],
        },
    )
    (root / "forms.txt").write_text("cardi|heart|root\ncardi|hearts|root\n")
    paths = {
        "pqa_l": "pqa_l.jsonl",
        "pqa_a": "pqa_a.jsonl",
        "covid_corpus": "covid.jsonl",
        "morpheme_lexicon": "forms.txt",
    }
    config = str(write_config(root, output_dir="out", paths=paths, schedules=["4", "XII"]))
    stderr = {}
    for command in PIPELINE:
        argv = [*command.split(), "--config", config]
        if command == "curate templates-import":
            mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
            argv += ["--review", "reviewed.tsv"]
        stderr[command] = stderr_of(root, *argv)
    return stderr


@pytest.mark.parametrize("command", list(PIPELINE))
def test_each_warning_is_one_exact_stderr_line(pipeline_stderr, command):
    assert pipeline_stderr[command] == PIPELINE[command]
