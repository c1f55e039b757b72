"""Streamed inputs: `schedule` writes the same files whether a subset is
decoded while its stage is written or read into a list first, decodes each
input file once, and the streaming readers and consumers hold memory that
does not grow with the number of records they pass on."""

import json
import shutil
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from medqakit import DatasetSubsetId, Provenance, QAPair, formats
from medqakit.cli import main
from medqakit.errors import ValidationError
from medqakit.metrics import Prediction, evaluate
from medqakit.schedule import builtin_schedules, emit_schedule, get_schedule

from tests.test_cli import mark_first_per_group, write_config, write_corpus, write_sources

ALL_SCHEDULES = [s.schedule_id for s in builtin_schedules()]
DATASET_FILES = ("d1.json", "d2.json", "d3.json", "d4.json", "pqa_l.jsonl", "pqa_a.jsonl")


@pytest.fixture(scope="module")
def materialized(tmp_path_factory):
    """Sources, and d1-d4 written by label and curate."""
    root = tmp_path_factory.mktemp("streaming")
    write_sources(root, n_l=40, n_a=60)
    write_corpus(root)
    config = str(write_config(root))
    assert main(["label", "--config", config]) == 0
    assert main(["curate", "artificial", "--config", config]) == 0
    assert main(["curate", "templates-export", "--config", config]) == 0
    mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
    review = ["--review", str(root / "reviewed.tsv")]
    assert main(["curate", "templates-import", "--config", config, *review]) == 0
    return root


@pytest.fixture()
def workspace(materialized, tmp_path):
    """A copy of the materialized files; write_config points a config at it."""
    root = tmp_path / "ws"
    shutil.copytree(materialized, root)
    return root


def schedule_tree(root: Path, config: Path) -> dict[str, bytes]:
    """Run `schedule` with a fresh schedules/ directory; every file of out/."""
    shutil.rmtree(root / "out" / "schedules", ignore_errors=True)
    assert main(["schedule", "--config", str(config)]) == 0
    out = root / "out"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def listed(monkeypatch):
    """Make every streamed subset a list, read before any stage is written."""
    iter_squad, iter_yesno = formats.iter_squad, formats.iter_yesno
    monkeypatch.setattr(formats, "iter_squad", lambda path, **kw: list(iter_squad(path, **kw)))
    monkeypatch.setattr(formats, "iter_yesno", lambda path: list(iter_yesno(path)))


@pytest.mark.parametrize(
    "schedules, fractions",
    [
        (ALL_SCHEDULES, None),
        (ALL_SCHEDULES, {"d1": 0.1, "d2": 0.2, "d3": 0.1, "d4": 0.1, "pqa_a": 0.25}),
        (["4", "baseline"], None),
    ],
)
def test_streamed_schedule_equals_the_list_path(workspace, monkeypatch, schedules, fractions):
    extra = {"schedules": schedules}
    if fractions is not None:
        extra["split_fractions"] = fractions
    config = write_config(workspace, **extra)
    opened: dict[str, int] = {}
    open_text = formats.open_text

    @contextmanager
    def counted(path):
        opened[Path(path).name] = opened.get(Path(path).name, 0) + 1
        with open_text(path) as handle:
            yield handle

    monkeypatch.setattr(formats, "open_text", counted)
    streamed = schedule_tree(workspace, config)
    assert {name: opened.get(name) for name in DATASET_FILES} == dict.fromkeys(DATASET_FILES, 1)
    listed(monkeypatch)
    assert schedule_tree(workspace, config) == streamed
    assert any(name.startswith("schedules/") for name in streamed)


@pytest.mark.parametrize(
    "name, schedule, read",
    [
        ("d2.json", "2", lambda path: formats.read_squad(path, subset=DatasetSubsetId.D2)),
        ("pqa_a.jsonl", "baseline", formats.read_yesno),
    ],
)
def test_a_malformed_streamed_input_exits_1_without_temp_files(
    workspace, capsys, name, schedule, read
):
    path = workspace / ("out" if name.endswith(".json") else "") / name
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) * 2 // 3], encoding="utf-8")
    with pytest.raises(ValidationError) as fault:
        read(path)
    config = write_config(workspace, schedules=["1", schedule])
    capsys.readouterr()
    assert main(["schedule", "--config", str(config)]) == 1
    assert capsys.readouterr().err.strip().endswith(f"error: {fault.value}")
    assert not list((workspace / "out").rglob("*.tmp"))
    # the schedule emitted before the fault keeps its files
    assert (workspace / "out" / "schedules" / "1" / "manifest.json").exists()


def pairs(n: int, context_words: int):
    answer = "Alpha beta."
    context = answer + " gamma" * context_words
    for i in range(n):
        yield QAPair(
            f"p{i:06d}", "Why?", context, answer, 0, DatasetSubsetId.D2, Provenance.BM25_WEAK
        )


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_does_not_grow_with_the_records(tmp_path):
    """iter_squad and emit_schedule over 20k articles peak within 1.5x of
    their peak over 2k; evaluate keeps each gold's id and normalized answer
    only, so golds whose contexts are 50x longer leave its peak within 1.5x."""
    peaks = {}
    for n in (2_000, 20_000):
        gold = tmp_path / f"gold{n}.json"
        formats.write_squad(gold, pairs(n, 20))
        peaks["iter_squad", n] = traced_peak(lambda: sum(1 for _ in formats.iter_squad(gold)))
        d1 = list(pairs(20, 20))
        datasets = {DatasetSubsetId.D2: formats.iter_squad(gold), DatasetSubsetId.D1: d1}
        out = tmp_path / f"schedule{n}"
        peaks["emit", n] = traced_peak(
            lambda: emit_schedule(get_schedule("2"), datasets, None, out)
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"][0]["n_instances"] == n
    for name in ("iter_squad", "emit"):
        assert peaks[name, 20_000] <= 1.5 * peaks[name, 2_000], (name, peaks)

    predictions = [Prediction(id=f"p{i:06d}", predicted_text="alpha") for i in range(2_000)]
    for words in (20, 1_000):
        gold = tmp_path / f"gold-words{words}.json"
        formats.write_squad(gold, pairs(2_000, words))
        peaks["evaluate", words] = traced_peak(
            lambda: evaluate(formats.iter_squad(gold), predictions, "extractive")
        )
    assert peaks["evaluate", 1_000] <= 1.5 * peaks["evaluate", 20], peaks
