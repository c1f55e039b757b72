"""Streamed inputs: `schedule` writes the same files whether a subset is
decoded while its stages are written or read into a list first, and decodes
each input file once, or twice when the split or the folds draw its ids;
`label` writes the same files whether it labels its sources a batch at a
time or all at once; and the streaming readers and consumers hold memory
that does not grow with the number of records they pass on."""

import json
import shutil
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from medqakit import (
    DatasetSubsetId,
    Provenance,
    QAPair,
    YesNoInstance,
    cli,
    default_lemma_lexicon,
    default_morpheme_lexicon,
    formats,
)
from medqakit.cli import main
from medqakit.errors import ParseError, ValidationError
from medqakit.metrics import Prediction, evaluate
from medqakit.defaults import DEFAULT_HOLDOUT_FRACTIONS, SCHEDULE_IDS
from medqakit.schedule import emit_schedule, get_schedule

from tests.test_cli import mark_first_per_group, write_config, write_corpus, write_sources

ALL_SCHEDULES = list(SCHEDULE_IDS)
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
    # a file whose ids the split or the folds draw is read for them first
    drawn = {"pqa_l", *(fractions or (s.value for s in DEFAULT_HOLDOUT_FRACTIONS))}
    assert {name: opened.get(name) for name in DATASET_FILES} == {
        name: 2 if name.partition(".")[0] in drawn else 1 for name in DATASET_FILES
    }
    listed(monkeypatch)
    assert schedule_tree(workspace, config) == streamed
    assert any(name.startswith("schedules/") for name in streamed)


@pytest.mark.parametrize(
    "name, schedules, read, later_files",
    [
        (
            "d2.json",
            ["2"],
            lambda path: formats.read_squad(path, subset=DatasetSubsetId.D2),
            {"2": ["stage2_d1.json"]},
        ),
        ("pqa_a.jsonl", ["baseline"], formats.read_yesno, {"baseline": []}),
        ("pqa_a.jsonl", ["I", "XII"], formats.read_yesno, {"I": [], "XII": []}),
    ],
    ids=["d2.json-2-<lambda>", "pqa_a.jsonl-baseline-read_yesno", "pqa_a.jsonl-I-XII-read_yesno"],
)
def test_a_malformed_streamed_input_exits_1_without_temp_files(
    workspace, capsys, name, schedules, read, later_files
):
    """The fault is read after schedule 1 was written: it keeps its files,
    and the later schedules get no manifest and no stage of the faulty
    subset (a stage of a subset written before it may stay)."""
    path = workspace / ("out" if name.endswith(".json") else "") / name
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) * 2 // 3], encoding="utf-8")
    with pytest.raises(ValidationError) as fault:
        read(path)
    config = write_config(workspace, schedules=["1", *schedules])
    capsys.readouterr()
    assert main(["schedule", "--config", str(config)]) == 1
    assert capsys.readouterr().err.strip().endswith(f"error: {fault.value}")
    assert not list((workspace / "out").rglob("*.tmp"))
    written = workspace / "out" / "schedules"
    assert sorted(p.name for p in (written / "1").iterdir()) == ["manifest.json", "stage1_d1.json"]
    later = {sid: sorted(p.name for p in (written / sid).glob("*")) for sid in schedules}
    assert later == later_files


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
            lambda: emit_schedule([get_schedule("2")], datasets, None, out)
        )
        manifest = json.loads((out / "2" / "manifest.json").read_text())
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


def test_evaluate_memory_does_not_grow_with_the_prediction_texts():
    """evaluate reads aligned predictions in step with the golds and holds
    none of them: 2k predictions of 1,000 words each peak within 1.5x of 2k
    of 20 words each."""
    peaks = {}
    for words in (20, 1_000):

        def predictions():
            for i in range(2_000):
                # a new text per prediction, so that holding them would show
                yield Prediction(id=f"p{i:06d}", predicted_text=f"alpha{i}" + " beta" * words)

        peaks[words] = traced_peak(lambda: evaluate(pairs(2_000, 20), predictions(), "extractive"))
    assert peaks[1_000] <= 1.5 * peaks[20], peaks

def test_a_transformed_stage_memory_does_not_grow_with_the_records(tmp_path):
    """emit_schedule streams a chained yes/no stage through transform_dataset
    a batch at a time: 20k instances peak within 1.5x of 2k."""
    question = "Were dacryoadenitis and gastroenteritis studies assessed?"
    context = "Patients used thrombocytopenia criteria; hyperglycemia outcomes stopped."
    peaks = {}
    for n in (2_000, 20_000):
        pqa_a = (YesNoInstance(f"a{i:06d}", question, context, "yes") for i in range(n))
        datasets = {DatasetSubsetId.PQA_A: pqa_a, DatasetSubsetId.PQA_L: []}
        lems, morphs = default_lemma_lexicon(), default_morpheme_lexicon()
        out = tmp_path / f"XII-{n}"
        peaks[n] = traced_peak(
            lambda: emit_schedule(
                [get_schedule("XII")], datasets, None, out, lems=lems, morphs=morphs
            )
        )
        manifest = json.loads((out / "XII" / "manifest.json").read_text())
        assert manifest["stages"][0]["n_instances"] == n
    assert peaks[20_000] <= 1.5 * peaks[2_000], peaks


def test_an_early_syntax_fault_stops_the_squad_reader(tmp_path):
    """A fault near the start of a large SQuAD file is reported with json's
    own message, from the text read up to it: the reader's peak stays within
    1.5x of its peak over the valid file."""
    valid = tmp_path / "valid.json"
    formats.write_squad(valid, pairs(20_000, 20))
    text = valid.read_text(encoding="utf-8")
    at = text.index("{", text.index('"data"')) + 1
    broken = tmp_path / "broken.json"
    broken.write_text(text[:at] + ",," + text[at:], encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as json_fault:
        json.loads(broken.read_text(encoding="utf-8"))
    peaks = {"valid": traced_peak(lambda: sum(1 for _ in formats.iter_squad(valid)))}

    def read_broken():
        with pytest.raises(ParseError) as fault:
            list(formats.iter_squad(broken))
        assert str(fault.value) == f"{broken}: malformed JSON: {json_fault.value}"

    peaks["broken"] = traced_peak(read_broken)
    assert peaks["broken"] <= 1.5 * peaks["valid"], peaks


# Records `label` skips: an empty question, an empty or blank context.
DEGENERATE_SOURCES = [
    {"id": "empty-question", "question": " ", "context": "A sentence.", "label": "yes"},
    {"id": "empty-context", "question": "Why?", "context": "", "label": None},
    {"id": "blank-context", "question": "Why?", "context": " \n ", "label": "no"},
]


def write_label_sources(root: Path, n_l: int, n_a: int) -> Path:
    """write_sources plus the degenerate records, spread through both files."""
    write_sources(root, n_l=n_l, n_a=n_a)
    for name in ("pqa_l", "pqa_a"):
        path = root / f"{name}.jsonl"
        lines = path.read_text().splitlines()
        for i, record in enumerate(DEGENERATE_SOURCES):
            lines.insert(i * len(lines) // 3, json.dumps({**record, "id": f"{name}-{record['id']}"}))
        path.write_text("\n".join(lines) + "\n")
    return write_config(root)


def label_outputs(root, config, capsys):
    """Run `label`: its files, stdout and skip warnings."""
    shutil.rmtree(root / "out", ignore_errors=True)
    capsys.readouterr()
    assert main(["label", "--config", str(config)]) == 0
    files = {name: (root / "out" / name).read_bytes() for name in ("d1.json", "d2.json")}
    summary = json.loads((root / "out" / "label_summary.json").read_text())
    captured = capsys.readouterr()
    return files, summary, captured.out, captured.err.splitlines()


@pytest.mark.parametrize("batch", [1, 7, None])
def test_streamed_label_equals_the_list_path(tmp_path, monkeypatch, capsys, batch):
    """Batches of 1, 7 and the default size against every record read, then
    labeled, then written: the same bytes, summary, stdout and warnings."""
    config = write_label_sources(tmp_path, n_l=40, n_a=300)
    if batch is not None:
        monkeypatch.setattr(cli, "_LABEL_BATCH", batch)
    calls = []
    build_prime_subset = cli.build_prime_subset
    monkeypatch.setattr(
        cli, "build_prime_subset", lambda *args: calls.append(1) or build_prime_subset(*args)
    )
    streamed = label_outputs(tmp_path, config, capsys)
    size = batch or cli._LABEL_BATCH
    assert len(calls) == -(-43 // size) + -(-303 // size)
    assert {s: streamed[1]["subsets"][s]["skipped"] for s in ("d1", "d2")} == {"d1": 3, "d2": 3}
    assert len(streamed[3]) == 6

    iter_source_instances = formats.iter_source_instances

    def read_first(path):
        return iter(list(iter_source_instances(path)))

    monkeypatch.setattr(formats, "iter_source_instances", read_first)
    monkeypatch.setattr(cli, "_LABEL_BATCH", sys.maxsize)
    assert label_outputs(tmp_path, config, capsys) == streamed


def test_a_malformed_source_line_near_the_end_exits_1_without_temp_files(tmp_path, capsys):
    """The fault is read after several batches of d2 were labeled: exit 1
    naming the file and the line, no temp file, and d1.json written before
    it stays."""
    n_a = 2 * cli._LABEL_BATCH + 10
    write_sources(tmp_path, n_l=20, n_a=n_a)
    config = write_config(tmp_path)
    pqa_a = tmp_path / "pqa_a.jsonl"
    with pqa_a.open("a") as handle:
        handle.write('{"id": "pqa_a-late", "question": "Why?", "context": "A.",\n')
        handle.write('{"id": "pqa_a-last", "question": "Why?", "context": "A.", "label": "yes"}\n')
    assert main(["label", "--config", str(config), "--subset", "pqa_l"]) == 0
    d1 = (tmp_path / "out" / "d1.json").read_bytes()
    capsys.readouterr()
    assert main(["label", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {pqa_a} line {n_a + 1}: malformed JSON: " in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").rglob("*.tmp"))
    assert (tmp_path / "out" / "d1.json").read_bytes() == d1
    assert not (tmp_path / "out" / "d2.json").exists()


def test_label_memory_does_not_grow_with_the_records(tmp_path):
    """Labeling 20k PQA-A records peaks within 1.5x of labeling 2k."""
    peaks = {}
    for n in (2_000, 20_000):
        root = tmp_path / str(n)
        root.mkdir()
        write_sources(root, n_l=0, n_a=n)
        config = str(write_config(root))
        peaks[n] = traced_peak(lambda: main(["label", "--config", config, "--subset", "pqa_a"]))
        summary = json.loads((root / "out" / "label_summary.json").read_text())
        assert summary["subsets"]["d2"]["emitted"] == n
    assert peaks[20_000] <= 1.5 * peaks[2_000], peaks
