import json

import pytest

from medqakit import (
    DatasetSubsetId,
    ParseError,
    Provenance,
    QAPair,
    ValidationError,
    YesNoInstance,
)
from medqakit.formats import (
    read_abstracts,
    read_predictions,
    read_source_instances,
    read_squad,
    read_yesno,
    write_squad,
    write_yesno,
)


def make_pair(i=0):
    return QAPair(
        id=f"p{i}",
        question="What changed?",
        context="The outcome improved. Nothing else moved.",
        answer_text="The outcome improved.",
        answer_start=0,
        subset=DatasetSubsetId.D1,
        provenance=Provenance.BM25_WEAK,
    )


class TestSquadRoundTrip:
    def test_write_read_identity(self, tmp_path):
        pairs = [make_pair(i) for i in range(3)]
        path = tmp_path / "d1.json"
        write_squad(path, pairs, {"seed": 13})
        assert read_squad(path) == pairs

    def test_shape_matches_convention(self, tmp_path):
        path = tmp_path / "d1.json"
        write_squad(path, [make_pair()])
        data = json.loads(path.read_text())
        assert data["version"] == "1.1"
        article = data["data"][0]
        qa = article["paragraphs"][0]["qas"][0]
        assert set(qa["answers"][0]) == {"text", "answer_start"}

    def test_untagged_file_needs_subset(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(
            json.dumps(
                {
                    "version": "1.1",
                    "data": [
                        {
                            "title": "t",
                            "paragraphs": [
                                {
                                    "context": "Alpha beta.",
                                    "qas": [
                                        {
                                            "id": "q1",
                                            "question": "What?",
                                            "answers": [{"text": "Alpha beta.", "answer_start": 0}],
                                        }
                                    ],
                                }
                            ],
                        }
                    ],
                }
            )
        )
        with pytest.raises(ValidationError, match="subset"):
            read_squad(path)
        pairs = read_squad(path, subset=DatasetSubsetId.D3)
        assert pairs[0].subset is DatasetSubsetId.D3


class TestYesNoRoundTrip:
    def test_write_read_identity(self, tmp_path):
        instances = [
            YesNoInstance(id=f"y{i}", question="q?", context="ctx", label="yes") for i in range(3)
        ]
        path = tmp_path / "yn.jsonl"
        write_yesno(path, instances)
        assert read_yesno(path) == instances

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "yn.jsonl"
        path.write_text('{"id":"a","question":"q?","context":"c"}\n')
        with pytest.raises(ValidationError, match="label"):
            read_yesno(path)

    def test_source_instances_tolerate_empty_context(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text('{"id":"a","question":"q?","context":""}\n')
        assert read_source_instances(path)[0].context == ""


class TestAbstractsReader:
    def test_duplicate_pmid_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = '{"pmid":"1","sections":[{"label":"C","text":"x"}]}'
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(ValidationError, match="duplicate pmid"):
            read_abstracts(path)

    def test_error_carries_path_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"pmid":"1","sections":[]}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            read_abstracts(path)


class TestPredictionsReader:
    def test_both_shapes(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"id":"a","predicted_text":"x"}\n{"id":"b","predicted_label":"yes"}\n'
        )
        preds = read_predictions(path)
        assert preds[0].predicted_text == "x"
        assert preds[1].predicted_label == "yes"

    def test_shapeless_row_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id":"a"}\n')
        with pytest.raises(ValidationError):
            read_predictions(path)


def squad_file(tmp_path, paragraph):
    article = {"title": "t", "paragraphs": [paragraph]}
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"version": "1.1", "data": [article]}))
    return path


GOOD_QA = {"id": "q1", "question": "What?", "answers": [{"text": "Alpha.", "answer_start": 0}]}


def qa_without(key):
    return {k: v for k, v in GOOD_QA.items() if k != key}


class TestSquadBoundary:
    @pytest.mark.parametrize(
        "paragraph, message",
        [
            ({"qas": [GOOD_QA]}, "qa 'q1': its paragraph has no context"),
            ({"context": "Alpha.", "qas": [qa_without("id")]}, "qa None: no id"),
            ({"context": "Alpha.", "qas": [qa_without("question")]}, "qa 'q1': no question"),
            ({"context": "Alpha.", "qas": [qa_without("answers")]}, "qa 'q1': no answers"),
            ({"context": "Alpha.", "qas": [{**GOOD_QA, "answers": []}]}, "qa 'q1': no answers"),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "answers": [{"text": "Alpha."}]}]},
                "qa 'q1': the first answer needs text and answer_start",
            ),
        ],
    )
    def test_unreadable_qa_names_file_and_id(self, tmp_path, paragraph, message):
        path = squad_file(tmp_path, paragraph)
        with pytest.raises(ParseError) as raised:
            read_squad(path, subset=DatasetSubsetId.D1)
        assert str(path) in str(raised.value)
        assert message in str(raised.value)
