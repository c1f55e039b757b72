import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    DatasetSubsetId,
    ParseError,
    Prediction,
    Provenance,
    QAPair,
    ValidationError,
    YesNoInstance,
)
from medqakit.formats import (
    SQUAD_VERSION,
    link_file_atomic,
    read_abstracts,
    read_json,
    read_predictions,
    read_source_instances,
    read_squad,
    read_yesno,
    write_squad,
    write_text_atomic,
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


def squad_dict(pairs, provenance=None):
    """The SQuAD document of `pairs` as a dict: one article per pair, title = pair id."""
    data = []
    for pair in pairs:
        data.append(
            {
                "title": pair.id,
                "paragraphs": [
                    {
                        "context": pair.context,
                        "qas": [
                            {
                                "id": pair.id,
                                "question": pair.question,
                                "answers": [
                                    {"text": pair.answer_text, "answer_start": pair.answer_start}
                                ],
                                "subset": pair.subset.value,
                                "provenance": pair.provenance.value,
                            }
                        ],
                    }
                ],
            }
        )
    out = {"version": SQUAD_VERSION, "data": data}
    if provenance is not None:
        out["provenance"] = dict(provenance)
    return out


def squad_oracle_bytes(pairs, provenance=None):
    """What write_squad must write: the whole document through json.dumps."""
    text = json.dumps(squad_dict(pairs, provenance), ensure_ascii=False, indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


# Characters json escapes or writes as they are: quotes, backslashes,
# control characters, line and paragraph separators, non-ASCII text.
TRICKY_TEXT = st.text(
    st.sampled_from(list('ab .\'"\\/\n\r\t\x00\x08\x1f\x7f\u2028\u2029é漢😀'))
    | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=30,
)


@st.composite
def tricky_pairs(draw):
    pairs = []
    for i in range(draw(st.integers(0, 4))):
        context = draw(TRICKY_TEXT)
        start = draw(st.integers(0, len(context) - 1))
        end = draw(st.integers(start, len(context)))
        pairs.append(
            QAPair(
                id=draw(st.one_of(st.just(f"p{i}"), TRICKY_TEXT)),
                question="Q" + draw(TRICKY_TEXT),
                context=context,
                answer_text=context[start:end],
                answer_start=start,
                subset=draw(st.sampled_from(list(DatasetSubsetId))),
                provenance=draw(st.sampled_from(list(Provenance))),
            )
        )
    return pairs


class TestStreamedSquadWriter:
    @pytest.mark.parametrize("n_pairs", [0, 1, 3])
    @pytest.mark.parametrize(
        "provenance",
        [
            None,
            {},
            {"seed": 13, "config_hash": "abc"},
            {"seed": 13, "run": {"paths": ["a", "b"], "empty": {}, "none": [], "x": None}},
            {"é": "line\nbreak \u2028", "n": [1, 2.5, True, {"k": [{}]}]},
        ],
    )
    def test_bytes_equal_json_dumps(self, tmp_path, n_pairs, provenance):
        pairs = [make_pair(i) for i in range(n_pairs)]
        write_squad(tmp_path / "d1.json", pairs, provenance)
        assert (tmp_path / "d1.json").read_bytes() == squad_oracle_bytes(pairs, provenance)

    @given(
        pairs=tricky_pairs(),
        provenance=st.none() | st.dictionaries(TRICKY_TEXT, TRICKY_TEXT, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps_on_tricky_text(self, tmp_path_factory, pairs, provenance):
        path = tmp_path_factory.getbasetemp() / "tricky.json"
        write_squad(path, pairs, provenance)
        assert path.read_bytes() == squad_oracle_bytes(pairs, provenance)
        assert read_squad(path) == pairs

    def test_lone_surrogate_fails_and_leaves_no_file(self, tmp_path):
        bad = QAPair(
            id="bad",
            question="Why?",
            context="Broken \ud800 text.",
            answer_text="Broken",
            answer_start=0,
            subset=DatasetSubsetId.D1,
            provenance=Provenance.BM25_WEAK,
        )
        with pytest.raises(UnicodeEncodeError):
            write_squad(tmp_path / "d1.json", [make_pair(0), bad, make_pair(1)], {"seed": 13})
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_lines_equal_joined_json_dumps(self, tmp_path, n):
        instances = [
            YesNoInstance(id=f"y{i}", question='q "\u2028?', context="é\n", label="no")
            for i in range(n)
        ]
        write_yesno(tmp_path / "yn.jsonl", instances)
        lines = [
            json.dumps(
                {"id": i.id, "question": i.question, "context": i.context, "label": i.label},
                ensure_ascii=False,
            )
            for i in instances
        ]
        expected = "\n".join(lines) + ("\n" if lines else "")
        assert (tmp_path / "yn.jsonl").read_bytes() == expected.encode("utf-8")

    @given(
        rows=st.lists(
            st.tuples(TRICKY_TEXT, TRICKY_TEXT, TRICKY_TEXT, st.sampled_from(["yes", "no"])),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_lines_equal_json_dumps_on_tricky_text(self, tmp_path_factory, rows):
        instances = [
            YesNoInstance(id=i, question="Q" + q, context="C" + c, label=label)
            for i, q, c, label in rows
        ]
        path = tmp_path_factory.getbasetemp() / "tricky.jsonl"
        write_yesno(path, instances)
        expected = "".join(
            json.dumps(
                {"id": i.id, "question": i.question, "context": i.context, "label": i.label},
                ensure_ascii=False,
            )
            + "\n"
            for i in instances
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_yesno(path) == instances

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"id": 7}, "field 'id': expected a string, got number"),
            ({"question": None}, "field 'question': expected a string, got null"),
            ({"context": ["c"]}, "field 'context': expected a string, got array"),
            ({"label": True}, "field 'label': expected a string or null, got boolean"),
            ({"label": 1}, "field 'label': expected a string or null, got number"),
        ],
    )
    def test_non_string_fields_rejected(self, tmp_path, fields, message):
        good = {"id": "a", "question": "q?", "context": "c", "label": "yes"}
        path = tmp_path / "yn.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **fields}) + "\n")
        for read in (read_source_instances, read_yesno):
            with pytest.raises(ParseError) as raised:
                read(path)
            assert f"{path} line 2: {message}" in str(raised.value)

    def test_null_or_absent_label_is_a_source_without_label(self, tmp_path):
        path = tmp_path / "src.jsonl"
        path.write_text(
            '{"id":"a","question":"q?","context":"c","label":null}\n'
            '{"id":"b","question":"q?","context":"c"}\n'
        )
        assert [s.label for s in read_source_instances(path)] == [None, None]


class TestAbstractsReader:
    def test_duplicate_pmid_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = '{"pmid":"1","sections":[{"label":"C","text":"x"}]}'
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(ValidationError, match="duplicate pmid"):
            read_abstracts(path)

    @settings(max_examples=300, deadline=None)
    @given(pmids=st.lists(
        st.sampled_from(["9", "09", "90", "0", "00", "٩", "+9", "1" * 18, "1" * 19,
                         "1" * 5000, "12345", "012345"]),
        max_size=5,
    ))
    def test_a_pmid_is_a_duplicate_only_of_the_same_string(self, tmp_path_factory, pmids):
        """The reader keeps a decimal pmid as an int; no other pmid may then
        count as its duplicate."""
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        path.write_text("".join(
            json.dumps({"pmid": p, "sections": [{"label": "C", "text": "x"}]}) + "\n" for p in pmids
        ))
        repeated = next((k for k, p in enumerate(pmids) if p in pmids[:k]), None)
        if repeated is None:
            assert [a.pmid for a in read_abstracts(path)] == pmids
        else:
            with pytest.raises(ValidationError, match=f"line {repeated + 1}: duplicate pmid"):
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
        preds = list(read_predictions(path))
        assert preds[0].predicted_text == "x"
        assert preds[1].predicted_label == "yes"

    def test_a_stream_that_reads_each_line_when_taken(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        preds = read_predictions(path)  # no file yet: nothing is opened until a take
        path.write_text('{"id":"a","predicted_text":"x"}\n{"id":"b"}\n')
        assert next(preds) == Prediction(id="a", predicted_text="x")
        with pytest.raises(ValidationError, match="preds.jsonl line 2: need predicted_text"):
            next(preds)

    def test_shapeless_row_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id":"a"}\n')
        with pytest.raises(ValidationError):
            list(read_predictions(path))

    @pytest.mark.parametrize(
        "row, field",
        [
            ('{"id":1,"predicted_text":"x"}', "'id'"),
            ('{"id":null,"predicted_label":"yes"}', "'id'"),
            ('{"id":"q1","predicted_text":7}', "'predicted_text'"),
            ('{"id":"q1","predicted_text":null}', "'predicted_text'"),
            ('{"id":"q1","predicted_text":["x"]}', "'predicted_text'"),
            ('{"id":"q1","predicted_label":7}', "'predicted_label'"),
            ('{"id":"q1","predicted_label":"maybe"}', "'predicted_label'"),
            ('{"id":"q1","predicted_label":"Yes"}', "'predicted_label'"),
            ('{"id":"q1","predicted_text":"x","predicted_label":true}', "'predicted_label'"),
        ],
    )
    def test_mistyped_field_names_file_line_and_field(self, tmp_path, row, field):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id":"a","predicted_text":"x"}\n' + row + "\n")
        with pytest.raises(ParseError, match=f"preds.jsonl line 2: field {field}"):
            list(read_predictions(path))


def squad_file(tmp_path, paragraph):
    article = {"title": "t", "paragraphs": [paragraph]}
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"version": "1.1", "data": [article]}))
    return path


GOOD_QA = {"id": "q1", "question": "What?", "answers": [{"text": "Alpha.", "answer_start": 0}]}


def qa_without(key):
    return {k: v for k, v in GOOD_QA.items() if k != key}


def with_answer(**fields):
    return {**GOOD_QA, "answers": [{**GOOD_QA["answers"][0], **fields}]}


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
            (
                {"context": "Alpha.", "qas": [with_answer(answer_start="zero")]},
                "qa 'q1': field 'answers[0].answer_start': expected an integer, got string",
            ),
            (
                {"context": "Alpha.", "qas": [with_answer(answer_start=0.0)]},
                "qa 'q1': field 'answers[0].answer_start': expected an integer, got number",
            ),
            (
                {"context": "Alpha.", "qas": [with_answer(answer_start=False)]},
                "qa 'q1': field 'answers[0].answer_start': expected an integer, got boolean",
            ),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "subset": "d7"}]},
                "qa 'q1': field 'subset': expected one of d1, d2, d3, d4, pqa_l, pqa_a, got string",
            ),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "subset": ["d1"]}]},
                "qa 'q1': field 'subset': expected one of d1, d2, d3, d4, pqa_l, pqa_a, got array",
            ),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "provenance": "oracle"}]},
                "qa 'q1': field 'provenance': expected one of bm25_weak, template_manual, "
                "pubmed_artificial, got string",
            ),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "provenance": None}]},
                "qa 'q1': field 'provenance': expected one of bm25_weak, template_manual, "
                "pubmed_artificial, got null",
            ),
            (
                {"context": "Alpha.", "qas": [with_answer(text=None)]},
                "qa 'q1': field 'answers[0].text': expected a string, got null",
            ),
            (
                {"context": "Alpha.", "qas": [{**GOOD_QA, "question": 7}]},
                "qa 'q1': field 'question': expected a string, got number",
            ),
            (
                {"context": ["Alpha."], "qas": [GOOD_QA]},
                "qa 'q1': field 'context': expected a string, got array",
            ),
        ],
    )
    def test_unreadable_qa_names_file_and_id(self, tmp_path, paragraph, message):
        path = squad_file(tmp_path, paragraph)
        with pytest.raises(ParseError) as raised:
            read_squad(path, subset=DatasetSubsetId.D1)
        assert str(path) in str(raised.value)
        assert message in str(raised.value)

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "expected a JSON object, got array"),
            ("data", "expected a JSON object, got string"),
            ({"data": [1]}, "data[0]: expected a JSON object, got number"),
            ({"data": {"title": "t"}}, "field 'data': expected an array, got object"),
            (
                {"data": [{"paragraphs": [[]]}]},
                "data[0]: paragraphs[0]: expected a JSON object, got array",
            ),
            ({"data": [{"paragraphs": "p"}]}, "data[0]: field 'paragraphs': expected an array"),
            (
                {"data": [{"paragraphs": [{"context": "A.", "qas": [None]}]}]},
                "data[0]: paragraphs[0]: qas[0]: expected a JSON object, got null",
            ),
            (
                {"data": [{"paragraphs": [{"context": "A.", "qas": 3}]}]},
                "data[0]: paragraphs[0]: field 'qas': expected an array, got number",
            ),
        ],
    )
    def test_non_object_entries_name_file(self, tmp_path, document, message):
        path = tmp_path / "gold.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ParseError) as raised:
            read_squad(path, subset=DatasetSubsetId.D1)
        assert str(raised.value).startswith(f"{path}: ")
        assert message in str(raised.value)

    def test_good_qa_reads(self, tmp_path):
        qa = {**GOOD_QA, "subset": "d3", "provenance": "template_manual"}
        [pair] = read_squad(squad_file(tmp_path, {"context": "Alpha.", "qas": [qa]}))
        assert (pair.subset, pair.provenance) == (DatasetSubsetId.D3, Provenance.TEMPLATE_MANUAL)
        assert (pair.answer_text, pair.answer_start) == ("Alpha.", 0)


LONE_SURROGATE = "a \\u escape decodes to a lone surrogate (U+D800-U+DFFF)"


class TestLoneSurrogate:
    """A \\u escape that decodes to a lone surrogate, which UTF-8 cannot
    encode, is rejected where the JSON is decoded, with the file and the
    line or the qa."""

    @pytest.mark.parametrize(
        "qa, context, where",
        [
            ({**GOOD_QA, "id": "q\ud800"}, "A.", "qa 'q\\ud800'"),
            (GOOD_QA, "A.\udfff", "qa 'q1'"),
            ({**GOOD_QA, "answers": [*GOOD_QA["answers"], {"text": ["\udc00"]}]}, "A.", "qa 'q1'"),
        ],
    )
    def test_squad_names_the_qa(self, tmp_path, qa, context, where):
        path = squad_file(tmp_path, {"context": context, "qas": [qa]})
        with pytest.raises(ParseError) as raised:
            read_squad(path, subset=DatasetSubsetId.D1)
        assert str(raised.value) == f"{path}: {where}: {LONE_SURROGATE}"

    def test_squad_fields_outside_the_qas_are_dropped_unchecked(self, tmp_path):
        article = {"title": "\udc00", "paragraphs": [{"context": "Alpha.", "qas": [GOOD_QA]}]}
        path = tmp_path / "d1.json"
        path.write_text(json.dumps({"version": ["\udbff"], "data": [article]}))
        [pair] = read_squad(path, subset=DatasetSubsetId.D1)
        assert pair.id == "q1"

    def test_jsonl_names_the_line(self, tmp_path):
        path = tmp_path / "pqa_l.jsonl"
        rows = [{"id": "a", "question": "Q?", "context": "C.", "label": "yes"}] * 2
        rows[1] = {**rows[1], "extra": {"\ud800": 1}}
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ParseError) as raised:
            read_yesno(path)
        assert str(raised.value) == f"{path} line 2: {LONE_SURROGATE}"

    def test_json_object_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"covid_filter": {"phrases": ["COVID", "\udfff"]}}))
        with pytest.raises(ParseError) as raised:
            read_json(path)
        assert str(raised.value) == f"{path}: {LONE_SURROGATE}"

    def test_a_pair_and_an_escaped_backslash_read_as_text(self, tmp_path):
        question = "\\ud800 \U0001f600?"  # json writes the emoji as an escaped pair
        paragraph = {"context": "Alpha.", "qas": [{**GOOD_QA, "question": question}]}
        path = squad_file(tmp_path, paragraph)
        assert "\\\\ud800 \\ud83d\\ude00" in path.read_text()
        [pair] = read_squad(path, subset=DatasetSubsetId.D1)
        assert pair.question == question


class TestWriteTextAtomic:
    def test_other_tmp_file_untouched_and_no_temp_left(self, tmp_path):
        stray = tmp_path / "out.json.tmp"
        stray.write_text("another writer's")
        write_text_atomic(tmp_path / "out.json", "new\n")
        write_text_atomic(tmp_path / "out.json", "newer\n")
        assert (tmp_path / "out.json").read_text() == "newer\n"
        assert stray.read_text() == "another writer's"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp"]

    def test_mode_is_what_write_text_gives(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text_atomic(tmp_path / "atomic.txt", "x")
            (tmp_path / "plain.txt").write_text("x")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("atomic.txt", "plain.txt")}
        assert modes == {0o640}

    def test_chunks_written_in_order(self, tmp_path):
        write_text_atomic(tmp_path / "out.txt", (c for c in ["a", "", "bc\n", "é"]))
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "abc\né"

    def test_failing_chunk_source_leaves_no_file(self, tmp_path):
        def chunks():
            yield "written first\n"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_text_atomic(tmp_path / "out.txt", chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(tmp_path / "out.txt", "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []


class TestLinkFileAtomic:
    def test_bytes_linked_as_stored(self, tmp_path):
        raw = b'{"a": "\xc3\xa9"}\r\n\xff\x00 line\rend'
        (tmp_path / "src.bin").write_bytes(raw)
        link_file_atomic(tmp_path / "sub" / "dst.bin", tmp_path / "src.bin")
        assert (tmp_path / "sub" / "dst.bin").read_bytes() == raw
        assert os.path.samefile(tmp_path / "sub" / "dst.bin", tmp_path / "src.bin")
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["dst.bin"]

    def test_a_copy_where_linking_fails_has_the_mode_write_text_atomic_gives(
        self, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        raw = b"x\r\n\xff"
        (tmp_path / "src.txt").write_bytes(raw)
        old = os.umask(0o027)
        try:
            link_file_atomic(tmp_path / "copy.txt", tmp_path / "src.txt")
            write_text_atomic(tmp_path / "atomic.txt", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "copy.txt").read_bytes() == raw
        assert not os.path.samefile(tmp_path / "copy.txt", tmp_path / "src.txt")
        modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("copy.txt", "atomic.txt")}
        assert modes == {0o640}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "copy.txt", "src.txt"]

    def test_missing_source_leaves_target_and_no_temp(self, tmp_path):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "dst.txt").write_text("before\n")
        with pytest.raises(FileNotFoundError):
            link_file_atomic(tmp_path / "out" / "dst.txt", tmp_path / "missing.txt")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["dst.txt"]
        assert (tmp_path / "out" / "dst.txt").read_text() == "before\n"

    def test_relinking_replaces_only_the_link(self, tmp_path):
        write_text_atomic(tmp_path / "a.txt", "old\n")
        link_file_atomic(tmp_path / "b.txt", tmp_path / "a.txt")
        # a link onto a name that already links to the same file
        link_file_atomic(tmp_path / "b.txt", tmp_path / "a.txt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
        write_text_atomic(tmp_path / "c.txt", "new\n")
        link_file_atomic(tmp_path / "b.txt", tmp_path / "c.txt")
        assert (tmp_path / "a.txt").read_text() == "old\n"
        assert (tmp_path / "b.txt").read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "c.txt"]
