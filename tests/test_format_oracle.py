"""The readers of formats.py against the simple readers they replace.

The oracles below are the readers as they were before each one became a
single checked pass per record: every field goes through the `errors` check
helpers, and a yes/no file is read as source records first. They carry the
two rules added with the one-pass readers: a SQuAD qa id must be a string,
and a yes/no line that fails as an instance (no label, a label other than
yes/no, an empty question or context) names the file and the line. The SQuAD
oracle decodes the whole file with json, and carries the rule added with the
streaming reader: the first fault in file order is reported, so an article
that is not an object is found where the articles before it are checked.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medqakit import DatasetSubsetId, Provenance, QAPair, YesNoInstance, formats
from medqakit.errors import INTEGER, STRING, ParseError, ValidationError, check, expected
from medqakit.metrics import Prediction
from medqakit.weak_label import SourceInstance

from tests.test_input_fuzz import BYTES, mutate_bytes, mutate_tree


def oracle_read_jsonl(path, required, build):
    out = []
    with formats.open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path} line {line_number}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: malformed JSON: {exc}") from exc
            if type(raw) is not dict:
                raise expected(where, "a JSON object", raw)
            try:
                for field in required:
                    if field not in raw:
                        raise ParseError(f"missing field {field!r}")
                out.append(build(raw))
            except ValidationError as exc:
                raise type(exc)(f"{where}: {exc}") from exc
    return out


OPTIONAL_STRING = check("a string or null", lambda v: v is None or type(v) is str)
SOURCE_FIELDS = ("id", "question", "context")


def oracle_source_instance(raw):
    return SourceInstance(
        id=STRING("field 'id'", raw["id"]),
        question=STRING("field 'question'", raw["question"]),
        context=STRING("field 'context'", raw["context"]),
        label=OPTIONAL_STRING("field 'label'", raw.get("label")),
    )


def oracle_yesno_instance(raw):
    source = oracle_source_instance(raw)
    if source.label is None:
        raise ValidationError(f"instance {source.id} has no label")
    return YesNoInstance(
        id=source.id, question=source.question, context=source.context, label=source.label
    )


YES_OR_NO = check('"yes" or "no"', lambda v: v in ("yes", "no"))


def oracle_prediction(raw):
    if "predicted_text" not in raw and "predicted_label" not in raw:
        raise ValidationError("need predicted_text or predicted_label")
    STRING("field 'id'", raw["id"])
    if "predicted_text" in raw:
        STRING("field 'predicted_text'", raw["predicted_text"])
    if "predicted_label" in raw:
        YES_OR_NO("field 'predicted_label'", raw["predicted_label"])
    return Prediction(
        id=raw["id"],
        predicted_text=raw.get("predicted_text"),
        predicted_label=raw.get("predicted_label"),
    )


SUBSET_VALUES = tuple(s.value for s in DatasetSubsetId)
PROVENANCE_VALUES = tuple(p.value for p in Provenance)
SUBSET = check("one of " + ", ".join(SUBSET_VALUES), lambda v: v in SUBSET_VALUES)
PROVENANCE = check("one of " + ", ".join(PROVENANCE_VALUES), lambda v: v in PROVENANCE_VALUES)


def oracle_squad_objects(where, parent, key):
    items = parent.get(key, [])
    if type(items) is not list:
        raise expected(f"{where}field {key!r}", "an array", items)
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise expected(f"{where}{key}[{i}]", "a JSON object", item)
    return items


def oracle_squad_pair(paragraph, qa, subset):
    if "id" not in qa:
        raise ParseError("no id")
    if "context" not in paragraph:
        raise ParseError("its paragraph has no context")
    if "question" not in qa:
        raise ParseError("no question")
    answers = qa.get("answers")
    if not isinstance(answers, list) or not answers:
        raise ParseError("no answers")
    answer = answers[0]
    if not isinstance(answer, dict) or not {"text", "answer_start"} <= answer.keys():
        raise ParseError("the first answer needs text and answer_start")
    qa_id = STRING("field 'id'", qa["id"])
    answer_start = INTEGER("field 'answers[0].answer_start'", answer["answer_start"])
    context = STRING("field 'context'", paragraph["context"])
    question = STRING("field 'question'", qa["question"])
    answer_text = STRING("field 'answers[0].text'", answer["text"])
    if qa.get("subset") is not None:
        subset = DatasetSubsetId(SUBSET("field 'subset'", qa["subset"]))
    elif subset is None:
        raise ValidationError("no subset tag")
    provenance = PROVENANCE("field 'provenance'", qa.get("provenance", Provenance.BM25_WEAK.value))
    return QAPair(
        id=qa_id,
        question=question,
        context=context,
        answer_text=answer_text,
        answer_start=answer_start,
        subset=subset,
        provenance=Provenance(provenance),
    )


def oracle_read_squad(path, subset=None):
    articles = formats.read_json(path).get("data", [])
    if type(articles) is not list:
        raise expected(f"{path}: field 'data'", "an array", articles)
    pairs = []
    for a, article in enumerate(articles):
        if type(article) is not dict:
            raise expected(f"{path}: data[{a}]", "a JSON object", article)
        where = f"{path}: data[{a}]: "
        for p, paragraph in enumerate(oracle_squad_objects(where, article, "paragraphs")):
            for qa in oracle_squad_objects(f"{where}paragraphs[{p}]: ", paragraph, "qas"):
                try:
                    pairs.append(oracle_squad_pair(paragraph, qa, subset))
                except ValidationError as exc:
                    raise type(exc)(f"{path}: qa {qa.get('id')!r}: {exc}") from exc
    return pairs


JSONL_READERS = {
    "yesno": (formats.read_yesno, SOURCE_FIELDS, oracle_yesno_instance),
    "source": (formats.read_source_instances, SOURCE_FIELDS, oracle_source_instance),
    "predictions": (formats.read_predictions, ("id",), oracle_prediction),
}


def outcome(read):
    """What a reader does: its value, or its error's type and text."""
    try:
        return ("value", read())
    except ValidationError as exc:
        return (type(exc), str(exc))


# Letters, case, punctuation, JSON escapes and non-ASCII text.
TEXT = st.text(alphabet="aAzZ .,?-'\"\\\t\néßΣ \U0001f600", max_size=12)
EXTRA_VALUE = st.none() | st.booleans() | st.integers() | TEXT | st.lists(st.integers(), max_size=2)
EXTRA_KEYS = st.dictionaries(st.sampled_from(["title", "note", "x", "is_impossible"]), EXTRA_VALUE,
                             max_size=2)


def shuffled(data, obj):
    """obj with each object's keys in a drawn order, recursively."""
    if isinstance(obj, dict):
        items = data.draw(st.permutations(list(obj.items())))
        return {key: shuffled(data, value) for key, value in items}
    if isinstance(obj, list):
        return [shuffled(data, value) for value in obj]
    return obj


def with_extra(data, obj):
    extra = data.draw(EXTRA_KEYS)
    return {**{k: v for k, v in extra.items() if k not in obj}, **obj}


def draw_qa(data, context):
    start = data.draw(st.integers(0, len(context)))
    end = data.draw(st.integers(start, len(context)))
    qa = {
        "id": data.draw(TEXT),
        "question": "Q" + data.draw(TEXT),
        "answers": [{"text": context[start:end], "answer_start": start}],
    }
    tag = data.draw(st.sampled_from([None, "absent", *SUBSET_VALUES]))
    if tag != "absent":
        qa["subset"] = tag
    provenance = data.draw(st.sampled_from(["absent", *PROVENANCE_VALUES]))
    if provenance != "absent":
        qa["provenance"] = provenance
    return with_extra(data, qa)


def draw_squad(data):
    articles = []
    for _ in range(data.draw(st.integers(0, 3))):
        paragraphs = []
        for _ in range(data.draw(st.integers(0, 2))):
            context = "C" + data.draw(TEXT)
            qas = [draw_qa(data, context) for _ in range(data.draw(st.integers(0, 2)))]
            paragraphs.append(with_extra(data, {"context": context, "qas": qas}))
        articles.append(with_extra(data, {"paragraphs": paragraphs}))
    return shuffled(data, with_extra(data, {"version": "1.1", "data": articles}))


def dump(data, document) -> bytes:
    layout = data.draw(st.sampled_from([{}, {"indent": 2}, {"indent": "\t"},
                                        {"separators": (",", ":")},
                                        {"separators": ("\r\n ,\t", " :\n")}]))
    ascii_only = data.draw(st.booleans())
    space = st.text(alphabet=" \t\r\n", max_size=3)
    text = data.draw(space) + json.dumps(document, ensure_ascii=ascii_only, **layout)
    return (text + data.draw(space)).encode("utf-8")


# Characters the SQuAD reader reads at a time: small ones run every refill path.
CHUNKS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, formats._CHUNK_CHARS])


def squad_outcomes(path, subset):
    read = outcome(lambda: formats.read_squad(path, subset=subset))
    return read, outcome(lambda: oracle_read_squad(path, subset))


SUBSET_ARGS = st.sampled_from([None, *DatasetSubsetId])
ORACLE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.function_scoped_fixture],
)


@ORACLE_SETTINGS
@given(data=st.data())
def test_squad_reader_equals_oracle_on_valid_documents(tmp_path, monkeypatch, data):
    monkeypatch.setattr(formats, "_CHUNK_CHARS", data.draw(CHUNKS, label="chunk"))
    path = tmp_path / "d.json"
    path.write_bytes(dump(data, draw_squad(data)))
    subset = data.draw(SUBSET_ARGS)
    result, oracle = squad_outcomes(path, subset)
    assert result == oracle
    if subset is not None:
        assert result[0] == "value"


def containers(node, keys=()):
    """The keys that lead to each object and array in node, node included."""
    yield keys
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from containers(child, (*keys, key))


def mutate_somewhere(data, document):
    """document with one of its objects or arrays put through mutate_tree."""
    keys = data.draw(st.sampled_from(list(containers(document))), label="node")
    if not keys:
        return mutate_tree(data, document)
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = mutate_tree(data, parent[keys[-1]])
    return copy


@ORACLE_SETTINGS
@given(data=st.data())
def test_squad_reader_equals_oracle_on_one_fault(tmp_path, monkeypatch, data):
    monkeypatch.setattr(formats, "_CHUNK_CHARS", data.draw(CHUNKS, label="chunk"))
    document = mutate_somewhere(data, draw_squad(data))
    path = tmp_path / "d.json"
    path.write_bytes(json.dumps(document).encode("utf-8"))
    result, oracle = squad_outcomes(path, data.draw(SUBSET_ARGS))
    assert result == oracle


NOT_AN_OBJECT = st.none() | st.booleans() | st.integers() | st.floats() | TEXT | st.lists(
    st.integers(), max_size=2
)


def with_fault(data, raw: bytes, document, fault: str) -> bytes:
    """The text of a valid document with one fault of the given kind."""
    if fault == "truncated":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if fault == "garbled":
        start = data.draw(st.integers(0, len(raw)))
        end = data.draw(st.integers(start, min(len(raw), start + 6)))
        return raw[:start] + data.draw(BYTES) + raw[end:]
    if fault == "bom":
        return b"\xef\xbb\xbf" + raw
    articles = document["data"]
    articles.insert(data.draw(st.integers(0, len(articles))), data.draw(NOT_AN_OBJECT))
    return dump(data, document)


@ORACLE_SETTINGS
@given(data=st.data(), fault=st.sampled_from(["truncated", "garbled", "bom", "article"]))
def test_squad_reader_equals_oracle_on_one_fault_in_the_text(tmp_path, monkeypatch, data, fault):
    """Truncated or garbled text, a byte order mark, or an article that is
    not an object: the streaming reader reports what json.load and the
    checks after it report, whatever the chunk size."""
    monkeypatch.setattr(formats, "_CHUNK_CHARS", data.draw(CHUNKS, label="chunk"))
    document = draw_squad(data)
    path = tmp_path / "d.json"
    path.write_bytes(with_fault(data, dump(data, document), document, fault))
    # with a subset given, every qa of a drawn document reads
    result, oracle = squad_outcomes(path, DatasetSubsetId.D2)
    assert result == oracle
    if fault in ("bom", "article"):
        assert result[0] is ParseError


ARTICLE = {"paragraphs": [{"context": "Abc.", "qas": [
    {"id": "q", "question": "Q?", "answers": [{"text": "Abc.", "answer_start": 0}]}]}]}


@pytest.mark.parametrize("chunk", range(1, 8))
def test_numbers_that_end_at_a_chunk_edge(tmp_path, monkeypatch, chunk):
    """A top-level number is decoded whole wherever a chunk ends in it or
    just after it, and a `data` that is a number is named as one."""
    monkeypatch.setattr(formats, "_CHUNK_CHARS", chunk)
    path = tmp_path / "d.json"
    for number in ("7", "12345", "-0.5e-3", "1E+2", "3.25"):
        for pad in range(chunk + 1):
            texts = (
                "{" + " " * pad + f'"n": {number}, "data": [{json.dumps(ARTICLE)}], "m": {number}}}',
                "{" + " " * pad + f'"data": {number}}}',
            )
            for text in texts:
                path.write_text(text)
                result, oracle = squad_outcomes(path, DatasetSubsetId.D1)
                assert result == oracle, (number, pad, text)


def test_a_second_data_field_is_rejected(tmp_path):
    """json keeps the last of two equal keys; the streaming reader rejects a
    second `data` rather than read one array and drop the other."""
    path = tmp_path / "d.json"
    path.write_text(f'{{"data": [], "version": "1.1", "data": [{json.dumps(ARTICLE)}]}}')
    assert oracle_read_squad(path, DatasetSubsetId.D1)
    with pytest.raises(ParseError, match=r"d\.json: duplicate field 'data'$"):
        formats.read_squad(path, subset=DatasetSubsetId.D1)


def test_the_first_fault_in_file_order_is_reported(tmp_path):
    """An article without a subset tag comes before an article that is not
    an object, which comes before text that is not JSON."""
    untagged = json.dumps(ARTICLE)
    path = tmp_path / "d.json"
    path.write_text(f'{{"data": [{untagged}, 5, {untagged}], "version": oops}}')
    assert outcome(lambda: formats.read_squad(path)) == (
        ValidationError, f"{path}: qa 'q': no subset tag"
    )
    path.write_text(f'{{"data": [5, {untagged}], "version": oops}}')
    assert outcome(lambda: formats.read_squad(path)) == (
        ParseError, f"{path}: data[0]: expected a JSON object, got number"
    )
    path.write_text(f'{{"data": [], "version": oops}}')
    assert outcome(lambda: formats.read_squad(path))[1].startswith(f"{path}: malformed JSON: ")


def test_squad_field_faults_in_the_oracle_order(tmp_path):
    """A qa with every field wrong, fixed one field at a time: each step
    reports the fault the oracle reports first."""
    qa = {"id": None, "question": 1, "answers": [{"text": 2, "answer_start": "0"}],
          "subset": "d9", "provenance": "x"}
    paragraph = {"context": [], "qas": [qa]}
    fixes = [(qa, "id", "q"), (qa["answers"][0], "answer_start", 0), (paragraph, "context", "C"),
             (qa, "question", "Q"), (qa["answers"][0], "text", ""), (qa, "subset", "d1"),
             (qa, "provenance", "bm25_weak")]
    path = tmp_path / "d.json"
    for node, key, value in fixes:
        path.write_text(json.dumps({"data": [{"paragraphs": [paragraph]}]}))
        result, oracle = squad_outcomes(path, None)
        assert result == oracle and result[0] is ParseError
        node[key] = value
    path.write_text(json.dumps({"data": [{"paragraphs": [paragraph]}]}))
    assert squad_outcomes(path, None)[0][0] == "value"


def draw_record(data, kind):
    if kind == "predictions":
        record = {"id": data.draw(TEXT)}
        shape = data.draw(st.sampled_from(["text", "label", "both"]))
        if shape != "label":
            record["predicted_text"] = data.draw(TEXT)
        if shape != "text":
            record["predicted_label"] = data.draw(st.sampled_from(["yes", "no"]))
    else:
        record = {"id": data.draw(TEXT), "question": "Q" + data.draw(TEXT),
                  "context": "C" + data.draw(TEXT)}
        labels = ["yes", "no"] + (["absent", None] if kind == "source" else [])
        label = data.draw(st.sampled_from(labels))
        if label != "absent":
            record["label"] = label
    return shuffled(data, with_extra(data, record))


def jsonl_lines(data, records) -> list[str]:
    """Each record on its own line, with drawn spacing and blank lines."""
    lines = []
    for record in records:
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", " ", "\t"])))
        pad = data.draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + json.dumps(record, ensure_ascii=data.draw(st.booleans())) + pad)
    return lines


def jsonl_outcomes(path, kind):
    read, required, build = JSONL_READERS[kind]
    return outcome(lambda: read(path)), outcome(lambda: oracle_read_jsonl(path, required, build))


@ORACLE_SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(JSONL_READERS)))
def test_jsonl_readers_equal_oracles_on_valid_files(tmp_path, data, kind):
    records = [draw_record(data, kind) for _ in range(data.draw(st.integers(0, 4)))]
    path = tmp_path / "r.jsonl"
    path.write_text("\n".join(jsonl_lines(data, records)) + "\n", encoding="utf-8")
    result, oracle = jsonl_outcomes(path, kind)
    assert result == oracle
    assert result[0] == "value"


@pytest.mark.parametrize("kind", sorted(JSONL_READERS))
@settings(ORACLE_SETTINGS, max_examples=100)
@given(data=st.data())
def test_jsonl_readers_equal_oracles_on_one_fault(tmp_path, data, kind):
    records = [draw_record(data, kind) for _ in range(data.draw(st.integers(1, 4)))]
    path = tmp_path / "r.jsonl"
    if data.draw(st.booleans(), label="byte mutation"):
        text = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
        path.write_bytes(mutate_bytes(data, text))
    else:
        line = data.draw(st.integers(0, len(records) - 1), label="line")
        records[line] = mutate_tree(data, records[line])
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    result, oracle = jsonl_outcomes(path, kind)
    assert result == oracle


@pytest.mark.parametrize(
    "kind, record, fixes",
    [
        ("yesno", {"id": 1, "question": 2, "context": 3, "label": 4},
         [("id", "a"), ("question", "Q"), ("context", "C"), ("label", "yes")]),
        ("source", {"id": 1, "question": 2, "context": 3, "label": 4},
         [("id", "a"), ("question", "Q"), ("context", "C"), ("label", None)]),
        ("yesno", {"id": "a", "question": " ", "context": " ", "label": "maybe"},
         [("label", "no"), ("question", "Q"), ("context", "C")]),
        ("predictions", {"id": 1, "predicted_text": 2, "predicted_label": 3},
         [("id", "a"), ("predicted_text", "x"), ("predicted_label", "yes")]),
    ],
)
def test_jsonl_field_faults_in_the_oracle_order(tmp_path, kind, record, fixes):
    path = tmp_path / "r.jsonl"
    for key, value in fixes:
        path.write_text(json.dumps(record) + "\n")
        result, oracle = jsonl_outcomes(path, kind)
        assert result == oracle and result[0] in (ParseError, ValidationError)
        record[key] = value
    path.write_text(json.dumps(record) + "\n")
    assert jsonl_outcomes(path, kind)[0][0] == "value"


def test_several_faults_report_the_first_in_file_order(tmp_path):
    rows = [{"id": f"r{i}", "question": "Q?", "context": "C.", "label": "yes"} for i in range(6)]
    rows[2]["label"] = "maybe"
    rows[4]["id"] = 7
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert outcome(lambda: formats.read_yesno(path)) == (
        ValidationError, f"{path} line 3: r2: label must be 'yes' or 'no', got 'maybe'"
    )
