"""Readers and writers for the on-disk interchange formats.

Datasets are written deterministically (stable key order, no timestamps) so
reruns with the same config and seed are byte-identical. Extractive data
uses the SQuAD-style nested JSON shape; yes/no data is flat JSONL.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from . import corpus
from .corpus import DatasetSubsetId, Provenance, QAPair, StructuredAbstract, YesNoInstance
from .errors import INTEGER, STRING, ParseError, ValidationError, check, expected
from .metrics import Prediction
from .weak_label import SourceInstance

SQUAD_VERSION = "1.1"

T = TypeVar("T")


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write via a temp file and rename so partial files never appear.

    `text` is one string or an iterable of string chunks, written as they
    come. The temp file gets a unique name in the target directory and is
    removed if the write fails; the written file has the mode
    `Path.write_text` gives a new file (0o666 less the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def read_text_chunks(path: str | Path) -> Iterator[str]:
    """The text of a UTF-8 file in chunks of up to 1 MiB characters, line
    endings as stored."""
    with Path(path).open(encoding="utf-8", newline="") as handle:
        yield from iter(lambda: handle.read(1 << 20), "")


@contextmanager
def open_text(path: Path) -> Iterator[TextIO]:
    """An input file opened as UTF-8 text. Reading bytes that are not UTF-8
    raises a ParseError naming the file."""
    with path.open(encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_json_atomic(path: str | Path, obj: Any) -> None:
    write_text_atomic(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object a UTF-8 file holds. Bytes that are not UTF-8, text
    that is not JSON and a top level that is not an object each raise a
    ParseError naming the file."""
    path = Path(path)
    with open_text(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    if type(raw) is not dict:
        raise expected(str(path), "a JSON object", raw)
    return raw


def read_object(where: str, raw: Any, required: Sequence[str], build: Callable[[dict], T]) -> T:
    """build(raw) for a JSON object holding every required field. Each error,
    a ValidationError that build raises included, starts with `where`."""
    if type(raw) is not dict:
        raise expected(where, "a JSON object", raw)
    try:
        for field in required:
            if field not in raw:
                raise ParseError(f"missing field {field!r}")
        return build(raw)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _read_jsonl(path: Path, required: Sequence[str], build: Callable[[dict], T]) -> list[T]:
    """build(object) for the object on each non-blank line; every error
    names the file and the line."""
    out = []
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path} line {line_number}"
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: malformed JSON: {exc}") from exc
            out.append(read_object(where, raw, required, build))
    return out


def read_abstracts(path: str | Path) -> list[StructuredAbstract]:
    """Load a JSONL abstract corpus, enforcing pmid uniqueness."""
    seen: set[str] = set()

    def build(raw: dict) -> StructuredAbstract:
        # looked up on the module for each record, so a wrapper set there sees every one
        abstract = corpus.parse_abstract_record(raw)
        if abstract.pmid in seen:
            raise ValidationError(f"duplicate pmid {abstract.pmid!r}")
        seen.add(abstract.pmid)
        return abstract

    return _read_jsonl(Path(path), ("pmid", "sections"), build)


_OPTIONAL_STRING = check("a string or null", lambda v: v is None or type(v) is str)


def _source_instance(raw: dict) -> SourceInstance:
    return SourceInstance(
        id=STRING("field 'id'", raw["id"]),
        question=STRING("field 'question'", raw["question"]),
        context=STRING("field 'context'", raw["context"]),
        label=_OPTIONAL_STRING("field 'label'", raw.get("label")),
    )


def read_source_instances(path: str | Path) -> list[SourceInstance]:
    """Load raw yes/no-style source records; degenerate contexts are allowed.

    id, question and context must be JSON strings; label a string, null or
    absent.
    """
    return _read_jsonl(Path(path), ("id", "question", "context"), _source_instance)


def read_yesno(path: str | Path) -> list[YesNoInstance]:
    """Load validated yes/no instances from JSONL."""
    instances = []
    for source in read_source_instances(path):
        if source.label is None:
            raise ValidationError(f"{path}: instance {source.id} has no label")
        instances.append(
            YesNoInstance(
                id=source.id, question=source.question, context=source.context, label=source.label
            )
        )
    return instances


# One yes/no instance as json.dumps(..., ensure_ascii=False) lays it out.
_YESNO_LINE = '{"id": %s, "question": %s, "context": %s, "label": %s}\n'


def write_yesno(path: str | Path, instances: Sequence[YesNoInstance]) -> None:
    """One JSON object per line; the string fields go through json's own
    (C) string encoder, as in `_squad_chunks`."""
    enc = json.encoder.encode_basestring
    write_text_atomic(
        path,
        (
            _YESNO_LINE % (enc(i.id), enc(i.question), enc(i.context), enc(i.label))
            for i in instances
        ),
    )


# One SQuAD article per pair, laid out as json.dumps(..., indent=2,
# sort_keys=True) lays it out as an item of the top-level "data" list.
_SQUAD_ARTICLE = """
    {
      "paragraphs": [
        {
          "context": %s,
          "qas": [
            {
              "answers": [
                {
                  "answer_start": %d,
                  "text": %s
                }
              ],
              "id": %s,
              "provenance": %s,
              "question": %s,
              "subset": %s
            }
          ]
        }
      ],
      "title": %s
    }"""


def _squad_chunks(pairs: Sequence[QAPair], provenance: Mapping[str, Any] | None) -> Iterator[str]:
    """The text of `json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True)`
    plus a newline, one article per chunk.

    With `indent`, json.dumps puts every value through its pure-Python
    encoder and builds the whole text before it returns; here only the
    string leaves are encoded, by json's own (C) string encoder.
    """
    enc = json.encoder.encode_basestring
    yield '{\n  "data": ['
    separator = ""
    for pair in pairs:
        yield separator + _SQUAD_ARTICLE % (
            enc(pair.context),
            pair.answer_start,
            enc(pair.answer_text),
            enc(pair.id),
            enc(pair.provenance.value),
            enc(pair.question),
            enc(pair.subset.value),
            enc(pair.id),
        )
        separator = ","
    yield "\n  ]," if separator else "],"
    if provenance is not None:
        block = json.dumps(dict(provenance), ensure_ascii=False, indent=2, sort_keys=True)
        yield '\n  "provenance": ' + block.replace("\n", "\n  ") + ","
    yield f'\n  "version": "{SQUAD_VERSION}"\n}}\n'


def write_squad(
    path: str | Path, pairs: Sequence[QAPair], provenance: Mapping[str, Any] | None = None
) -> None:
    """Write pairs in the SQuAD shape: one article per pair, title = pair id.

    The bytes are those of the whole document put through
    `json.dumps(..., ensure_ascii=False, indent=2, sort_keys=True)`.
    """
    write_text_atomic(path, _squad_chunks(pairs, provenance))


_SUBSET_VALUES = tuple(s.value for s in DatasetSubsetId)
_PROVENANCE_VALUES = tuple(p.value for p in Provenance)
_SUBSET = check("one of " + ", ".join(_SUBSET_VALUES), lambda v: v in _SUBSET_VALUES)
_PROVENANCE = check("one of " + ", ".join(_PROVENANCE_VALUES), lambda v: v in _PROVENANCE_VALUES)


def _squad_objects(where: str, parent: dict, key: str) -> list[dict]:
    """`parent[key]`, which must be absent or an array of JSON objects;
    `where`, ending in ": ", names the file and `parent`."""
    items = parent.get(key, [])
    if type(items) is not list:
        raise expected(f"{where}field {key!r}", "an array", items)
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise expected(f"{where}{key}[{i}]", "a JSON object", item)
    return items


def _squad_pair(paragraph: dict, qa: dict, subset: DatasetSubsetId | None) -> QAPair:
    """The pair of one qa; errors name the field, the reader adds the file and qa."""
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
    answer_start = INTEGER("field 'answers[0].answer_start'", answer["answer_start"])
    context = STRING("field 'context'", paragraph["context"])
    question = STRING("field 'question'", qa["question"])
    answer_text = STRING("field 'answers[0].text'", answer["text"])
    if qa.get("subset") is not None:
        subset = DatasetSubsetId(_SUBSET("field 'subset'", qa["subset"]))
    elif subset is None:
        raise ValidationError("no subset tag")
    provenance = _PROVENANCE("field 'provenance'", qa.get("provenance", Provenance.BM25_WEAK.value))
    return QAPair(
        id=str(qa["id"]),
        question=question,
        context=context,
        answer_text=answer_text,
        answer_start=answer_start,
        subset=subset,
        provenance=Provenance(provenance),
    )


def read_squad(path: str | Path, *, subset: DatasetSubsetId | None = None) -> list[QAPair]:
    """Load extractive pairs back from the SQuAD shape.

    A qa's subset comes from its `subset` field, else from the argument. Its
    provenance comes from its `provenance` field; a qa without one reads as
    bm25_weak, whatever its subset.
    """
    path = Path(path)
    pairs = []
    for a, article in enumerate(_squad_objects(f"{path}: ", read_json(path), "data")):
        where = f"{path}: data[{a}]: "
        for p, paragraph in enumerate(_squad_objects(where, article, "paragraphs")):
            for qa in _squad_objects(f"{where}paragraphs[{p}]: ", paragraph, "qas"):
                try:
                    pairs.append(_squad_pair(paragraph, qa, subset))
                except ValidationError as exc:
                    raise type(exc)(f"{path}: qa {qa.get('id')!r}: {exc}") from exc
    return pairs


_YES_OR_NO = check('"yes" or "no"', lambda v: v in ("yes", "no"))


def _prediction(raw: dict) -> Prediction:
    if "predicted_text" not in raw and "predicted_label" not in raw:
        raise ValidationError("need predicted_text or predicted_label")
    STRING("field 'id'", raw["id"])
    if "predicted_text" in raw:
        STRING("field 'predicted_text'", raw["predicted_text"])
    if "predicted_label" in raw:
        _YES_OR_NO("field 'predicted_label'", raw["predicted_label"])
    return Prediction(
        id=raw["id"],
        predicted_text=raw.get("predicted_text"),
        predicted_label=raw.get("predicted_label"),
    )


def read_predictions(path: str | Path) -> list[Prediction]:
    """Load predictions JSONL: {id, predicted_text} or {id, predicted_label}.

    id and predicted_text must be JSON strings, predicted_label "yes" or "no".
    """
    return _read_jsonl(Path(path), ("id",), _prediction)


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
