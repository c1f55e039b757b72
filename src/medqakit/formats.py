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
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from .corpus import (
    DatasetSubsetId,
    Provenance,
    QAPair,
    StructuredAbstract,
    YesNoInstance,
    iter_abstract_records,
)
from .errors import ParseError, ValidationError
from .metrics import Prediction
from .weak_label import SourceInstance

SQUAD_VERSION = "1.1"


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


def read_abstracts(path: str | Path) -> list[StructuredAbstract]:
    """Load a JSONL abstract corpus, enforcing pmid uniqueness."""
    path = Path(path)
    with open_text(path) as handle:
        try:
            return list(iter_abstract_records(handle))
        except ValidationError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _jsonl_objects(path: Path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Line number and object of each non-blank line; the required fields must be present."""
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path} line {line_number}: malformed JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise ParseError(f"{path} line {line_number}: expected a JSON object")
            for field in required:
                if field not in raw:
                    raise ValidationError(f"{path} line {line_number}: missing field {field!r}")
            yield line_number, raw


def read_source_instances(path: str | Path) -> list[SourceInstance]:
    """Load raw yes/no-style source records; degenerate contexts are allowed.

    id, question and context must be JSON strings; label a string, null or
    absent.
    """
    path = Path(path)
    instances = []
    for line_number, raw in _jsonl_objects(path, ("id", "question", "context")):
        for field in ("id", "question", "context", "label"):
            value = raw.get(field)
            if not isinstance(value, str) and not (field == "label" and value is None):
                raise ParseError(
                    f"{path} line {line_number}: field {field!r} must be a string, got {value!r}"
                )
        instances.append(
            SourceInstance(
                id=raw["id"],
                question=raw["question"],
                context=raw["context"],
                label=raw.get("label"),
            )
        )
    return instances


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


def write_yesno(path: str | Path, instances: Sequence[YesNoInstance]) -> None:
    write_text_atomic(
        path,
        (
            json.dumps(
                {"id": i.id, "question": i.question, "context": i.context, "label": i.label},
                ensure_ascii=False,
            )
            + "\n"
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


def _squad_qa_problem(paragraph: dict, qa: dict) -> str | None:
    """Why the qa cannot be read, or None."""
    answers = qa.get("answers")
    if "id" not in qa:
        return "no id"
    if "context" not in paragraph:
        return "its paragraph has no context"
    if "question" not in qa:
        return "no question"
    if not isinstance(answers, list) or not answers:
        return "no answers"
    answer = answers[0]
    if not isinstance(answer, dict) or not {"text", "answer_start"} <= answer.keys():
        return "the first answer needs text and answer_start"
    if type(answer["answer_start"]) is not int:
        return f"answer_start must be an integer, got {answer['answer_start']!r}"
    texts = {
        "context": paragraph["context"],
        "question": qa["question"],
        "answer text": answer["text"],
    }
    for name, value in texts.items():
        if not isinstance(value, str):
            return f"{name} must be a string, got {value!r}"
    if qa.get("subset") not in (None, *_SUBSET_VALUES):
        return f"unknown subset {qa['subset']!r}"
    if "provenance" in qa and qa["provenance"] not in _PROVENANCE_VALUES:
        return f"unknown provenance {qa['provenance']!r}"
    return None


def _squad_objects(path: Path, parent: dict, key: str) -> list[dict]:
    """`parent[key]`, which must be absent or a list of JSON objects."""
    items = parent.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{path}: {key!r} must be a list, got {type(items).__name__}")
    for item in items:
        if not isinstance(item, dict):
            raise ParseError(
                f"{path}: each {key!r} entry must be a JSON object, got {type(item).__name__}"
            )
    return items


def read_squad(
    path: str | Path,
    *,
    subset: DatasetSubsetId | None = None,
    provenance: Provenance = Provenance.BM25_WEAK,
) -> list[QAPair]:
    """Load extractive pairs back from the SQuAD shape.

    Subset and provenance come from the per-qa fields when present, else
    from the arguments.
    """
    path = Path(path)
    try:
        with open_text(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: the top level must be a JSON object, got {type(raw).__name__}")
    pairs = []
    for article in _squad_objects(path, raw, "data"):
        for paragraph in _squad_objects(path, article, "paragraphs"):
            for qa in _squad_objects(path, paragraph, "qas"):
                problem = _squad_qa_problem(paragraph, qa)
                if problem is not None:
                    raise ParseError(f"{path}: qa {qa.get('id')!r}: {problem}")
                context = paragraph["context"]
                answer = qa["answers"][0]
                qa_subset = qa.get("subset")
                if qa_subset is None:
                    if subset is None:
                        raise ValidationError(f"{path}: qa {qa.get('id')} has no subset tag")
                    resolved_subset = subset
                else:
                    resolved_subset = DatasetSubsetId(qa_subset)
                pairs.append(
                    QAPair(
                        id=str(qa["id"]),
                        question=qa["question"],
                        context=context,
                        answer_text=answer["text"],
                        answer_start=answer["answer_start"],
                        subset=resolved_subset,
                        provenance=Provenance(qa.get("provenance", provenance.value)),
                    )
                )
    return pairs


def read_predictions(path: str | Path) -> list[Prediction]:
    """Load predictions JSONL: {id, predicted_text} or {id, predicted_label}.

    id and predicted_text must be JSON strings, predicted_label "yes" or "no".
    """
    out = []
    for line_number, raw in _jsonl_objects(Path(path), ("id",)):
        if "predicted_text" not in raw and "predicted_label" not in raw:
            raise ValidationError(
                f"{path} line {line_number}: need predicted_text or predicted_label"
            )
        for field in ("id", "predicted_text"):
            if field in raw and not isinstance(raw[field], str):
                raise ParseError(
                    f"{path} line {line_number}: field {field!r} must be a string, "
                    f"got {raw[field]!r}"
                )
        if "predicted_label" in raw and raw["predicted_label"] not in ("yes", "no"):
            raise ParseError(
                f"{path} line {line_number}: field 'predicted_label' must be 'yes' or 'no', "
                f"got {raw['predicted_label']!r}"
            )
        out.append(
            Prediction(
                id=raw["id"],
                predicted_text=raw.get("predicted_text"),
                predicted_label=raw.get("predicted_label"),
            )
        )
    return out


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
