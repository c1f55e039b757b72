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
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

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


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file and rename so partial files never appear.

    The temp file gets a unique name in the target directory and is removed
    if the write fails; the written file has the mode `Path.write_text`
    gives a new file (0o666 less the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_json_atomic(path: str | Path, obj: Any) -> None:
    write_text_atomic(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def read_abstracts(path: str | Path) -> list[StructuredAbstract]:
    """Load a JSONL abstract corpus, enforcing pmid uniqueness."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        try:
            return list(iter_abstract_records(handle))
        except ValidationError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _jsonl_objects(path: Path, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Line number and object of each non-blank line; the required fields must be present."""
    with path.open(encoding="utf-8") as handle:
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
    """Load raw yes/no-style source records; degenerate contexts are allowed."""
    return [
        SourceInstance(
            id=str(raw["id"]),
            question=str(raw["question"]),
            context=str(raw["context"]),
            label=None if raw.get("label") is None else str(raw["label"]),
        )
        for _, raw in _jsonl_objects(Path(path), ("id", "question", "context"))
    ]


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
    lines = [
        json.dumps(
            {"id": i.id, "question": i.question, "context": i.context, "label": i.label},
            ensure_ascii=False,
        )
        for i in instances
    ]
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def squad_dict(pairs: Sequence[QAPair], provenance: Mapping[str, Any] | None = None) -> dict:
    """Render pairs in the SQuAD shape: one article per pair, title = pair id."""
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
    out: dict[str, Any] = {"version": SQUAD_VERSION, "data": data}
    if provenance is not None:
        out["provenance"] = dict(provenance)
    return out


def write_squad(
    path: str | Path, pairs: Sequence[QAPair], provenance: Mapping[str, Any] | None = None
) -> None:
    write_json_atomic(path, squad_dict(pairs, provenance))


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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    pairs = []
    for article in raw.get("data", ()):
        for paragraph in article.get("paragraphs", ()):
            for qa in paragraph.get("qas", ()):
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
    """Load predictions JSONL: {id, predicted_text} or {id, predicted_label}."""
    out = []
    for line_number, raw in _jsonl_objects(Path(path), ("id",)):
        if "predicted_text" not in raw and "predicted_label" not in raw:
            raise ValidationError(
                f"{path} line {line_number}: need predicted_text or predicted_label"
            )
        out.append(
            Prediction(
                id=str(raw["id"]),
                predicted_text=raw.get("predicted_text"),
                predicted_label=raw.get("predicted_label"),
            )
        )
    return out


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
