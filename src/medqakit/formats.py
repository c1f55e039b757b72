"""Readers and writers for the on-disk interchange formats.

Datasets are written deterministically (stable key order, no timestamps) so
reruns with the same config and seed are byte-identical. Extractive data
uses the SQuAD-style nested JSON shape; yes/no data is flat JSONL.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from . import corpus
from .corpus import (
    DatasetSubsetId,
    Prediction,
    Provenance,
    QAPair,
    SourceInstance,
    StructuredAbstract,
    YesNoInstance,
)
from .errors import (
    INTEGER,
    STRING,
    ContractViolation,
    ParseError,
    ValidationError,
    check,
    expected,
)

SQUAD_VERSION = "1.1"

T = TypeVar("T")


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[int]:
    """A descriptor of a new temp file that replaces `path` when the block
    ends without an error; the block must close the descriptor.

    The temp file gets a unique name in the target directory and is removed
    if the block fails; the written file has the mode `Path.write_text`
    gives a new file (0o666 less the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        yield fd
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


@contextmanager
def atomic_text_files(paths: Sequence[str | Path]) -> Iterator[list[TextIO]]:
    """A UTF-8 handle per path, written as `write_text_atomic` writes: every
    path is replaced when the block ends without an error, none if it fails."""
    with ExitStack() as stack:
        fds = [stack.enter_context(_atomic_file(path)) for path in paths]
        yield [stack.enter_context(os.fdopen(fd, "w", encoding="utf-8")) for fd in fds]


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write via a temp file and rename so partial files never appear.

    `text` is one string or an iterable of string chunks, written as they
    come, as UTF-8.
    """
    with atomic_text_files([path]) as (handle,):
        handle.writelines((text,) if isinstance(text, str) else text)


def link_file_atomic(path: str | Path, source: str | Path) -> None:
    """Make `path` a hard link to `source`, put in place the way
    `write_text_atomic` puts a file: a link under a temp name in the target
    directory, then a rename. Where the file system cannot link, `path` gets
    a copy of the bytes, with the mode `write_text_atomic` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        os.link(source, tmp)
    except OSError:
        with _atomic_file(path) as fd, os.fdopen(fd, "wb") as handle:
            with Path(source).open("rb") as src:
                shutil.copyfileobj(src, handle)
        return
    try:
        os.replace(tmp, path)
    finally:
        # a rename onto a link to the same file leaves both names in place
        tmp.unlink(missing_ok=True)


@contextmanager
def open_text(path: Path) -> Iterator[TextIO]:
    """An input file opened as UTF-8 text. Reading bytes that are not UTF-8
    raises a ParseError naming the file."""
    with path.open(encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


# A string UTF-8 cannot encode; in UTF-8 input only a \u escape gives one.
_SURROGATE = re.compile("[\ud800-\udfff]")
_LONE_SURROGATE = "a \\u escape decodes to a lone surrogate (U+D800-U+DFFF)"


def _escapes_u(text: str) -> bool:
    """Whether the text holds a `\\u`; a backslash is looked for first, a
    search many times faster on text without one."""
    return "\\" in text and "\\u" in text


def _lone_surrogate(value: Any) -> bool:
    """Whether a string of a decoded JSON value, a key included, holds a
    lone surrogate. Readers call it only on text that `_escapes_u`."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is str:
            if _SURROGATE.search(value):
                return True
        elif type(value) is dict:
            stack.extend(value)
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
    return False


def write_json_atomic(path: str | Path, obj: Any) -> None:
    write_text_atomic(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object a UTF-8 file holds. Bytes that are not UTF-8, text
    that is not JSON (an integer longer than Python converts included), a
    top level that is not an object and a lone surrogate each raise a
    ParseError naming the file."""
    path = Path(path)
    with open_text(path) as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over int_max_str_digits
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    if type(raw) is not dict:
        raise expected(str(path), "a JSON object", raw)
    if _escapes_u(text) and _lone_surrogate(raw):
        raise ParseError(f"{path}: {_LONE_SURROGATE}")
    return raw


def _build(raw: dict, required: Sequence[str], build: Callable[[dict], T]) -> T:
    for field in required:
        if field not in raw:
            raise ParseError(f"missing field {field!r}")
    return build(raw)


def read_object(where: str, raw: Any, required: Sequence[str], build: Callable[[dict], T]) -> T:
    """build(raw) for a JSON object holding every required field. Each error,
    a ValidationError that build raises included, starts with `where`."""
    if type(raw) is not dict:
        raise expected(where, "a JSON object", raw)
    try:
        return _build(raw, required, build)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _iter_jsonl(path: Path, required: Sequence[str], build: Callable[[dict], T]) -> Iterator[T]:
    """build(object) for the object on each non-blank line, one line at a
    time: the first fault in file order raises, with the file and the line."""
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"{path} line {line_number}: malformed JSON: {exc}") from exc
            if type(raw) is not dict:
                raise expected(f"{path} line {line_number}", "a JSON object", raw)
            if _escapes_u(line) and _lone_surrogate(raw):
                raise ParseError(f"{path} line {line_number}: {_LONE_SURROGATE}")
            try:
                record = _build(raw, required, build)
            except ValidationError as exc:
                raise type(exc)(f"{path} line {line_number}: {exc}") from exc
            yield record


def iter_abstracts(path: str | Path) -> Iterator[StructuredAbstract]:
    """The abstracts of a JSONL corpus, one line at a time; a pmid seen on
    an earlier line raises."""
    # A pmid of up to 18 ASCII digits without a leading zero is kept as its
    # int, about half the size of the str; no other pmid has that int's digits.
    seen: set[int | str] = set()

    def build(raw: dict) -> StructuredAbstract:
        # looked up on the module for each record, so a wrapper set there sees every one
        abstract = corpus.parse_abstract_record(raw)
        pmid = abstract.pmid
        key = pmid
        if len(pmid) <= 18 and pmid.isascii() and pmid.isdigit() and pmid[0] != "0":
            key = int(pmid)
        if key in seen:
            raise ValidationError(f"duplicate pmid {pmid!r}")
        seen.add(key)
        return abstract

    return _iter_jsonl(Path(path), ("pmid", "sections"), build)


def read_abstracts(path: str | Path) -> list[StructuredAbstract]:
    """Load a JSONL abstract corpus, enforcing pmid uniqueness."""
    return list(iter_abstracts(path))


_OPTIONAL_STRING = check("a string or null", lambda v: v is None or type(v) is str)
_SOURCE_FIELDS = ("id", "question", "context")


def _source_fields(raw: dict) -> tuple[str, str, str, str | None]:
    """id, question, context and label of a source record."""
    id_, question, context, label = raw["id"], raw["question"], raw["context"], raw.get("label")
    if not (
        type(id_) is str
        and type(question) is str
        and type(context) is str
        and (label is None or type(label) is str)
    ):
        # the where strings are built only for a record that fails
        STRING("field 'id'", id_)
        STRING("field 'question'", question)
        STRING("field 'context'", context)
        _OPTIONAL_STRING("field 'label'", label)
    return id_, question, context, label


def _source_instance(raw: dict) -> SourceInstance:
    return SourceInstance(*_source_fields(raw))


def iter_source_instances(path: str | Path) -> Iterator[SourceInstance]:
    """Raw yes/no-style source records, one line at a time; degenerate
    contexts are allowed.

    id, question and context must be JSON strings; label a string, null or
    absent.
    """
    return _iter_jsonl(Path(path), _SOURCE_FIELDS, _source_instance)


def read_source_instances(path: str | Path) -> list[SourceInstance]:
    """Load raw source records (`iter_source_instances` as a list)."""
    return list(iter_source_instances(path))


def _yesno_instance(raw: dict) -> YesNoInstance:
    id_, question, context, label = _source_fields(raw)
    if label is None:
        raise ValidationError(f"instance {id_} has no label")
    return YesNoInstance(id=id_, question=question, context=context, label=label)


def iter_yesno(path: str | Path) -> Iterator[YesNoInstance]:
    """The validated yes/no instances of a JSONL file, one line at a time:
    source records with a label, each checked as a YesNoInstance."""
    return _iter_jsonl(Path(path), _SOURCE_FIELDS, _yesno_instance)


def read_yesno(path: str | Path) -> list[YesNoInstance]:
    """Load validated yes/no instances from JSONL (`iter_yesno` as a list)."""
    return list(iter_yesno(path))


def batched(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """The items in lists of `size`, the last one shorter; each list is
    taken from `items` only when the one before it has been used."""
    items = iter(items)
    while batch := list(itertools.islice(items, size)):
        yield batch


class _Counted:
    """The items of an iterable, counted as a writer takes them: `n` is the
    number taken so far."""

    def __init__(self, items: Iterable[T]):
        self.items = items
        self.n = 0

    def __iter__(self) -> Iterator[T]:
        for self.n, item in enumerate(self.items, start=1):
            yield item


# One yes/no instance as json.dumps(..., ensure_ascii=False) lays it out.
_YESNO_LINE = '{"id": %s, "question": %s, "context": %s, "label": %s}\n'


def yesno_lines(instances: Iterable[YesNoInstance]) -> Iterator[str]:
    """The JSONL line of each instance; the string fields go through json's
    own (C) string encoder, as in `squad_article`."""
    enc = json.encoder.encode_basestring
    for i in instances:
        yield _YESNO_LINE % (enc(i.id), enc(i.question), enc(i.context), enc(i.label))


def write_yesno(path: str | Path, instances: Iterable[YesNoInstance]) -> int:
    """`yesno_lines` of the instances, written as they come; returns their number."""
    counted = _Counted(instances)
    write_text_atomic(path, yesno_lines(counted))
    return counted.n


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


def squad_article(pair: QAPair) -> str:
    """The pair's article (title = pair id) as it stands in the `data` list
    of `write_squad`'s output; the string fields go through json's own (C)
    string encoder."""
    enc = json.encoder.encode_basestring
    return _SQUAD_ARTICLE % (
        enc(pair.context),
        pair.answer_start,
        enc(pair.answer_text),
        enc(pair.id),
        enc(pair.provenance.value),
        enc(pair.question),
        enc(pair.subset.value),
        enc(pair.id),
    )


def _squad_chunks(articles: Iterable[str], provenance: Mapping[str, Any] | None) -> Iterator[str]:
    """The text of `json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True)`
    plus a newline, one article per chunk.

    With `indent`, json.dumps puts every value through its pure-Python
    encoder and builds the whole text before it returns; here only the
    string leaves are encoded, by `squad_article`.
    """
    yield '{\n  "data": ['
    separator = ""
    for article in articles:
        yield separator + article
        separator = ","
    yield "\n  ]," if separator else "],"
    if provenance is not None:
        block = json.dumps(dict(provenance), ensure_ascii=False, indent=2, sort_keys=True)
        yield '\n  "provenance": ' + block.replace("\n", "\n  ") + ","
    yield f'\n  "version": "{SQUAD_VERSION}"\n}}\n'


def write_squad_articles(
    path: str | Path, articles: Iterable[str], provenance: Mapping[str, Any] | None = None
) -> int:
    """Write a SQuAD document of `squad_article` texts, as they come;
    returns their number."""
    counted = _Counted(articles)
    write_text_atomic(path, _squad_chunks(counted, provenance))
    return counted.n


def write_squad(
    path: str | Path, pairs: Iterable[QAPair], provenance: Mapping[str, Any] | None = None
) -> int:
    """Write pairs in the SQuAD shape, as they come: one article per pair,
    title = pair id. Returns the number of pairs written.

    The bytes are those of the whole document put through
    `json.dumps(..., ensure_ascii=False, indent=2, sort_keys=True)`.
    """
    return write_squad_articles(path, map(squad_article, pairs), provenance)


_SUBSETS = {s.value: s for s in DatasetSubsetId}
_PROVENANCES = {p.value: p for p in Provenance}
_SQUAD_ARRAYS = ("data", "paragraphs")


def _squad_objects(path: Path, parent: dict, key: str, *at: int) -> list[dict]:
    """`parent[key]`, which must be absent or an array of JSON objects; `at`
    holds the indices of `parent` in the data and paragraphs arrays."""
    items = parent.get(key, [])
    if type(items) is list:
        for item in items:
            if type(item) is not dict:
                break
        else:
            return items
    # the where string is built only for a document that fails
    where = f"{path}: " + "".join(f"{name}[{i}]: " for name, i in zip(_SQUAD_ARRAYS, at))
    if type(items) is not list:
        raise expected(f"{where}field {key!r}", "an array", items)
    i = next(i for i, item in enumerate(items) if type(item) is not dict)
    raise expected(f"{where}{key}[{i}]", "a JSON object", items[i])


def _squad_pair(paragraph: dict, qa: dict, subset: DatasetSubsetId | None) -> QAPair:
    """The pair of one qa; errors name the field, the reader adds the file and qa."""
    if "id" not in qa:
        raise ParseError("no id")
    if "context" not in paragraph:
        raise ParseError("its paragraph has no context")
    if "question" not in qa:
        raise ParseError("no question")
    answers = qa.get("answers")
    if type(answers) is not list or not answers:
        raise ParseError("no answers")
    answer = answers[0]
    if type(answer) is not dict or "text" not in answer or "answer_start" not in answer:
        raise ParseError("the first answer needs text and answer_start")
    qa_id, answer_start, context = qa["id"], answer["answer_start"], paragraph["context"]
    question, answer_text = qa["question"], answer["text"]
    if not (
        type(qa_id) is str
        and type(answer_start) is int
        and type(context) is str
        and type(question) is str
        and type(answer_text) is str
    ):
        # the where strings are built only for a qa that fails
        STRING("field 'id'", qa_id)
        INTEGER("field 'answers[0].answer_start'", answer_start)
        STRING("field 'context'", context)
        STRING("field 'question'", question)
        STRING("field 'answers[0].text'", answer_text)
    tag = qa.get("subset")
    if tag is not None:
        subset = _SUBSETS.get(tag) if type(tag) is str else None
        if subset is None:
            raise expected("field 'subset'", "one of " + ", ".join(_SUBSETS), tag)
    elif subset is None:
        raise ValidationError("no subset tag")
    raw_provenance = qa.get("provenance", Provenance.BM25_WEAK.value)
    provenance = _PROVENANCES.get(raw_provenance) if type(raw_provenance) is str else None
    if provenance is None:
        raise expected("field 'provenance'", "one of " + ", ".join(_PROVENANCES), raw_provenance)
    return QAPair(
        id=qa_id,
        question=question,
        context=context,
        answer_text=answer_text,
        answer_start=answer_start,
        subset=subset,
        provenance=provenance,
    )


# Characters the SQuAD reader reads from its file at a time. Tests set it
# small, so that every refill path runs.
_CHUNK_CHARS = 1 << 16
_DECODER = json.JSONDecoder()
_NOT_WHITESPACE = re.compile("[^ \t\n\r]")
# A decoded value followed only by these up to the end of the buffer may be
# a number that goes on in the next chunk.
_AFTER_VALUE = re.compile(r"[^0-9.eE+\-]")


def _cut_short(exc: ValueError, text: str) -> bool:
    """Whether more text after `text` could cure the fault json found in it:
    json looks at most 9 characters past a fault ("-Infinit" at the end is
    reported 8 characters before it) except in an unterminated string, which
    it reports where the string starts; and a fraction may follow an integer
    over int_max_str_digits."""
    if not isinstance(exc, json.JSONDecodeError):
        return True
    return len(text) - exc.pos < len("-Infinity") or exc.msg.startswith("Unterminated string")


class _Malformed(Exception):
    """The text is not JSON; the reader has json name the fault."""


class _JsonText:
    """The text of an open file, consumed one JSON value or structural
    character at a time. The buffer holds what is not consumed yet: about
    one chunk, or one value when a value is longer."""

    def __init__(self, handle: TextIO):
        self.handle = handle
        self.buf = ""
        self.pos = 0
        self.eof = False
        self.chars = 0  # read from the handle so far
        # whether the buffer holds a \u: only then may a value decoded from it
        # hold a lone surrogate (one search per read, not one per value)
        self.escaped = False

    def _read(self, n: int) -> None:
        chunk = self.handle.read(n)
        self.eof = not chunk
        self.chars += len(chunk)
        self.buf = self.buf[self.pos :] + chunk
        self.pos = 0
        self.escaped = _escapes_u(self.buf)

    def peek(self) -> str:
        """The next character that is not JSON whitespace, not consumed; ""
        at the end of the file."""
        while True:
            match = _NOT_WHITESPACE.search(self.buf, self.pos)
            if match is not None:
                self.pos = match.start()
                return self.buf[self.pos]
            self.pos = len(self.buf)
            if self.eof:
                return ""
            self._read(_CHUNK_CHARS)

    def take(self, allowed: str) -> str:
        """The next character, consumed; it must be one of `allowed`."""
        char = self.peek()
        if not char or char not in allowed:
            raise _Malformed
        self.pos += 1
        return char

    def value(self) -> Any:
        """The next JSON value, decoded whole by json's own decoder."""
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except ValueError as exc:  # JSONDecodeError, or an integer over int_max_str_digits
                if self.eof or not _cut_short(exc, self.buf):
                    raise _Malformed from None
            else:
                if self.eof or _AFTER_VALUE.search(self.buf, end):
                    self.pos = end
                    return value
            # the value may go on past the buffer: read at least as much again
            self._read(max(_CHUNK_CHARS, len(self.buf) - self.pos))


def _members(text: _JsonText, opener: str, closer: str) -> Iterator[None]:
    """Consume a JSON object or array from its opener to its closer,
    yielding before each member; the caller consumes the member."""
    text.take(opener)
    if text.peek() == closer:
        text.take(closer)
        return
    while True:
        yield
        if text.take("," + closer) == closer:
            return


def _squad_articles(
    path: Path, text: _JsonText, subset: DatasetSubsetId | None
) -> Iterator[QAPair]:
    """The pairs of the `data` array that starts the text, decoding one
    article at a time."""
    if text.peek() != "[":
        raise expected(f"{path}: field 'data'", "an array", text.value())
    for a, _ in enumerate(_members(text, "[", "]")):
        article = text.value()
        if type(article) is not dict:
            raise expected(f"{path}: data[{a}]", "a JSON object", article)
        for p, paragraph in enumerate(_squad_objects(path, article, "paragraphs", a)):
            for qa in _squad_objects(path, paragraph, "qas", a, p):
                try:
                    # the buffer the article was decoded from is still the current one
                    if text.escaped and _lone_surrogate([paragraph.get("context"), qa]):
                        raise ParseError(_LONE_SURROGATE)
                    pair = _squad_pair(paragraph, qa, subset)
                except ValidationError as exc:
                    raise type(exc)(f"{path}: qa {qa.get('id')!r}: {exc}") from exc
                yield pair


def iter_squad(path: str | Path, *, subset: DatasetSubsetId | None = None) -> Iterator[QAPair]:
    """The extractive pairs of a file in the SQuAD shape, decoding one
    article of its `data` array at a time.

    A qa's id must be a string, and neither it nor its paragraph's context
    may hold a lone surrogate. Its subset comes from its `subset` field,
    else from the argument. Its provenance comes from its `provenance`
    field; a qa without one reads as bm25_weak, whatever its subset. Other
    fields are decoded and dropped; a second `data` field is an error. The
    first fault in file order raises: text that is not JSON with json's own
    message, any other fault as soon as it is read. The text read stops at
    a fault that more text could not cure, and json decodes that text again
    for its message (the whole file if json's fault in it could be cured).
    """
    path = Path(path)
    with open_text(path) as handle:
        text = _JsonText(handle)
        try:
            seen_data = False
            for _ in _members(text, "{", "}"):
                if text.peek() != '"':
                    raise _Malformed
                key = text.value()
                text.take(":")
                if key != "data":
                    text.value()
                elif seen_data:
                    raise ParseError(f"{path}: duplicate field 'data'")
                else:
                    seen_data = True
                    yield from _squad_articles(path, text, subset)
            if text.peek():
                raise _Malformed
            return
        except _Malformed:
            handle.seek(0)
            head = handle.read(text.chars)
    try:
        json.loads(head)
    except ValueError as exc:
        if text.eof or not _cut_short(exc, head):
            raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    read_json(path)
    raise ContractViolation(f"{path}: json decodes what the SQuAD reader rejects")


def read_squad(path: str | Path, *, subset: DatasetSubsetId | None = None) -> list[QAPair]:
    """Load extractive pairs back from the SQuAD shape (`iter_squad` as a list)."""
    return list(iter_squad(path, subset=subset))


def _prediction(raw: dict) -> Prediction:
    has_text, has_label = "predicted_text" in raw, "predicted_label" in raw
    if not (has_text or has_label):
        raise ValidationError("need predicted_text or predicted_label")
    pred_id, text, label = raw["id"], raw.get("predicted_text"), raw.get("predicted_label")
    if not (
        type(pred_id) is str
        and (not has_text or type(text) is str)
        and (not has_label or label in ("yes", "no"))
    ):
        # the where strings are built only for a line that fails
        STRING("field 'id'", pred_id)
        if has_text:
            STRING("field 'predicted_text'", text)
        if has_label:
            raise expected("field 'predicted_label'", '"yes" or "no"', label)
    return Prediction(id=pred_id, predicted_text=text, predicted_label=label)


def read_predictions(path: str | Path) -> Iterator[Prediction]:
    """The predictions of a JSONL file, one line at a time: {id,
    predicted_text} or {id, predicted_label}.

    id and predicted_text must be JSON strings, predicted_label "yes" or "no".
    The file is opened when the first prediction is taken, and a faulty line
    raises when it is read.
    """
    return _iter_jsonl(Path(path), ("id",), _prediction)
