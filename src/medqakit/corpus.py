"""Corpus data model: structured abstracts, QA instances, sentence
segmentation, and answer normalization.

Everything here is pure and stateless; downstream labeling, curation, and
transformation all build on the segmentation and normalization rules defined
in this module, so changing them changes every derived dataset.
"""

from __future__ import annotations

import re
import string
from collections import namedtuple
from datetime import date
from enum import Enum

from .errors import STRING, ValidationError, check, expected, is_strings


class DatasetSubsetId(str, Enum):
    """Closed set of dataset subset identifiers used throughout the pipeline."""

    D1 = "d1"  # repurposed human-labelled source, extractive
    D2 = "d2"  # repurposed artificial source, extractive
    D3 = "d3"  # template-curated COVID pairs, manually selected answers
    D4 = "d4"  # automatically curated COVID pairs
    PQA_L = "pqa_l"  # yes/no source, human-labelled
    PQA_A = "pqa_a"  # yes/no source, artificial


class Provenance(str, Enum):
    BM25_WEAK = "bm25_weak"
    TEMPLATE_MANUAL = "template_manual"
    PUBMED_ARTIFICIAL = "pubmed_artificial"


class AbstractSection(namedtuple("AbstractSection", "label text")):
    """One labelled section of a structured abstract; label and text are str.

    Labels are canonical (uppercased, trimmed) after parsing. Empty sections
    are kept rather than dropped, so curation rules can reject the abstract
    deterministically.
    """

    __slots__ = ()


class StructuredAbstract(
    namedtuple("StructuredAbstract", "pmid title pub_date keywords sections")
):
    """pmid and title are str, pub_date a date or None; keywords and
    sections are tuples of str and AbstractSection."""

    __slots__ = ()


class Sentence(namedtuple("Sentence", "text char_start char_end")):
    """A sentence with character offsets into its parent text.

    Invariant: parent[char_start:char_end] == text.
    """

    __slots__ = ()

    def __new__(cls, text: str, char_start: int, char_end: int):
        if not (0 <= char_start < char_end):
            raise ValidationError(f"invalid sentence span [{char_start}, {char_end})")
        if char_end - char_start != len(text):
            raise ValidationError("sentence span length does not match text")
        return tuple.__new__(cls, (text, char_start, char_end))


class QAPair(namedtuple("QAPair", "id question context answer_text answer_start subset provenance")):
    """An extractive training instance; the answer is anchored in the context."""

    __slots__ = ()

    def __new__(cls, id: str, question: str, context: str, answer_text: str, answer_start: int,
                subset: DatasetSubsetId, provenance: Provenance):
        if not question.strip():
            raise ValidationError(f"{id}: question is empty")
        if not context:
            raise ValidationError(f"{id}: context is empty")
        end = answer_start + len(answer_text)
        if answer_start < 0 or end > len(context) or context[answer_start:end] != answer_text:
            raise ValidationError(
                f"{id}: answer span [{answer_start}:{end}] does not reproduce answer_text"
            )
        return tuple.__new__(
            cls, (id, question, context, answer_text, answer_start, subset, provenance)
        )


class YesNoInstance(namedtuple("YesNoInstance", "id question context label")):
    """A yes/no classification training instance."""

    __slots__ = ()

    def __new__(cls, id: str, question: str, context: str, label: str):
        if label not in ("yes", "no"):
            raise ValidationError(f"{id}: label must be 'yes' or 'no', got {label!r}")
        if not question.strip():
            raise ValidationError(f"{id}: question is empty")
        if not context.strip():
            raise ValidationError(f"{id}: context is empty")
        return tuple.__new__(cls, (id, question, context, label))


class SourceInstance(namedtuple("SourceInstance", "id question context label", defaults=(None,))):
    """Raw yes/no-style source record; context may still be degenerate.
    Each field is a str; label may also be None."""

    __slots__ = ()


class Prediction(
    namedtuple("Prediction", "id predicted_text predicted_label", defaults=(None, None))
):
    """Each field is a str; the predicted ones may also be None."""

    __slots__ = ()


_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_iso_date(value: object) -> date:
    """A string of the form YYYY-MM-DD as a date; ValueError for anything else.

    date.fromisoformat accepts more on Python 3.11 and later ("20200301",
    the week date "2020-W10"), so the form is checked first.
    """
    if not isinstance(value, str) or not _ISO_DATE_RE.fullmatch(value):
        raise ValueError(f"expected a YYYY-MM-DD string, got {value!r}")
    return date.fromisoformat(value)


_NON_EMPTY_STRING = check("a non-empty string", lambda v: type(v) is str and bool(v.strip()))
_SECTIONS = check("an array", lambda v: type(v) is list)
_KEYWORDS = check("an array of strings or null", lambda v: v is None or is_strings(v))


def parse_abstract_record(raw: dict) -> StructuredAbstract:
    """One decoded abstract record as a validated StructuredAbstract.

    Errors name the field; the file reader adds the file and line.
    """
    pmid = _NON_EMPTY_STRING("field 'pmid'", raw.get("pmid")).strip()
    sections = []
    for i, sec in enumerate(_SECTIONS("field 'sections'", raw.get("sections"))):
        if type(sec) is not dict:
            raise expected(f"field 'sections[{i}]'", "a JSON object", sec)
        label, text = sec.get("label", ""), sec.get("text", "")
        if type(label) is not str or type(text) is not str or not label.strip():
            # the where strings are built only for a section that fails
            _NON_EMPTY_STRING(f"field 'sections[{i}].label'", label)
            STRING(f"field 'sections[{i}].text'", text)
        sections.append(AbstractSection(label=label.strip().upper(), text=text))

    pub_date = None
    raw_date = raw.get("pub_date")
    if raw_date not in (None, ""):
        try:
            pub_date = parse_iso_date(raw_date)
        except ValueError:
            raise expected("field 'pub_date'", "a YYYY-MM-DD string", raw_date) from None

    return StructuredAbstract(
        pmid=pmid,
        title=STRING("field 'title'", raw.get("title", "")),
        pub_date=pub_date,
        keywords=tuple(_KEYWORDS("field 'keywords'", raw.get("keywords")) or ()),
        sections=tuple(sections),
    )


# Dotted tokens that end with '.' without ending a sentence.
DEFAULT_ABBREVIATIONS: tuple[str, ...] = (
    "vs.",
    "e.g.",
    "i.e.",
    "et al.",
    "Dr.",
    "Fig.",
    "Figs.",
    "cf.",
    "ca.",
    "approx.",
)

# The characters the segmenter acts on: parentheses, and a terminator that
# whitespace follows. On Python 3, `\s` matches exactly the characters for
# which str.isspace() is true (tests/test_corpus.py checks every code point).
# The pattern starts with one character class so the regex engine can skip
# ahead to the next candidate character.
_BOUNDARY_RE = re.compile(r"[().?!](?:(?<=[()])|(?=\s))")
_SPACE_RUN_RE = re.compile(r"\s+")

# How many characters ending at a dot to lower for the abbreviation test.
# str.lower() maps each character on its own except a capital sigma, and no
# abbreviation holds a sigma, so this window decides as the whole prefix would.
_LOWERED_ABBREVIATIONS = tuple(a.lower() for a in DEFAULT_ABBREVIATIONS)
_ABBREVIATION_WINDOW = max(map(len, _LOWERED_ABBREVIATIONS)) + 1


def _ends_with_abbreviation(text: str, dot_index: int) -> bool:
    """True when text[: dot_index + 1], lowered, ends with an abbreviation
    that is not the tail of a longer alphanumeric word."""
    tail = text[max(0, dot_index + 1 - _ABBREVIATION_WINDOW) : dot_index + 1].lower()
    if not tail.endswith(_LOWERED_ABBREVIATIONS):
        return False
    for a in _LOWERED_ABBREVIATIONS:
        if tail.endswith(a):
            boundary = dot_index - len(a)
            if boundary < 0 or not text[boundary].isalnum():
                return True
    return False


def segment_sentences(text: str) -> list[Sentence]:
    """Split text into sentences with exact character offsets.

    A sentence boundary is a '.', '?' or '!' immediately followed by
    whitespace and then an uppercase letter or a digit. Terminators inside
    open parentheses and dotted abbreviations do not split; decimals like
    "3.5" never split because the period is not followed by whitespace.
    The returned spans are non-overlapping, in order, and slicing the input
    by each span reproduces the sentence text exactly.
    """
    n = len(text)
    boundaries: list[int] = []
    depth = 0
    for match in _BOUNDARY_RE.finditer(text):
        j = match.end()
        ch = text[j - 1]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            k = _SPACE_RUN_RE.match(text, j).end()
            if k >= n or not (text[k].isupper() or text[k].isdigit()):
                continue
            if ch == "." and _ends_with_abbreviation(text, j - 1):
                continue
            boundaries.append(j)

    sentences: list[Sentence] = []
    start = 0
    for bound in boundaries + [n]:
        lo, hi = start, bound
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        if lo < hi:
            sentences.append(Sentence(text=text[lo:hi], char_start=lo, char_end=hi))
        start = bound
    return sentences


_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    t = text.lower().translate(_PUNCT_TABLE)
    t = _ARTICLE_RE.sub(" ", t)
    return " ".join(t.split())
