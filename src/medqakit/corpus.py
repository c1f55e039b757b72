"""Corpus data model: structured abstracts, QA instances, sentence
segmentation, and answer normalization.

Everything here is pure and stateless; downstream labeling, curation, and
transformation all build on the segmentation and normalization rules defined
in this module, so changing them changes every derived dataset.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
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


@dataclass(frozen=True)
class AbstractSection:
    """One labelled section of a structured abstract.

    Labels are canonical (uppercased, trimmed) after parsing. Empty sections
    are kept rather than dropped, so curation rules can reject the abstract
    deterministically.
    """

    label: str
    text: str


@dataclass(frozen=True)
class StructuredAbstract:
    pmid: str
    title: str
    pub_date: date | None
    keywords: tuple[str, ...]
    sections: tuple[AbstractSection, ...]


@dataclass(frozen=True)
class Sentence:
    """A sentence with character offsets into its parent text.

    Invariant: parent[char_start:char_end] == text.
    """

    text: str
    char_start: int
    char_end: int

    def __post_init__(self) -> None:
        if not (0 <= self.char_start < self.char_end):
            raise ValidationError(
                f"invalid sentence span [{self.char_start}, {self.char_end})"
            )
        if self.char_end - self.char_start != len(self.text):
            raise ValidationError("sentence span length does not match text")


@dataclass(frozen=True)
class QAPair:
    """An extractive training instance; the answer is anchored in the context."""

    id: str
    question: str
    context: str
    answer_text: str
    answer_start: int
    subset: DatasetSubsetId
    provenance: Provenance

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValidationError(f"{self.id}: question is empty")
        if not self.context:
            raise ValidationError(f"{self.id}: context is empty")
        end = self.answer_start + len(self.answer_text)
        if self.answer_start < 0 or end > len(self.context) or (
            self.context[self.answer_start : end] != self.answer_text
        ):
            raise ValidationError(
                f"{self.id}: answer span [{self.answer_start}:{end}] "
                "does not reproduce answer_text"
            )


@dataclass(frozen=True)
class YesNoInstance:
    """A yes/no classification training instance."""

    id: str
    question: str
    context: str
    label: str

    def __post_init__(self) -> None:
        if self.label not in ("yes", "no"):
            raise ValidationError(f"{self.id}: label must be 'yes' or 'no', got {self.label!r}")
        if not self.question.strip():
            raise ValidationError(f"{self.id}: question is empty")
        if not self.context.strip():
            raise ValidationError(f"{self.id}: context is empty")


@dataclass(frozen=True)
class SourceInstance:
    """Raw yes/no-style source record; context may still be degenerate."""

    id: str
    question: str
    context: str
    label: str | None = None


@dataclass(frozen=True)
class Prediction:
    id: str
    predicted_text: str | None = None
    predicted_label: str | None = None


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
