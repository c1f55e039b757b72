"""COVID-specific QA curation.

Two pipelines: parameterized questions instantiated from templates with a
manual answer-selection queue (subset d3), and fully automatic pairs built
by filtering abstracts and weak-labeling their conclusion sections (d4).
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import formats
from .bm25 import Bm25Params
from .corpus import (
    AbstractSection,
    DatasetSubsetId,
    Provenance,
    QAPair,
    Sentence,
    StructuredAbstract,
    segment_sentences,
)
from .errors import (
    STRING,
    STRINGS,
    ConfigError,
    ParseError,
    ValidationError,
    check,
    expected,
    is_strings,
)
from .weak_label import select_answer_sentence

log = logging.getLogger(__name__)

_SLOT_RE = re.compile(r"\[([A-Z][A-Z_]*)\]")

CONCLUSION_INCLUDE_KEYWORDS = ("ANSWER", "CONCLUSION", "CONCULSION", "CONLUSION")
CONCLUSION_EXCLUDE_KEYWORDS = ("RESULT", "SUMMARY", "FINDING", "DISCUSSION")

REVIEW_QUEUE_COLUMNS = ("question", "pmid", "sentence_index", "sentence_text", "selected")
# A tab, or a character str.splitlines splits on: such a TSV field cannot be read back.
_TSV_BREAK_RE = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_INDEX_RE = re.compile("[0-9]+")


def check_one_line(where: str, texts: Iterable[str]) -> None:
    """A ParseError naming `where` for the first text holding a tab or line
    break: it would split a line of search_queries.txt or the TSV queue."""
    for text in texts:
        if _TSV_BREAK_RE.search(text):
            raise ParseError(f"{where}: {text!r} holds a tab or line break")


@dataclass(frozen=True)
class QuestionTemplate:
    """A question pattern with typed slots, e.g. "... with [CONDITION] ..."."""

    template_id: str
    pattern: str
    slot_types: tuple[str, ...]

    def __post_init__(self) -> None:
        slots = _SLOT_RE.findall(self.pattern)
        if not slots:
            raise ConfigError(f"template {self.template_id}: pattern declares no slots")
        if len(slots) != len(self.slot_types):
            raise ConfigError(
                f"template {self.template_id}: {len(slots)} slots in pattern "
                f"but {len(self.slot_types)} slot types declared"
            )


@dataclass(frozen=True)
class ParameterVocabulary:
    """Named value list for template slots.

    Values are strings, or fixed-length tuples for vocabularies that bind
    several slots at once (e.g. treatment/condition pairs). Aliases map a
    value to alternate spellings used for matching and search queries.
    """

    name: str
    values: tuple[str | tuple[str, ...], ...]
    aliases: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"vocabulary {self.name!r} has no values")
        paired = isinstance(self.values[0], tuple)
        for v in self.values:
            if isinstance(v, tuple) != paired:
                raise ConfigError(f"vocabulary {self.name!r} mixes plain and paired values")
        object.__setattr__(self, "values", _dedupe_case_insensitive(self.values))

    @property
    def is_paired(self) -> bool:
        return isinstance(self.values[0], tuple)

    def terms_for(self, value: str) -> tuple[str, ...]:
        return (value,) + tuple(self.aliases.get(value, ()))


@dataclass(frozen=True)
class InstantiatedQuestion:
    question: str
    template_id: str
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class CovidFilterPolicy:
    phrases: tuple[str, ...] = ("COVID", "SARS-CoV-2", "novel coronavirus")
    cutoff_date: date = date(2019, 11, 1)

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ConfigError("covid filter needs at least one phrase")
        check_one_line("covid filter phrase", self.phrases)


@dataclass(frozen=True)
class CurationCandidate:
    """One (question, abstract) pair awaiting manual answer selection.

    candidate_sentences carry offsets into context, the whitespace-normalized
    concatenation of the abstract's results/conclusion sections.
    """

    question: str
    pmid: str
    context: str
    candidate_sentences: tuple[Sentence, ...]


def _dedupe_case_insensitive(values: Iterable) -> tuple:
    seen: set = set()
    out = []
    for v in values:
        key = tuple(x.lower() for x in v) if isinstance(v, tuple) else v.lower()
        if key in seen:
            continue
        seen.add(key)
        out.append(v)
    return tuple(out)


_VALUES = check(
    "an array of strings or string arrays",
    lambda v: type(v) is list and all(type(x) is str or is_strings(x) for x in v),
)
_ALIASES = check(
    "an object of string arrays",
    lambda v: v is None or (type(v) is dict and all(map(is_strings, v.values()))),
)


def _template(entry: dict) -> QuestionTemplate:
    return QuestionTemplate(
        template_id=STRING("field 'template_id'", entry["template_id"]),
        pattern=STRING("field 'pattern'", entry["pattern"]),
        slot_types=tuple(STRINGS("field 'slot_types'", entry.get("slot_types", []))),
    )


def _vocabulary(entry: dict) -> ParameterVocabulary:
    values = _VALUES("field 'values'", entry.get("values", []))
    aliases = _ALIASES("field 'aliases'", entry.get("aliases"))
    for value in values:
        check_one_line("field 'values'", [value] if type(value) is str else value)
    for alternatives in (aliases or {}).values():
        check_one_line("field 'aliases'", alternatives)
    return ParameterVocabulary(
        name=STRING("field 'name'", entry["name"]),
        values=tuple(tuple(v) if isinstance(v, list) else v for v in values),
        aliases={value: tuple(alts) for value, alts in (aliases or {}).items()},
    )


def _config_entries(
    path: Path, raw: dict, key: str, required: tuple[str, ...], build: Callable[[dict], Any]
) -> list:
    """build(entry) for each object of the array raw[key]; errors name the entry."""
    entries = raw.get(key, [])
    if type(entries) is not list:
        raise expected(f"{path}: field {key!r}", "an array", entries)
    return [
        formats.read_object(f"{path}: {key}[{i}]", entry, required, build)
        for i, entry in enumerate(entries)
    ]


def load_template_config(path: str | Path) -> tuple[list[QuestionTemplate], list[ParameterVocabulary]]:
    """Load templates and vocabularies from the JSON config format.

    Every field is type-checked; an error names the file, the template or
    vocabulary index, and the field.
    """
    path = Path(path)
    raw = formats.read_json(path)
    templates = _config_entries(path, raw, "templates", ("template_id", "pattern"), _template)
    vocabs = _config_entries(path, raw, "vocabularies", ("name",), _vocabulary)
    if not templates:
        raise ConfigError(f"{path}: no templates defined")
    return templates, vocabs


def instantiate_templates(
    templates: Sequence[QuestionTemplate], vocabs: Sequence[ParameterVocabulary]
) -> list[InstantiatedQuestion]:
    """Cartesian instantiation of every template over its slot vocabularies.

    Order is deterministic: templates first, then vocabulary value order with
    earlier slots as outer loops. A paired vocabulary referenced by several
    slots binds them together, consuming one component per slot.
    """
    by_name = {v.name: v for v in vocabs}
    out: list[InstantiatedQuestion] = []
    for template in templates:
        axes: list[tuple[tuple[int, ...], tuple[tuple[str, ...], ...]]] = []
        bound: set[str] = set()
        for pos, vocab_name in enumerate(template.slot_types):
            vocab = by_name.get(vocab_name)
            if vocab is None:
                raise ConfigError(
                    f"template {template.template_id}: unknown vocabulary {vocab_name!r}"
                )
            if vocab.is_paired:
                if vocab_name in bound:
                    continue
                bound.add(vocab_name)
                positions = tuple(
                    i for i, name in enumerate(template.slot_types) if name == vocab_name
                )
                for value in vocab.values:
                    if len(value) != len(positions):
                        raise ConfigError(
                            f"vocabulary {vocab_name!r}: value {value!r} has "
                            f"{len(value)} components but {len(positions)} slots bind it"
                        )
                axes.append((positions, tuple(vocab.values)))
            else:
                axes.append(((pos,), tuple((v,) for v in vocab.values)))
        n_slots = len(template.slot_types)
        for combo in itertools.product(*(values for _, values in axes)):
            params: list[str | None] = [None] * n_slots
            for (positions, _), value in zip(axes, combo):
                for offset, pos in enumerate(positions):
                    params[pos] = value[offset]
            filled = list(params)
            question = _SLOT_RE.sub(lambda _m: filled.pop(0), template.pattern)
            if _TSV_BREAK_RE.search(question):
                raise ConfigError(
                    f"template {template.template_id}: question {question!r} holds a tab or "
                    "line break, so it cannot be one line of the search queries or the TSV queue"
                )
            out.append(
                InstantiatedQuestion(
                    question=question,
                    template_id=template.template_id,
                    parameters=tuple(params),
                )
            )
    return out


def _searchable_texts(abstract: StructuredAbstract) -> Iterable[str]:
    for section in abstract.sections:
        yield section.text
        yield section.label
    yield from abstract.keywords


def covid_filter(abstract: StructuredAbstract, policy: CovidFilterPolicy = CovidFilterPolicy()) -> bool:
    """True iff published on/after the cutoff and any phrase occurs anywhere."""
    if abstract.pub_date is None:
        log.warning("pmid %s: missing pub_date, excluded from COVID set", abstract.pmid)
        return False
    if abstract.pub_date < policy.cutoff_date:
        return False
    texts = [text.lower() for text in _searchable_texts(abstract)]
    # each text lowered once; no phrase holds a line break, so none matches across two texts
    text = "\n".join(texts)
    return bool(texts) and any(phrase.lower() in text for phrase in policy.phrases)


def extract_question(abstract: StructuredAbstract) -> str | None:
    """QUESTION-labelled section first, else a title containing '?', else None."""
    for section in abstract.sections:
        if section.label == "QUESTION" and section.text.strip():
            return section.text.strip()
    if "?" in abstract.title:
        return abstract.title.strip()
    return None


def extract_conclusion_section(abstract: StructuredAbstract) -> AbstractSection | None:
    """First section labelled as an answer/conclusion without exclusion words.

    A label qualifies when it contains ANSWER or CONCLUSION (or the
    misspelling CONCULSION or CONLUSION) and contains none of RESULT,
    SUMMARY, FINDING, DISCUSSION.
    """
    for section in abstract.sections:
        if any(k in section.label for k in CONCLUSION_INCLUDE_KEYWORDS) and not any(
            k in section.label for k in CONCLUSION_EXCLUDE_KEYWORDS
        ):
            return section
    return None


def _eligible(
    corpus: Iterable[StructuredAbstract], policy: CovidFilterPolicy
) -> list[StructuredAbstract]:
    """The abstracts that pass the COVID filter, in pmid order."""
    return sorted((a for a in corpus if covid_filter(a, policy)), key=lambda a: a.pmid)


def build_artificial_pairs(
    corpus: Iterable[StructuredAbstract],
    policy: CovidFilterPolicy = CovidFilterPolicy(),
    params: Bm25Params = Bm25Params(),
) -> tuple[list[QAPair], int]:
    """Fully automatic d4 pairs; abstracts that fail any rule are skipped.

    The filter runs as the corpus is read, and only the abstracts that
    pass it are kept; pairs are emitted in pmid order. Returns (pairs,
    skipped_count) where skipped counts abstracts that passed the filter
    but yielded no pair.
    """
    pairs: list[QAPair] = []
    skipped = 0
    for abstract in _eligible(corpus, policy):
        question = extract_question(abstract)
        if question is None:
            skipped += 1
            continue
        section = extract_conclusion_section(abstract)
        if section is None:
            skipped += 1
            continue
        try:
            sentence, _score, _n = select_answer_sentence(question, section.text, params)
        except ValidationError as exc:
            log.warning("pmid %s: %s", abstract.pmid, exc)
            skipped += 1
            continue
        pairs.append(
            QAPair(
                id=f"d4-{abstract.pmid}",
                question=question,
                context=section.text,
                answer_text=sentence.text,
                answer_start=sentence.char_start,
                subset=DatasetSubsetId.D4,
                provenance=Provenance.PUBMED_ARTIFICIAL,
            )
        )
    return pairs, skipped


def _mentions_terms(lowered_text: str, lowered_terms: Sequence[str]) -> bool:
    """True iff any term occurs in the text; both sides already lowercased."""
    return any(term in lowered_text for term in lowered_terms)


def _answer_sections(abstract: StructuredAbstract) -> list[AbstractSection]:
    conclusion = extract_conclusion_section(abstract)
    sections = []
    for section in abstract.sections:
        if "RESULT" in section.label and "DISCUSSION" not in section.label:
            sections.append(section)
        elif conclusion is not None and section is conclusion:
            sections.append(section)
    return sections


def build_review_candidates(
    questions: Sequence[InstantiatedQuestion],
    corpus: Iterable[StructuredAbstract],
    policy: CovidFilterPolicy = CovidFilterPolicy(),
    *,
    term_lookup: Mapping[str, tuple[str, ...]] | None = None,
    queue_depth: int = 50,
) -> list[CurationCandidate]:
    """Collect up to queue_depth abstracts per question for manual review.

    An abstract qualifies when it passes the COVID filter, mentions every
    question parameter (or an alias), and has results/conclusion sections.
    The candidate context is the whitespace-normalized concatenation of those
    sections, so a TSV round trip preserves sentence text exactly. The
    filter runs as the corpus is read, and only the abstracts that pass it
    are kept. A term holding a tab or a line break raises a ParseError.
    """
    lookup = term_lookup or {}
    terms_per_question = [
        [tuple(t.lower() for t in lookup.get(p, (p,))) for p in question.parameters]
        for question in questions
    ]
    for terms in terms_per_question:
        for alternatives in terms:
            check_one_line("search term", alternatives)
    eligible = _eligible(corpus, policy)
    # One pass over the abstracts, trying each question that still has room,
    # visits the same (question, abstract) pairs as one pass per question.
    found: list[list[CurationCandidate]] = [[] for _ in questions]
    open_questions = list(range(len(questions))) if queue_depth > 0 else []
    for abstract in eligible:
        if not open_questions:
            break
        # each text lowered once; no term holds a line break, so none matches across two texts
        searchable = "\n".join(
            [abstract.title.lower(), *(t.lower() for t in _searchable_texts(abstract))]
        )
        sentences = None
        for q in list(open_questions):
            if not all(_mentions_terms(searchable, terms) for terms in terms_per_question[q]):
                continue
            if sentences is None:
                sections = [s.text for s in _answer_sections(abstract) if s.text.strip()]
                context = " ".join(" ".join(text.split()) for text in sections)
                sentences = tuple(segment_sentences(context)) if context else ()
            if not sentences:
                continue
            found[q].append(
                CurationCandidate(
                    question=questions[q].question,
                    pmid=abstract.pmid,
                    context=context,
                    candidate_sentences=sentences,
                )
            )
            if len(found[q]) >= queue_depth:
                open_questions.remove(q)
    return [candidate for per_question in found for candidate in per_question]


def alias_lookup(vocabs: Sequence[ParameterVocabulary]) -> dict[str, tuple[str, ...]]:
    """Flatten vocabulary aliases into a value -> (value, *aliases) map."""
    lookup: dict[str, tuple[str, ...]] = {}
    for vocab in vocabs:
        for value in vocab.values:
            parts = value if isinstance(value, tuple) else (value,)
            for part in parts:
                lookup[part] = vocab.terms_for(part)
    return lookup


def export_review_queue(candidates: Sequence[CurationCandidate], path: str | Path) -> None:
    """Write the manual-selection TSV; one row per candidate sentence.

    A question, pmid or sentence holding a tab or a line break (anything
    str.splitlines splits on) could not be read back, so it raises a
    ValidationError and leaves any earlier file in place.
    """
    lines = ["\t".join(REVIEW_QUEUE_COLUMNS)]
    for candidate in candidates:
        sentences = candidate.candidate_sentences
        fields = (candidate.question, candidate.pmid, *(s.text for s in sentences))
        if any(_TSV_BREAK_RE.search(field) for field in fields):
            raise ValidationError(
                f"{path}: question {candidate.question!r}, pmid {candidate.pmid!r}: "
                "a tab or line break cannot be written to a TSV field"
            )
        for i, sentence in enumerate(sentences):
            lines.append("\t".join((candidate.question, candidate.pmid, str(i), sentence.text, "")))
    formats.write_text_atomic(path, "\n".join(lines) + "\n")


def _pair_id(pmid: str, question: str) -> str:
    digest = hashlib.sha1(question.encode("utf-8")).hexdigest()[:8]
    return f"d3-{pmid}-{digest}"


def import_review_queue(path: str | Path) -> tuple[list[QAPair], list[tuple[str, str]]]:
    """Read a reviewed TSV back into d3 QAPairs.

    Exactly one row per (question, pmid) must be marked selected = "x";
    groups with several marks are a validation error, unreviewed groups are
    skipped and returned for the run summary. The context is rebuilt by
    joining the group's sentences with single spaces, and the answer is
    anchored at the selected sentence's offset in that context.
    """
    path = Path(path)
    with formats.open_text(path) as handle:
        lines = handle.read().splitlines()
    if not lines or tuple(lines[0].split("\t")) != REVIEW_QUEUE_COLUMNS:
        raise ParseError(f"{path}: missing or invalid review queue header")

    groups: dict[tuple[str, str], list[tuple[int, str, bool]]] = {}
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(REVIEW_QUEUE_COLUMNS):
            raise ParseError(f"{path} line {line_number}: expected {len(REVIEW_QUEUE_COLUMNS)} columns")
        question, pmid, index_text, sentence_text, selected = fields
        if not _INDEX_RE.fullmatch(index_text):
            raise ParseError(f"{path} line {line_number}: bad sentence_index {index_text!r}")
        index = int(index_text)
        groups.setdefault((question, pmid), []).append(
            (index, sentence_text, selected.strip().lower() == "x")
        )

    pairs: list[QAPair] = []
    unreviewed: list[tuple[str, str]] = []
    offenders: list[tuple[str, str]] = []
    for (question, pmid), rows in groups.items():
        rows.sort(key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(len(rows))):
            raise ValidationError(
                f"{path}: group ({question!r}, {pmid}): sentence indices are not contiguous"
            )
        marked = [r for r in rows if r[2]]
        if not marked:
            unreviewed.append((question, pmid))
            continue
        if len(marked) > 1:
            offenders.append((question, pmid))
            continue
        texts = [r[1] for r in rows]
        context = " ".join(texts)
        selected_index = marked[0][0]
        answer_start = sum(len(t) + 1 for t in texts[:selected_index])
        try:
            pair = QAPair(
                id=_pair_id(pmid, question),
                question=question,
                context=context,
                answer_text=texts[selected_index],
                answer_start=answer_start,
                subset=DatasetSubsetId.D3,
                provenance=Provenance.TEMPLATE_MANUAL,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: group ({question!r}, {pmid}): {exc}") from exc
        pairs.append(pair)
    if offenders:
        raise ValidationError(f"{path}: multiple selections for: {offenders}")
    return pairs, unreviewed


def build_search_queries(
    questions: Sequence[InstantiatedQuestion],
    policy: CovidFilterPolicy = CovidFilterPolicy(),
    *,
    term_lookup: Mapping[str, tuple[str, ...]] | None = None,
) -> list[str]:
    """Render one boolean search query per question for an external retriever."""
    phrase_clause = "(" + " OR ".join(f'"{p}"' for p in policy.phrases) + ")"
    queries = []
    for question in questions:
        clauses = []
        for param in question.parameters:
            terms = (term_lookup or {}).get(param, (param,))
            if len(terms) == 1:
                clauses.append(f'"{terms[0]}"')
            else:
                clauses.append("(" + " OR ".join(f'"{t}"' for t in terms) + ")")
        clauses.append(phrase_clause)
        queries.append(" AND ".join(clauses))
    return queries
