"""The records as named tuples against the frozen dataclasses they replace.

The 13 records that check their fields are kept below as they were, as
oracles, under their own names so that their repr is the one to match; the
named tuples are reached through their modules (`corpus.Sentence`). Over
valid and invalid field values, each named tuple raises the oracle's
exception type with its message, or holds the oracle's field values and has
its repr and hash. Every record keeps its field names and order, and none
can be changed or given a new attribute.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import bm25, corpus, covid, metrics, morph, schedule
from medqakit.corpus import DatasetSubsetId, Provenance
from medqakit.covid import _SLOT_RE, _dedupe_case_insensitive
from medqakit.defaults import (
    COVID_CUTOFF_DATE,
    COVID_PHRASES,
    DEFAULT_HOLDOUT_FRACTIONS,
    check_one_line,
)
from medqakit.errors import ConfigError, ValidationError
from medqakit.morph import _TYPE_ORDER, MorphemeType, TransformKind, TransformTarget
from medqakit.schedule import YESNO_SUBSETS
from medqakit.weak_label import WeakLabelRecord

SRC = Path(__file__).resolve().parent.parent / "src" / "medqakit"


# The oracles: the frozen dataclasses of the records that check their fields.


@dataclass(frozen=True)
class Sentence:
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
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not self.k1 >= 0:  # NaN too
            raise ValidationError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class QuestionTemplate:
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


@dataclass(frozen=True)
class CovidFilterPolicy:
    phrases: tuple[str, ...] = COVID_PHRASES
    cutoff_date: date = COVID_CUTOFF_DATE

    def __post_init__(self) -> None:
        check_one_line("covid filter phrase", self.phrases)


@dataclass(frozen=True)
class MorphemeEntry:
    morpheme: str
    meaning: str
    mtype: MorphemeType

    def __post_init__(self) -> None:
        if not self.morpheme.isalpha() or self.morpheme != self.morpheme.lower():
            raise ValidationError(f"morpheme must be lowercase alphabetic: {self.morpheme!r}")
        if not self.meaning.strip():
            raise ValidationError(f"morpheme {self.morpheme!r} has an empty meaning")


@dataclass(frozen=True)
class Decomposition:
    word: str
    parts: tuple[MorphemeEntry, ...]

    def __post_init__(self) -> None:
        if "".join(p.morpheme for p in self.parts) != self.word:
            raise ValidationError(f"parts do not concatenate to {self.word!r}")
        if not 1 <= len(self.parts) <= 4:
            raise ValidationError("decompositions have between 1 and 4 parts")
        types = [p.mtype for p in self.parts]
        if MorphemeType.ROOT not in types:
            raise ValidationError("decomposition needs at least one root")
        if types != sorted(types, key=_TYPE_ORDER.index):
            raise ValidationError("parts out of prefix/root/terminal order")
        if types.count(MorphemeType.PREFIX) > 1 or types.count(MorphemeType.TERMINAL) > 1:
            raise ValidationError("at most one prefix and one terminal allowed")
        if types.count(MorphemeType.ROOT) > 2:
            raise ValidationError("at most two roots allowed")


@dataclass(frozen=True)
class TransformChain:
    specs: tuple[morph.TransformSpec, ...]

    def __post_init__(self) -> None:
        targets = [s.target for s in self.specs]
        if len(set(targets)) != len(targets):
            raise ConfigError("at most one transformation per feature source")
        if TransformTarget.NEO_FORM in targets and TransformTarget.NEO_MEANING in targets:
            if targets.index(TransformTarget.NEO_FORM) > targets.index(TransformTarget.NEO_MEANING):
                raise ConfigError("form expansion must precede meaning substitution")


@dataclass(frozen=True)
class StageSpec:
    stage_index: int
    subset: DatasetSubsetId
    chain: morph.TransformChain | None = None

    def __post_init__(self) -> None:
        if self.stage_index < 1:
            raise ValidationError("stage_index starts at 1")
        if self.chain is not None and self.subset not in YESNO_SUBSETS:
            raise ValidationError(
                f"stage {self.stage_index}: transform chains apply to yes/no subsets only, "
                f"not {self.subset.value!r}"
            )


@dataclass(frozen=True)
class Schedule:
    schedule_id: str
    stages: tuple[schedule.StageSpec, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError(f"schedule {self.schedule_id}: no stages")
        indices = [s.stage_index for s in self.stages]
        if indices != sorted(set(indices)):
            raise ValidationError(f"schedule {self.schedule_id}: stage indices must increase")


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    fractions: Mapping[DatasetSubsetId, float] = field(
        default_factory=lambda: dict(DEFAULT_HOLDOUT_FRACTIONS)
    )

    def __post_init__(self) -> None:
        for subset, fraction in self.fractions.items():
            if not 0.0 < fraction < 1.0:
                raise ValidationError(f"holdout fraction for {subset} must be in (0, 1)")


# Each named tuple with a check, by its oracle.
VALIDATING = {
    Sentence: corpus.Sentence,
    QAPair: corpus.QAPair,
    YesNoInstance: corpus.YesNoInstance,
    Bm25Params: bm25.Bm25Params,
    QuestionTemplate: covid.QuestionTemplate,
    ParameterVocabulary: covid.ParameterVocabulary,
    CovidFilterPolicy: covid.CovidFilterPolicy,
    MorphemeEntry: morph.MorphemeEntry,
    Decomposition: morph.Decomposition,
    TransformChain: morph.TransformChain,
    StageSpec: schedule.StageSpec,
    Schedule: schedule.Schedule,
    SplitSpec: schedule.SplitSpec,
}


def _same(a, b) -> bool:
    """Equal, or the same object (a NaN is not equal to itself)."""
    return a is b or a == b


def assert_like_oracle(oracle: type, args: tuple = (), kwargs: dict | None = None) -> None:
    """The named tuple built from the same arguments as the oracle raises its
    exception type with its message, or has its field values, repr and hash."""
    kwargs = kwargs or {}
    record = VALIDATING[oracle]
    try:
        expected = oracle(*args, **kwargs)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            record(*args, **kwargs)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    got = record(*args, **kwargs)
    assert type(got) is record
    names = [f.name for f in dataclasses.fields(oracle)]
    assert got._fields == tuple(names)
    for name in names:
        assert _same(getattr(got, name), getattr(expected, name)), name
    assert repr(got) == repr(expected)
    try:
        expected_hash = hash(expected)
    except TypeError:
        with pytest.raises(TypeError):
            hash(got)
    else:
        assert hash(got) == expected_hash


def build(oracle: type, values: tuple, by_keyword: bool) -> None:
    """Checks one set of field values, passed by keyword or by position."""
    if by_keyword:
        names = [f.name for f in dataclasses.fields(oracle)]
        assert_like_oracle(oracle, kwargs=dict(zip(names, values)))
    else:
        assert_like_oracle(oracle, values)


texts = st.text(alphabet="aAb ?\t\n.", max_size=6)
subsets = st.sampled_from(list(DatasetSubsetId))
entries = st.builds(
    morph.MorphemeEntry,
    st.sampled_from(["cardi", "o", "logy", "hepat", "itis", "neo"]),
    st.sampled_from(["heart", "study", "new"]),
    st.sampled_from(list(MorphemeType)),
)
TARGETS = list(TransformTarget)  # form expansion comes before meaning substitution
kinds = st.sampled_from(list(TransformKind))
specs = st.builds(morph.TransformSpec, kinds, st.sampled_from(TARGETS))
# valid chains: one spec per target, in target order
chains = st.lists(specs, max_size=3, unique_by=lambda s: s.target).map(
    lambda s: morph.TransformChain(tuple(sorted(s, key=lambda spec: TARGETS.index(spec.target))))
)


@st.composite
def qa_fields(draw):
    context = draw(texts)
    start = draw(st.integers(-2, len(context) + 1))
    if draw(st.booleans()):
        answer = context[max(start, 0) : max(start, 0) + draw(st.integers(0, 4))]
    else:
        answer = draw(texts)
    return (
        draw(texts), draw(texts), context, answer, start,
        draw(subsets), draw(st.sampled_from(list(Provenance))),
    )


@settings(max_examples=300)
@given(
    st.text(alphabet="ab ", max_size=5), st.integers(-2, 7), st.integers(-2, 7), st.booleans()
)
def test_sentence(text, start, end, by_keyword):
    build(Sentence, (text, start, end), by_keyword)


@settings(max_examples=300)
@given(qa_fields(), st.booleans())
def test_qa_pair(values, by_keyword):
    build(QAPair, values, by_keyword)


@settings(max_examples=200)
@given(texts, texts, texts, st.sampled_from(["yes", "no", "Yes", "maybe", ""]), st.booleans())
def test_yes_no_instance(id_, question, context, label, by_keyword):
    build(YesNoInstance, (id_, question, context, label), by_keyword)


numbers = st.floats(-1, 2) | st.sampled_from([0.0, 1.0, float("nan"), float("inf"), -0.0])


@settings(max_examples=200)
@given(numbers, numbers, st.booleans())
def test_bm25_params(k1, b, by_keyword):
    build(Bm25Params, (k1, b), by_keyword)
    assert_like_oracle(Bm25Params, kwargs={"b": b})
    assert_like_oracle(Bm25Params, (k1,))


@settings(max_examples=200)
@given(
    texts,
    st.sampled_from(["no slots", "[A]", "with [A] and [B_C]", "[a] lower", "[A][A][A]"]),
    st.lists(st.sampled_from(["a", "b"]), max_size=3).map(tuple),
    st.booleans(),
)
def test_question_template(template_id, pattern, slot_types, by_keyword):
    build(QuestionTemplate, (template_id, pattern, slot_types), by_keyword)


paired_values = st.lists(st.sampled_from(["x", "X", "y"]), max_size=2).map(tuple)
plain_values = st.sampled_from(["a", "A", "b"])
vocabulary_values = st.lists(plain_values | paired_values, max_size=4).map(tuple)


@settings(max_examples=300)
@given(
    texts,
    vocabulary_values,
    st.none() | st.dictionaries(st.sampled_from(["a", "b"]), st.just(("alt",)), max_size=2),
    st.booleans(),
)
def test_parameter_vocabulary(name, values, aliases, by_keyword):
    if aliases is None:
        assert_like_oracle(ParameterVocabulary, (name, values))
    else:
        build(ParameterVocabulary, (name, values, aliases), by_keyword)


@settings(max_examples=200)
@given(st.lists(texts, max_size=3).map(tuple), st.dates(), st.booleans())
def test_covid_filter_policy(phrases, cutoff, by_keyword):
    build(CovidFilterPolicy, (phrases, cutoff), by_keyword)
    assert_like_oracle(CovidFilterPolicy, (phrases,))
    assert_like_oracle(CovidFilterPolicy, kwargs={"cutoff_date": cutoff})


@settings(max_examples=300)
@given(
    st.sampled_from(["cardi", "Cardi", "ab1", "", "o"]) | texts,
    st.sampled_from(["heart", " ", ""]) | texts,
    st.sampled_from(list(MorphemeType)),
    st.booleans(),
)
def test_morpheme_entry(morpheme, meaning, mtype, by_keyword):
    build(MorphemeEntry, (morpheme, meaning, mtype), by_keyword)


@settings(max_examples=300)
@given(st.lists(entries, max_size=5).map(tuple), st.booleans(), st.booleans())
def test_decomposition(parts, spelled, by_keyword):
    word = "".join(p.morpheme for p in parts) if spelled else "cardiology"
    build(Decomposition, (word, parts), by_keyword)


@settings(max_examples=300)
@given(st.lists(specs, max_size=4).map(tuple), st.booleans())
def test_transform_chain(specs_, by_keyword):
    build(TransformChain, (specs_,), by_keyword)


@settings(max_examples=200)
@given(st.integers(-1, 3), subsets, st.none() | chains, st.booleans())
def test_stage_spec(index, subset, chain, by_keyword):
    build(StageSpec, (index, subset, chain), by_keyword)
    assert_like_oracle(StageSpec, (index, subset))


@settings(max_examples=200)
@given(
    texts,
    st.lists(st.integers(1, 4), max_size=4).map(
        lambda indices: tuple(schedule.StageSpec(i, DatasetSubsetId.PQA_L) for i in indices)
    ),
    st.booleans(),
)
def test_schedule(schedule_id, stages, by_keyword):
    build(Schedule, (schedule_id, stages), by_keyword)


@settings(max_examples=200)
@given(
    st.integers(-5, 10**12),
    st.dictionaries(subsets, numbers, max_size=3),
    st.booleans(),
)
def test_split_spec(seed, fractions, by_keyword):
    build(SplitSpec, (seed, fractions), by_keyword)
    assert_like_oracle(SplitSpec, (seed,))


def test_default_mappings_are_fresh_per_instance():
    a, b = schedule.SplitSpec(0), schedule.SplitSpec(0)
    assert a.fractions == DEFAULT_HOLDOUT_FRACTIONS
    assert a.fractions is not b.fractions and a.fractions is not DEFAULT_HOLDOUT_FRACTIONS
    a.fractions.clear()
    assert b.fractions == DEFAULT_HOLDOUT_FRACTIONS
    x, y = covid.ParameterVocabulary("v", ("a",)), covid.ParameterVocabulary("v", ("a",))
    assert x.aliases == {} and x.aliases is not y.aliases


# One instance of each record; the parent's field names and order.
SENTENCE = corpus.Sentence("Ab.", 0, 3)
PAIR = corpus.QAPair("q", "Q?", "Ab.", "Ab.", 0, DatasetSubsetId.D1, Provenance.BM25_WEAK)
ENTRY = morph.MorphemeEntry("cardi", "heart", MorphemeType.ROOT)
CHAIN = morph.TransformChain(
    (morph.TransformSpec(TransformKind.REPLACEMENT, TransformTarget.LEMMA),)
)
STAGE = schedule.StageSpec(1, DatasetSubsetId.PQA_L, CHAIN)
RECORDS = [
    ("id question context answer_text answer_start subset provenance", PAIR),
    ("label text", corpus.AbstractSection("RESULTS", "Ab.")),
    ("pmid title pub_date keywords sections", corpus.StructuredAbstract(
        "1", "T", date(2020, 1, 1), ("k",), (corpus.AbstractSection("RESULTS", "Ab."),)
    )),
    ("text char_start char_end", SENTENCE),
    ("id question context label", corpus.YesNoInstance("y", "Q?", "C.", "yes")),
    ("id question context label", corpus.SourceInstance("s", "Q?", "C.")),
    ("id predicted_text predicted_label", corpus.Prediction("q", "Ab.")),
    ("k1 b", bm25.Bm25Params()),
    ("n exact_match f1 accuracy", metrics.EvalReport(1, accuracy=1.0)),
    ("pair source_subset bm25_score n_candidates", WeakLabelRecord(
        PAIR, DatasetSubsetId.PQA_L, 1.5, 2
    )),
    ("template_id pattern slot_types", covid.QuestionTemplate("t", "with [A]?", ("a",))),
    ("name values aliases", covid.ParameterVocabulary("a", ("x",), {"x": ("y",)})),
    ("question template_id parameters", covid.InstantiatedQuestion("with x?", "t", ("x",))),
    ("phrases cutoff_date", covid.CovidFilterPolicy()),
    ("question pmid context candidate_sentences", covid.CurationCandidate(
        "Q?", "1", "Ab.", (SENTENCE,)
    )),
    ("morpheme meaning mtype", ENTRY),
    ("word parts", morph.Decomposition("cardi", (ENTRY,))),
    ("kind target", CHAIN.specs[0]),
    ("specs", CHAIN),
    ("stage_index subset chain", STAGE),
    ("schedule_id stages", schedule.Schedule("s", (STAGE,))),
    ("seed fractions", schedule.SplitSpec(7)),
    ("seed test_by_subset", schedule.TargetSplit(7, {DatasetSubsetId.D1: ("a",)})),
    ("n_folds pool reserved_test folds", schedule.FoldSpec(1, ("a",), ("b",), (("a",),))),
]


def test_every_record_keeps_its_fields_in_order():
    assert len({type(r) for _names, r in RECORDS}) == len(RECORDS) == 24
    for names, record in RECORDS:
        assert record._fields == tuple(names.split()), type(record).__name__


@pytest.mark.parametrize(
    "record", [r for _names, r in RECORDS], ids=[type(r).__name__ for _names, r in RECORDS]
)
def test_records_are_immutable_and_have_no_dict(record):
    assert not hasattr(record, "__dict__")
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_src_neither_imports_dataclasses_nor_skips_the_checks():
    """`_make` and `_replace` build a record without its `__new__`."""
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "dataclass" not in text, path.name
        assert not re.search(r"\._(make|replace)\(", text), path.name
