"""Morphological text transformations over three feature sources: word
lemmas, neo-classical combining forms, and the meanings of those forms.

Three edit kinds are supported. Replacement substitutes the feature text at
the original token's position, concatenation inserts it immediately after
the token, and augmentation leaves the text untouched but yields a fully
replaced variant as a new training example. Chains apply several edits in
sequence; when a form expansion precedes a meaning substitution, the
meaning step rewrites the constituent-form tokens already present in the
running text instead of re-decomposing whole words.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bm25 import Bm25Params
from .corpus import QAPair, YesNoInstance
from .errors import ConfigError, ParseError, ValidationError
from .weak_label import QUERY_STOPWORDS, select_answer_sentence

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[A-Za-z]+")


class MorphemeType(str, Enum):
    PREFIX = "prefix"
    ROOT = "root"
    TERMINAL = "terminal"


_TYPE_ORDER = (MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.TERMINAL)


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


class MorphemeLexicon:
    """Combining-form entries indexed by (morpheme, type); immutable once built.

    Each type also keeps the lengths its morphemes come in, so `decompose`
    looks up only the substrings that can be entries, and a memo of
    `decompose`'s result per word, shared by every caller of this instance.
    """

    def __init__(self, entries: Iterable[MorphemeEntry]):
        self._by_type: dict[MorphemeType, dict[str, MorphemeEntry]] = {
            t: {} for t in MorphemeType
        }
        for entry in entries:
            bucket = self._by_type[entry.mtype]
            if entry.morpheme in bucket:
                log.warning(
                    "duplicate morpheme (%s, %s): last entry wins",
                    entry.morpheme,
                    entry.mtype.value,
                )
            bucket[entry.morpheme] = entry
        self._lengths = {t: sorted({len(m) for m in b}) for t, b in self._by_type.items()}
        self._decompositions: dict[str, Decomposition | None] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_type.values())

    @property
    def entries(self) -> list[MorphemeEntry]:
        return [e for t in _TYPE_ORDER for e in self._by_type[t].values()]

    def get(self, morpheme: str, mtype: MorphemeType) -> MorphemeEntry | None:
        return self._by_type[mtype].get(morpheme)

    def lookup_any(self, morpheme: str) -> MorphemeEntry | None:
        for mtype in _TYPE_ORDER:
            entry = self._by_type[mtype].get(morpheme)
            if entry is not None:
                return entry
        return None

    def starting_at(
        self, word: str, pos: int, mtype: MorphemeType, end_limit: int
    ) -> Iterator[MorphemeEntry]:
        """Entries of `mtype` spelled by `word` from `pos`, ending by `end_limit`."""
        bucket = self._by_type[mtype]
        for length in self._lengths[mtype]:
            end = pos + length
            if end > end_limit:
                return
            entry = bucket.get(word[pos:end])
            if entry is not None:
                yield entry


def _rows(lines: Iterable[str], origin: str, layout: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and stripped fields of each line with text outside a # comment."""
    for line_number, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = [f.strip() for f in body.split("|")]
        if len(fields) != layout.count("|") + 1:
            raise ParseError(f"{origin} line {line_number}: expected {layout}")
        yield line_number, fields


def _parse_morpheme_lines(lines: Iterable[str], origin: str) -> list[MorphemeEntry]:
    entries = []
    rows = _rows(lines, origin, "MORPHEME|MEANING|TYPE")
    for line_number, (morpheme, meaning, type_text) in rows:
        try:
            mtype = MorphemeType(type_text.lower())
        except ValueError as exc:
            raise ParseError(
                f"{origin} line {line_number}: unknown morpheme type {type_text!r}"
            ) from exc
        entries.append(MorphemeEntry(morpheme=morpheme.lower(), meaning=meaning, mtype=mtype))
    return entries


def load_morpheme_lexicon(*paths: str | Path) -> MorphemeLexicon:
    """Load and merge one or more pipe-delimited lexicon files."""
    if not paths:
        raise ConfigError("no morpheme lexicon paths given")
    entries: list[MorphemeEntry] = []
    for path in paths:
        path = Path(path)
        entries.extend(
            _parse_morpheme_lines(path.read_text(encoding="utf-8").splitlines(), str(path))
        )
    return MorphemeLexicon(entries)


def default_morpheme_lexicon() -> MorphemeLexicon:
    """The combining-form lexicon shipped with the package."""
    text = resources.files("medqakit.data").joinpath("neoclassical_forms.txt").read_text("utf-8")
    return MorphemeLexicon(_parse_morpheme_lines(text.splitlines(), "neoclassical_forms.txt"))


@dataclass(frozen=True)
class LemmaLexicon:
    """Exception table consulted before the built-in suffix rules."""

    exceptions: Mapping[str, str]


_VOWELS = "aeiou"
# doubled finals kept as-is when stripping -ed/-ing ("fill", "pass", "stuff", "buzz")
_DOUBLE_KEEP = "lsfz"


def _repair_stem(stem: str) -> str:
    """Undo consonant doubling or restore a dropped silent e after -ed/-ing."""
    if (
        len(stem) >= 3
        and stem[-1] == stem[-2]
        and stem[-1] not in _VOWELS
        and stem[-1] not in _DOUBLE_KEEP
    ):
        return stem[:-1]
    last = stem[-1]
    prev = stem[-2] if len(stem) >= 2 else ""
    prev2 = stem[-3] if len(stem) >= 3 else ""
    if last in "cuvz":
        return stem + "e"
    if last == "s" and prev != "s":
        return stem + "e"
    if last == "l" and prev and prev not in _VOWELS + "l":
        return stem + "e"
    if stem.endswith(("ur", "ir")):
        return stem + "e"
    if last == "g" and (prev in _VOWELS or prev == "r"):
        return stem + "e"
    if last == "n" and prev == "i" and prev2 and prev2 not in "aeou":
        return stem + "e"
    if last == "t" and prev in "aou" and prev2 and prev2 not in "aeo":
        return stem + "e"
    if last in "kdmp" and prev in _VOWELS and prev2 and prev2 not in "aeou":
        return stem + "e"
    return stem


def _apply_suffix_rules(word: str) -> str:
    if len(word) >= 5 and word.endswith("ies"):
        return word[:-3] + "y"
    if len(word) >= 5 and word.endswith(("ses", "xes", "zes", "ches", "shes")):
        return word[:-2]
    if len(word) >= 4 and word.endswith("s") and word[-2] not in "siu":
        return word[:-1]
    if len(word) >= 5 and word.endswith("ied"):
        return word[:-3] + "y"
    if word.endswith("eed"):
        return word[:-1] if len(word) >= 6 else word
    if len(word) >= 4 and word.endswith("ed"):
        stem = word[:-2]
        if len(stem) >= 2 and any(c in _VOWELS for c in stem):
            return _repair_stem(stem)
        return word
    if len(word) >= 5 and word.endswith("ing"):
        stem = word[:-3]
        if len(stem) >= 2 and any(c in _VOWELS for c in stem):
            return _repair_stem(stem)
        return word
    return word


def _match_first_case(text: str, original: str) -> str:
    if original[:1].isupper() and text:
        return text[0].upper() + text[1:]
    return text


def lemmatize_token(token: str, lexicon: LemmaLexicon) -> str:
    """Exception lookup first, else the first applicable suffix rule.

    Rules: -ies -> -y; -es after a sibilant stripped; plural -s stripped
    (never after s/i/u); -ed/-ing stripped with silent-e restoration and
    consonant undoubling. The case of the first letter is preserved.
    """
    if not token:
        raise ValidationError("cannot lemmatize an empty token")
    lower = token.lower()
    lemma = lexicon.exceptions.get(lower)
    if lemma is None:
        lemma = _apply_suffix_rules(lower)
    return _match_first_case(lemma, token)


def _parse_lemma_lines(lines: Iterable[str], origin: str) -> dict[str, str]:
    exceptions: dict[str, str] = {}
    for line_number, (surface, lemma) in _rows(lines, origin, "SURFACE|LEMMA"):
        if not surface or not lemma:
            raise ParseError(f"{origin} line {line_number}: empty surface or lemma")
        exceptions[surface.lower()] = lemma.lower()
    return exceptions


def _validate_fixed_points(lexicon: LemmaLexicon) -> None:
    for surface, lemma in lexicon.exceptions.items():
        again = lemmatize_token(lemma, lexicon)
        if again != lemma:
            raise ValidationError(
                f"lemma exception {surface!r} -> {lemma!r} is not a fixed point "
                f"(lemma of {lemma!r} is {again!r})"
            )


def load_lemma_lexicon(*paths: str | Path) -> LemmaLexicon:
    """Load SURFACE|LEMMA exception files; every lemma must be a fixed point."""
    exceptions: dict[str, str] = {}
    for path in paths:
        path = Path(path)
        exceptions.update(
            _parse_lemma_lines(path.read_text(encoding="utf-8").splitlines(), str(path))
        )
    lexicon = LemmaLexicon(exceptions=exceptions)
    _validate_fixed_points(lexicon)
    return lexicon


def default_lemma_lexicon() -> LemmaLexicon:
    """The exception table shipped with the package."""
    text = resources.files("medqakit.data").joinpath("lemma_exceptions.txt").read_text("utf-8")
    lexicon = LemmaLexicon(exceptions=_parse_lemma_lines(text.splitlines(), "lemma_exceptions.txt"))
    _validate_fixed_points(lexicon)
    return lexicon


@dataclass(frozen=True)
class Decomposition:
    """A full segmentation of a word into combining-form parts.

    Parts follow the pattern prefix? root root? terminal?, concatenate back
    to the word exactly, and always include at least one root.
    """

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


_PATTERNS: tuple[tuple[MorphemeType, ...], ...] = tuple(
    tuple(p)
    for p in (
        [MorphemeType.ROOT],
        [MorphemeType.PREFIX, MorphemeType.ROOT],
        [MorphemeType.ROOT, MorphemeType.ROOT],
        [MorphemeType.ROOT, MorphemeType.TERMINAL],
        [MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.ROOT],
        [MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.TERMINAL],
        [MorphemeType.ROOT, MorphemeType.ROOT, MorphemeType.TERMINAL],
        [MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.ROOT, MorphemeType.TERMINAL],
    )
)


def decompose(
    word: str,
    lexicon: MorphemeLexicon,
    min_length: int = 6,
) -> Decomposition | None:
    """Best segmentation of a word over the combining-form lexicon.

    Valid segmentations must cover the word exactly and match the pattern
    prefix? root root? terminal?. Among them the fewest parts win, then the
    longest first part, then longer subsequent parts. Words shorter than
    min_length are never decomposed. The result is memoized on the lexicon.
    """
    if len(word) < min_length or not word.isalpha() or word != word.lower():
        return None
    memo = lexicon._decompositions
    if word not in memo:
        memo[word] = _best_segmentation(word, lexicon)
    return memo[word]


def _best_segmentation(word: str, lexicon: MorphemeLexicon) -> Decomposition | None:
    solutions: list[tuple[MorphemeEntry, ...]] = []

    def match(pattern: tuple[MorphemeType, ...], step: int, pos: int, parts: list[MorphemeEntry]) -> None:
        if step == len(pattern):
            if pos == len(word):
                solutions.append(tuple(parts))
            return
        # leave at least one letter for each later part
        end_limit = len(word) - (len(pattern) - step - 1)
        for entry in lexicon.starting_at(word, pos, pattern[step], end_limit):
            parts.append(entry)
            match(pattern, step + 1, pos + len(entry.morpheme), parts)
            parts.pop()

    for pattern in _PATTERNS:
        match(pattern, 0, 0, [])

    if not solutions:
        return None
    # No two segmentations share a key: equal part lengths spell equal
    # morphemes, and a morpheme has one entry per type.
    best = min(
        solutions,
        key=lambda parts: (
            len(parts),
            tuple(-len(p.morpheme) for p in parts),
            tuple(_TYPE_ORDER.index(p.mtype) for p in parts),
        ),
    )
    return Decomposition(word=word, parts=best)


def meanings_of(decomposition: Decomposition) -> str:
    """Space-joined meanings of the parts, in order."""
    return " ".join(p.meaning for p in decomposition.parts)


class TransformKind(str, Enum):
    REPLACEMENT = "replacement"
    CONCATENATION = "concatenation"
    AUGMENTATION = "augmentation"


class TransformTarget(str, Enum):
    LEMMA = "lemma"
    NEO_FORM = "neo_form"
    NEO_MEANING = "neo_meaning"


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    target: TransformTarget


@dataclass(frozen=True)
class TransformChain:
    specs: tuple[TransformSpec, ...]

    def __post_init__(self) -> None:
        targets = [s.target for s in self.specs]
        if len(set(targets)) != len(targets):
            raise ConfigError("at most one transformation per feature source")
        if TransformTarget.NEO_FORM in targets and TransformTarget.NEO_MEANING in targets:
            if targets.index(TransformTarget.NEO_FORM) > targets.index(TransformTarget.NEO_MEANING):
                raise ConfigError("form expansion must precede meaning substitution")

    @property
    def is_augmentation_only(self) -> bool:
        return all(s.kind is TransformKind.AUGMENTATION for s in self.specs)


def _edit_tokens(
    text: str, kind: TransformKind, value_for: Callable[[str], str | None]
) -> tuple[str, bool]:
    """Apply one in-line edit; untouched text keeps its exact position."""
    out: list[str] = []
    last = 0
    changed = False
    for match in _WORD_RE.finditer(text):
        value = value_for(match.group())
        if value is None or value == match.group():
            continue
        if kind is TransformKind.CONCATENATION:
            out.append(text[last : match.end()])
            out.append(" " + value)
        else:
            out.append(text[last : match.start()])
            out.append(value)
        last = match.end()
        changed = True
    out.append(text[last:])
    return "".join(out), changed


def _value_fn(
    target: TransformTarget,
    lems: LemmaLexicon | None,
    morphs: MorphemeLexicon | None,
    constituent_mode: bool,
) -> Callable[[str], str | None]:
    if target is TransformTarget.LEMMA:
        if lems is None:
            raise ConfigError("lemma transformations need a lemma lexicon")

        def lemma_value(token: str) -> str | None:
            lemma = lemmatize_token(token, lems)
            return lemma if lemma != token else None

        return lemma_value

    if morphs is None:
        raise ConfigError("combining-form transformations need a morpheme lexicon")

    if target is TransformTarget.NEO_FORM:

        def form_value(token: str) -> str | None:
            decomposition = decompose(token.lower(), morphs)
            if decomposition is None or len(decomposition.parts) == 1:
                return None
            joined = " ".join(p.morpheme for p in decomposition.parts)
            return _match_first_case(joined, token)

        return form_value

    if constituent_mode:

        def constituent_meaning(token: str) -> str | None:
            entry = morphs.lookup_any(token.lower())
            if entry is None:
                return None
            return _match_first_case(entry.meaning, token)

        return constituent_meaning

    def whole_word_meaning(token: str) -> str | None:
        decomposition = decompose(token.lower(), morphs)
        if decomposition is None:
            return None
        return _match_first_case(meanings_of(decomposition), token)

    return whole_word_meaning


def apply_chain(
    text: str,
    chain: TransformChain,
    lems: LemmaLexicon | None = None,
    morphs: MorphemeLexicon | None = None,
) -> list[tuple[str, bool]]:
    """Apply a chain sequentially; returns (text, is_new_example) variants.

    The first variant is always the running original. Augmentation steps add
    new variants that flow through the remaining steps. After a form
    expansion, meaning substitution rewrites constituent-form tokens in the
    running text; otherwise it expands decomposable whole words directly.
    """
    variants: list[tuple[str, bool]] = [(text, False)]
    forms_expanded = False
    for spec in chain.specs:
        constituent_mode = spec.target is TransformTarget.NEO_MEANING and forms_expanded
        value_for = _value_fn(spec.target, lems, morphs, constituent_mode)
        next_variants: list[tuple[str, bool]] = []
        for current, is_new in variants:
            if spec.kind is TransformKind.AUGMENTATION:
                replaced, changed = _edit_tokens(current, TransformKind.REPLACEMENT, value_for)
                next_variants.append((current, is_new))
                if changed:
                    next_variants.append((replaced, True))
            else:
                edited, _changed = _edit_tokens(current, spec.kind, value_for)
                next_variants.append((edited, is_new))
        variants = next_variants
        if spec.target is TransformTarget.NEO_FORM:
            forms_expanded = True
    return variants


def transform_dataset(
    instances: Sequence[YesNoInstance | QAPair],
    chain: TransformChain,
    lems: LemmaLexicon | None = None,
    morphs: MorphemeLexicon | None = None,
    *,
    fields: tuple[str, ...] = ("question", "context"),
    bm25_params: Bm25Params = Bm25Params(),
) -> list[YesNoInstance | QAPair]:
    """Transform the selected text fields of every instance.

    Yes/no instances are edited in line (same count) and augmentation
    variants are appended with ids "{id}#aug{k}". Extractive pairs accept
    in-line edits on the question only; context transformation must be
    augmentation-only, and each new context is re-labelled so the answer
    span stays anchored.
    """
    unknown = set(fields) - {"question", "context"}
    if unknown:
        raise ConfigError(f"unknown fields: {sorted(unknown)}")

    def chain_on(value: str) -> list[tuple[str, bool]]:
        return apply_chain(value, chain, lems, morphs)

    out: list[YesNoInstance | QAPair] = []
    for instance in instances:
        is_pair = isinstance(instance, QAPair)
        if is_pair and "context" in fields and not chain.is_augmentation_only:
            raise ValidationError(
                f"{instance.id}: in-line context edits would break answer anchoring; "
                "use an augmentation-only chain for extractive pairs"
            )
        q_variants = chain_on(instance.question) if "question" in fields else [(instance.question, False)]
        c_variants = chain_on(instance.context) if "context" in fields else [(instance.context, False)]
        base_question, base_context = q_variants[0][0], c_variants[0][0]

        if is_pair:
            if base_question != instance.question:
                out.append(dc_replace(instance, question=base_question))
            else:
                out.append(instance)
        else:
            out.append(
                YesNoInstance(
                    id=instance.id,
                    question=base_question,
                    context=base_context,
                    label=instance.label,
                )
            )

        n_extra = max(len(q_variants), len(c_variants)) - 1
        for k in range(1, n_extra + 1):
            question_k = q_variants[k][0] if k < len(q_variants) else base_question
            context_k = c_variants[k][0] if k < len(c_variants) else base_context
            new_id = f"{instance.id}#aug{k}"
            if is_pair:
                sentence, _score, _n = select_answer_sentence(
                    question_k, context_k, bm25_params, stopwords=QUERY_STOPWORDS
                )
                out.append(
                    dc_replace(
                        instance,
                        id=new_id,
                        question=question_k,
                        context=context_k,
                        answer_text=sentence.text,
                        answer_start=sentence.char_start,
                    )
                )
            else:
                out.append(
                    YesNoInstance(
                        id=new_id, question=question_k, context=context_k, label=instance.label
                    )
                )
    return out
