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
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import formats
from .corpus import YesNoInstance
from .errors import ConfigError, ParseError, ValidationError

log = logging.getLogger(__name__)

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
    looks up only the substrings that can be entries. Two memos are shared
    by every caller of this instance: `decompose`'s result per word, and a
    feature value table per (target, constituent mode) for the transforms.
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
        self._values: dict[tuple[TransformTarget, bool], dict[str, str | None]] = {}

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
        with formats.open_text(Path(path)) as handle:
            lines = handle.read().splitlines()
        entries.extend(_parse_morpheme_lines(lines, str(path)))
    return MorphemeLexicon(entries)


def default_morpheme_lexicon() -> MorphemeLexicon:
    """The combining-form lexicon shipped with the package."""
    text = resources.files("medqakit.data").joinpath("neoclassical_forms.txt").read_text("utf-8")
    return MorphemeLexicon(_parse_morpheme_lines(text.splitlines(), "neoclassical_forms.txt"))


@dataclass(frozen=True)
class LemmaLexicon:
    """Exception table consulted before the built-in suffix rules.

    The transforms memoize each token's lemma on the instance.
    """

    exceptions: Mapping[str, str]
    _values: dict[tuple[TransformTarget, bool], dict[str, str | None]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


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
        with formats.open_text(Path(path)) as handle:
            lines = handle.read().splitlines()
        exceptions.update(_parse_lemma_lines(lines, str(path)))
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


def _lemma_value(token: str, lexicon: LemmaLexicon) -> str | None:
    return lemmatize_token(token, lexicon)


def _form_value(token: str, lexicon: MorphemeLexicon) -> str | None:
    decomposition = decompose(token.lower(), lexicon)
    if decomposition is None or len(decomposition.parts) == 1:
        return None
    return _match_first_case(" ".join(p.morpheme for p in decomposition.parts), token)


def _constituent_meaning(token: str, lexicon: MorphemeLexicon) -> str | None:
    entry = lexicon.lookup_any(token.lower())
    return None if entry is None else _match_first_case(entry.meaning, token)


def _whole_word_meaning(token: str, lexicon: MorphemeLexicon) -> str | None:
    decomposition = decompose(token.lower(), lexicon)
    return None if decomposition is None else _match_first_case(meanings_of(decomposition), token)


# Feature value of a token per (target, constituent mode). Each function
# looks up `lemmatize_token` and `decompose` when it runs, so a caller that
# replaces those module attributes sees every computed value.
_VALUE_FNS: dict[tuple[TransformTarget, bool], Callable[..., str | None]] = {
    (TransformTarget.LEMMA, False): _lemma_value,
    (TransformTarget.NEO_FORM, False): _form_value,
    (TransformTarget.NEO_MEANING, False): _whole_word_meaning,
    (TransformTarget.NEO_MEANING, True): _constituent_meaning,
}

# re.split with one group: the words sit at the odd indices, and joining
# every piece gives the text back.
_SPLIT_WORDS = re.compile(r"([A-Za-z]+)").split


class _Step(dict):
    """One chain step, as a table from each word seen so far to the text
    that takes its place: the word itself where the feature leaves it
    unchanged.

    A word new to the table takes its value from the lexicon's table for
    the step's (target, constituent mode), which computes it once per
    lexicon instance.
    """

    __slots__ = ("augment", "concatenate", "values", "value_of", "lexicon")

    def __init__(
        self,
        spec: TransformSpec,
        constituent: bool,
        lems: LemmaLexicon | None,
        morphs: MorphemeLexicon | None,
    ):
        super().__init__()
        if spec.target is TransformTarget.LEMMA:
            if lems is None:
                raise ConfigError("lemma transformations need a lemma lexicon")
            lexicon: LemmaLexicon | MorphemeLexicon = lems
        else:
            if morphs is None:
                raise ConfigError("combining-form transformations need a morpheme lexicon")
            lexicon = morphs
        key = (spec.target, constituent)
        self.augment = spec.kind is TransformKind.AUGMENTATION
        self.concatenate = spec.kind is TransformKind.CONCATENATION
        self.values = lexicon._values.setdefault(key, {})
        self.value_of = _VALUE_FNS[key]
        self.lexicon = lexicon

    def __missing__(self, word: str) -> str:
        values = self.values
        if word in values:
            value = values[word]
        else:
            value = self.value_of(word, self.lexicon)
            if value == word:
                value = None
            values[word] = value
        if value is None:
            slot = word
        elif self.concatenate:
            slot = word + " " + value
        else:
            slot = value
        self[word] = slot
        return slot

    def edit(self, text: str) -> str | None:
        """The text with every word put through the table, or None when no
        word changes; the text between words keeps its exact position."""
        pieces = _SPLIT_WORDS(text)
        words = pieces[1::2]
        slots = list(map(self.__getitem__, words))
        if slots == words:
            return None
        pieces[1::2] = slots
        return "".join(pieces)


def _chain_steps(
    chain: TransformChain, lems: LemmaLexicon | None, morphs: MorphemeLexicon | None
) -> list[_Step]:
    """The chain's steps; after a form expansion, meaning substitution
    rewrites constituent-form tokens instead of decomposing whole words."""
    steps = []
    forms_expanded = False
    for spec in chain.specs:
        constituent = spec.target is TransformTarget.NEO_MEANING and forms_expanded
        steps.append(_Step(spec, constituent, lems, morphs))
        forms_expanded = forms_expanded or spec.target is TransformTarget.NEO_FORM
    return steps


def _run_steps(text: str, steps: Sequence[_Step]) -> list[str]:
    """The running text first, then each augmentation variant in order.

    An in-line step rewrites each text; an augmentation step keeps each
    text and adds its edited form after it, when that differs.
    """
    texts = [text]
    for step in steps:
        next_texts = []
        for current in texts:
            edited = step.edit(current)
            if edited is None or step.augment:
                next_texts.append(current)
            if edited is not None:
                next_texts.append(edited)
        texts = next_texts
    return texts


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
    texts = _run_steps(text, _chain_steps(chain, lems, morphs))
    return [(variant, k > 0) for k, variant in enumerate(texts)]


def transform_dataset(
    instances: Sequence[YesNoInstance],
    chain: TransformChain,
    lems: LemmaLexicon | None = None,
    morphs: MorphemeLexicon | None = None,
) -> list[YesNoInstance]:
    """Transform the question and context of every yes/no instance.

    Each instance is edited in line (same count), and its augmentation
    variants follow it with ids "{id}#aug{k}".
    """
    steps = _chain_steps(chain, lems, morphs)
    out: list[YesNoInstance] = []
    for instance in instances:
        questions = _run_steps(instance.question, steps)
        contexts = _run_steps(instance.context, steps)
        for k in range(max(len(questions), len(contexts))):
            out.append(
                YesNoInstance(
                    id=f"{instance.id}#aug{k}" if k else instance.id,
                    question=questions[k] if k < len(questions) else questions[0],
                    context=contexts[k] if k < len(contexts) else contexts[0],
                    label=instance.label,
                )
            )
    return out
