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

import re
from collections import namedtuple
from enum import Enum
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import formats
from .corpus import YesNoInstance
from .errors import ConfigError, ParseError, ValidationError, warn


class MorphemeType(str, Enum):
    PREFIX = "prefix"
    ROOT = "root"
    TERMINAL = "terminal"


_TYPE_ORDER = (MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.TERMINAL)


class MorphemeEntry(namedtuple("MorphemeEntry", "morpheme meaning mtype")):
    __slots__ = ()

    def __new__(cls, morpheme: str, meaning: str, mtype: MorphemeType):
        if not morpheme.isalpha() or morpheme != morpheme.lower():
            raise ValidationError(f"morpheme must be lowercase alphabetic: {morpheme!r}")
        if not meaning.strip():
            raise ValidationError(f"morpheme {morpheme!r} has an empty meaning")
        return tuple.__new__(cls, (morpheme, meaning, mtype))


class MorphemeLexicon:
    """Combining-form entries indexed by (morpheme, type); immutable once built.

    Each type also keeps the lengths its morphemes come in, so `decompose`
    looks up only the substrings that can be entries. Two memos are shared
    by every caller of this instance: `decompose`'s result per word, and the
    transforms' word table per (target, constituent mode).
    """

    def __init__(self, entries: Iterable[MorphemeEntry]):
        self._by_type: dict[MorphemeType, dict[str, MorphemeEntry]] = {
            t: {} for t in MorphemeType
        }
        for entry in entries:
            bucket = self._by_type[entry.mtype]
            if entry.morpheme in bucket:
                key = f"{entry.morpheme}, {entry.mtype.value}"
                warn(__name__, f"duplicate morpheme ({key}): last entry wins")
            bucket[entry.morpheme] = entry
        self._lengths = {t: sorted({len(m) for m in b}) for t, b in self._by_type.items()}
        self._decompositions: dict[str, Decomposition | None] = {}
        self._tables: dict[tuple[TransformTarget, bool], _Table] = {}

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


class LemmaLexicon:
    """Exception table consulted before the built-in suffix rules.

    The transforms keep each token's lemma on the instance: the word table
    per (target, constituent mode) is a memo shared by every caller.
    """

    def __init__(self, exceptions: Mapping[str, str]):
        self.exceptions = exceptions
        self._tables: dict[tuple[TransformTarget, bool], _Table] = {}


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


class Decomposition(namedtuple("Decomposition", "word parts")):
    """A full segmentation of a word into combining-form parts.

    Parts follow the pattern prefix? root root? terminal?, concatenate back
    to the word exactly, and always include at least one root.
    """

    __slots__ = ()

    def __new__(cls, word: str, parts: tuple[MorphemeEntry, ...]):
        if "".join(p.morpheme for p in parts) != word:
            raise ValidationError(f"parts do not concatenate to {word!r}")
        if not 1 <= len(parts) <= 4:
            raise ValidationError("decompositions have between 1 and 4 parts")
        types = [p.mtype for p in parts]
        if MorphemeType.ROOT not in types:
            raise ValidationError("decomposition needs at least one root")
        if types != sorted(types, key=_TYPE_ORDER.index):
            raise ValidationError("parts out of prefix/root/terminal order")
        if types.count(MorphemeType.PREFIX) > 1 or types.count(MorphemeType.TERMINAL) > 1:
            raise ValidationError("at most one prefix and one terminal allowed")
        if types.count(MorphemeType.ROOT) > 2:
            raise ValidationError("at most two roots allowed")
        return tuple.__new__(cls, (word, parts))


# The grammar prefix? root root? terminal? as states of one walk: from each
# state, the morpheme types that may come next and the state each leads to.
# A word may end in states 2, 3 and 4: after a root or after the terminal.
_GRAMMAR: tuple[tuple[tuple[MorphemeType, int], ...], ...] = (
    ((MorphemeType.PREFIX, 1), (MorphemeType.ROOT, 2)),
    ((MorphemeType.ROOT, 2),),
    ((MorphemeType.ROOT, 3), (MorphemeType.TERMINAL, 4)),
    ((MorphemeType.TERMINAL, 4),),
    (),
)
_ENDS = (MorphemeType.ROOT, MorphemeType.TERMINAL)


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
    n = len(word)
    buckets, lengths = lexicon._by_type, lexicon._lengths
    # every segmentation ends in a root or a terminal
    ends = (word[n - k :] in buckets[t] for t in _ENDS for k in lengths[t] if k <= n)
    if not any(ends):
        return None
    found: dict[tuple[int, MorphemeType], list[MorphemeEntry]] = {}
    solutions: list[tuple[MorphemeEntry, ...]] = []

    def walk(state: int, pos: int, parts: tuple[MorphemeEntry, ...]) -> None:
        if pos == n:
            if state >= 2:
                solutions.append(parts)
            return
        for mtype, then in _GRAMMAR[state]:
            # the entries of each type spelled from each position, looked up once
            if (pos, mtype) not in found:
                bucket = buckets[mtype]
                spelled = (word[pos : pos + k] for k in lengths[mtype] if pos + k <= n)
                found[pos, mtype] = [bucket[m] for m in spelled if m in bucket]
            for entry in found[pos, mtype]:
                walk(then, pos + len(entry.morpheme), parts + (entry,))

    walk(0, 0, ())
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


class TransformSpec(namedtuple("TransformSpec", "kind target")):
    """kind: TransformKind, target: TransformTarget."""

    __slots__ = ()


class TransformChain(namedtuple("TransformChain", "specs")):
    __slots__ = ()

    def __new__(cls, specs: tuple[TransformSpec, ...]):
        targets = [s.target for s in specs]
        if len(set(targets)) != len(targets):
            raise ConfigError("at most one transformation per feature source")
        if TransformTarget.NEO_FORM in targets and TransformTarget.NEO_MEANING in targets:
            if targets.index(TransformTarget.NEO_FORM) > targets.index(TransformTarget.NEO_MEANING):
                raise ConfigError("form expansion must precede meaning substitution")
        return tuple.__new__(cls, (specs,))


def _feature_value(
    target: TransformTarget, constituent: bool, lexicon: LemmaLexicon | MorphemeLexicon, token: str
) -> str:
    """A token's value for a target and constituent mode: the token itself
    where the feature leaves it unchanged. It looks up `lemmatize_token` and
    `decompose` when it runs, so a caller that replaces those module
    attributes sees every computed value."""
    if target is TransformTarget.LEMMA:
        lemma = lemmatize_token(token, lexicon)
        return token if lemma == token else lemma
    if constituent:
        entry = lexicon.lookup_any(token.lower())
        return token if entry is None else _match_first_case(entry.meaning, token)
    decomposition = decompose(token.lower(), lexicon)
    if decomposition is None:
        return token
    if target is TransformTarget.NEO_MEANING:
        return _match_first_case(meanings_of(decomposition), token)
    if len(decomposition.parts) == 1:
        return token
    return _match_first_case(" ".join(p.morpheme for p in decomposition.parts), token)


# re.split with one group: the words sit at the odd indices, and joining
# every piece gives the text back.
_SPLIT_WORDS = re.compile(r"([A-Za-z]+)").split


class _Table(dict):
    """A table from each word looked up so far to the text that takes its
    place; `fill` gives the text of a word new to it."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[str], str]):
        super().__init__()
        self.fill = fill

    def __missing__(self, word: str) -> str:
        text = self[word] = self.fill(word)
        return text


def _concatenation(values: _Table, word: str) -> str:
    value = values[word]
    return word if value == word else word + " " + value


def _chain_steps(
    chain: TransformChain, lems: LemmaLexicon | None, morphs: MorphemeLexicon | None
) -> list[tuple[_Table, bool]]:
    """Each step's word table and whether the step augments.

    A feature's table is kept on its lexicon, so each value is computed once
    per lexicon instance; a concatenation step's table is made here, from
    it. After a form expansion, meaning substitution rewrites
    constituent-form tokens instead of decomposing whole words.
    """
    steps = []
    forms_expanded = False
    for spec in chain.specs:
        if spec.target is TransformTarget.LEMMA:
            lexicon, missing = lems, "lemma transformations need a lemma lexicon"
        else:
            lexicon, missing = morphs, "combining-form transformations need a morpheme lexicon"
        if lexicon is None:
            raise ConfigError(missing)
        key = (spec.target, spec.target is TransformTarget.NEO_MEANING and forms_expanded)
        table = lexicon._tables.get(key)
        if table is None:
            table = lexicon._tables[key] = _Table(partial(_feature_value, *key, lexicon))
        if spec.kind is TransformKind.CONCATENATION:
            table = _Table(partial(_concatenation, table))
        steps.append((table, spec.kind is TransformKind.AUGMENTATION))
        forms_expanded = forms_expanded or spec.target is TransformTarget.NEO_FORM
    return steps


def _run_steps(text: str, steps: Sequence[tuple[_Table, bool]]) -> list[str]:
    """The running text first, then each augmentation variant in order.

    A step puts every word of each text through its table; the text between
    words keeps its exact position. An in-line step rewrites each text; an
    augmentation step keeps each text and adds its edited form after it,
    when that differs.
    """
    texts = [text]
    for table, augment in steps:
        next_texts = []
        for current in texts:
            pieces = _SPLIT_WORDS(current)
            words = pieces[1::2]
            slots = list(map(table.__getitem__, words))
            changed = slots != words
            if augment or not changed:
                next_texts.append(current)
            if changed:
                pieces[1::2] = slots
                next_texts.append("".join(pieces))
        texts = next_texts
    return texts


def transform_dataset(
    instances: Iterable[YesNoInstance],
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
