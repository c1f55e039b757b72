import itertools
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    ConfigError,
    Decomposition,
    LemmaLexicon,
    MorphemeEntry,
    MorphemeLexicon,
    MorphemeType,
    ParseError,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    ValidationError,
    YesNoInstance,
    decompose,
    default_lemma_lexicon,
    default_morpheme_lexicon,
    lemmatize_token,
    load_lemma_lexicon,
    load_morpheme_lexicon,
    meanings_of,
    transform_dataset,
)

from medqakit import morph
from medqakit.defaults import SCHEDULE_IDS
from medqakit.schedule import get_schedule
from tests.conftest import (
    OPTOTYPE_LEMMAS_CONCATENATED,
    OPTOTYPE_LEMMAS_REPLACED,
    OPTOTYPE_ORIGINAL,
)

REPLACE_LEMMA = TransformSpec(TransformKind.REPLACEMENT, TransformTarget.LEMMA)
CONCAT_LEMMA = TransformSpec(TransformKind.CONCATENATION, TransformTarget.LEMMA)
AUGMENT_LEMMA = TransformSpec(TransformKind.AUGMENTATION, TransformTarget.LEMMA)


class TestMorphemeLexiconLoading:
    def test_pipe_format(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("dacryo|tear|root\nitis|inflammation|terminal\n")
        lexicon = load_morpheme_lexicon(path)
        assert lexicon.get("dacryo", MorphemeType.ROOT).meaning == "tear"
        assert lexicon.get("itis", MorphemeType.TERMINAL).meaning == "inflammation"

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("good|fine|root\nx|y\n")
        with pytest.raises(ParseError, match="line 2"):
            load_morpheme_lexicon(path)

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("x|y|suffix\n")
        with pytest.raises(ParseError, match="suffix"):
            load_morpheme_lexicon(path)

    def test_duplicate_key_last_wins(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("aden|gland|root\naden|node|root\n")
        lexicon = load_morpheme_lexicon(path)
        assert lexicon.get("aden", MorphemeType.ROOT).meaning == "node"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\n\naden|gland|root  # trailing\n")
        assert len(load_morpheme_lexicon(path)) == 1

    def test_merging_multiple_files(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_text("aden|gland|root\n")
        second.write_text("itis|inflammation|terminal\n")
        merged = load_morpheme_lexicon(first, second)
        assert len(merged) == 2
        assert {e.morpheme for e in merged.entries} == {"aden", "itis"}

    def test_non_alphabetic_morpheme_rejected(self):
        with pytest.raises(ValidationError):
            MorphemeEntry("ad-en", "gland", MorphemeType.ROOT)


class TestLemmatizer:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("optotypes", "optotype"),
            ("differs", "differ"),
            ("details", "detail"),
            ("appear", "appear"),
            ("glass", "glass"),
            ("persists", "persist"),
            ("dacryoadenitis", "dacryoadenitis"),
            ("studies", "study"),
            ("branches", "branch"),
            ("boxes", "box"),
            ("classes", "class"),
            ("used", "use"),
            ("using", "use"),
            ("stopped", "stop"),
            ("running", "run"),
            ("filled", "fill"),
            ("agreed", "agree"),
            ("studied", "study"),
            ("analyses", "analysis"),
            ("criteria", "criterion"),
            ("diabetes", "diabetes"),
            ("this", "this"),
            ("status", "status"),
        ],
    )
    def test_rules_and_exceptions(self, token, lemma, lemma_lexicon):
        assert lemmatize_token(token, lemma_lexicon) == lemma

    def test_first_letter_case_preserved(self, lemma_lexicon):
        assert lemmatize_token("Optotypes", lemma_lexicon) == "Optotype"
        assert lemmatize_token("The", lemma_lexicon) == "The"

    def test_empty_token_rejected(self, lemma_lexicon):
        with pytest.raises(ValidationError):
            lemmatize_token("", lemma_lexicon)

    def test_exception_file_fixed_point_enforced(self, tmp_path):
        path = tmp_path / "lems.txt"
        # the target "optotypes" itself re-lemmatizes to "optotype"
        path.write_text("optoypes|optotypes\n")
        with pytest.raises(ValidationError, match="fixed point"):
            load_lemma_lexicon(path)

    def test_default_exceptions_are_fixed_points(self, lemma_lexicon):
        for surface, lemma in lemma_lexicon.exceptions.items():
            assert lemmatize_token(lemma, lemma_lexicon) == lemma, (surface, lemma)


PREFIX, ROOT, TERMINAL = MorphemeType.PREFIX, MorphemeType.ROOT, MorphemeType.TERMINAL
GASTRO_ENTRIES = [
    MorphemeEntry("gastro", "stomach", ROOT),
    MorphemeEntry("enter", "intestine", ROOT),
    MorphemeEntry("itis", "inflammation", TERMINAL),
]
CARDIO_ENTRIES = [
    MorphemeEntry("cardio", "heart", ROOT),
    MorphemeEntry("cardi", "heart", ROOT),
    MorphemeEntry("o", "of", ROOT),
    MorphemeEntry("megaly", "enlargement", TERMINAL),
    MorphemeEntry("omegaly", "enlargement", TERMINAL),
]
THYROID_ENTRIES = [MorphemeEntry("thyroid", "thyroid gland", ROOT)]
TINY_ENTRIES = [
    MorphemeEntry("dacryo", "tear", ROOT),
    MorphemeEntry("aden", "gland", ROOT),
    MorphemeEntry("itis", "inflammation", TERMINAL),
]
# Entries spelling the same string under two types, and one-letter parts,
# so segmentations of one word differ in their part count and types.
OVERLAP_ENTRIES = [
    MorphemeEntry("a", "without", PREFIX),
    MorphemeEntry("a", "one", ROOT),
    MorphemeEntry("hyper", "above", PREFIX),
    MorphemeEntry("hyper", "excess", ROOT),
    MorphemeEntry("emia", "blood", TERMINAL),
    MorphemeEntry("em", "in", ROOT),
    MorphemeEntry("ia", "condition", TERMINAL),
    MorphemeEntry("glyc", "sugar", ROOT),
]
SMALL_LEXICONS = [GASTRO_ENTRIES, CARDIO_ENTRIES, THYROID_ENTRIES, TINY_ENTRIES, OVERLAP_ENTRIES]

# Every combination of prefix? root root? terminal?, shortest first.
EXHAUSTIVE_PATTERNS = (
    (ROOT,),
    (PREFIX, ROOT),
    (ROOT, ROOT),
    (ROOT, TERMINAL),
    (PREFIX, ROOT, ROOT),
    (PREFIX, ROOT, TERMINAL),
    (ROOT, ROOT, TERMINAL),
    (PREFIX, ROOT, ROOT, TERMINAL),
)
TYPE_ORDER = (PREFIX, ROOT, TERMINAL)


def exhaustive_decompose(word, lexicon, min_length=6):
    """Reference segmentation: each pattern step tries every entry of its type
    with startswith, and the best of all full segmentations is kept."""
    if len(word) < min_length or not word.isalpha() or word != word.lower():
        return None
    by_type = {t: {} for t in MorphemeType}
    for entry in lexicon.entries:
        by_type[entry.mtype][entry.morpheme] = entry
    solutions = []

    def match(pattern, step, pos, parts):
        if step == len(pattern):
            if pos == len(word):
                solutions.append(tuple(parts))
            return
        remaining = len(pattern) - step
        for morpheme, entry in by_type[pattern[step]].items():
            end = pos + len(morpheme)
            if end + (remaining - 1) > len(word):
                continue
            if word.startswith(morpheme, pos):
                parts.append(entry)
                match(pattern, step + 1, end, parts)
                parts.pop()

    for pattern in EXHAUSTIVE_PATTERNS:
        match(pattern, 0, 0, [])
    if not solutions:
        return None
    best = min(
        set(solutions),
        key=lambda parts: (
            len(parts),
            tuple(-len(p.morpheme) for p in parts),
            tuple(TYPE_ORDER.index(p.mtype) for p in parts),
        ),
    )
    return Decomposition(word=word, parts=best)


PACKAGED = default_morpheme_lexicon()
PACKAGED_MORPHEMES = sorted({e.morpheme for e in PACKAGED.entries})
ROOT_OR_TERMINAL = {e.morpheme for e in PACKAGED.entries if e.mtype is not PREFIX}
# prefixes that no root or terminal entry ends: words ending in one often have no segmentation
PREFIX_ONLY = sorted(
    e.morpheme
    for e in PACKAGED.entries
    if e.mtype is PREFIX and not any(e.morpheme.endswith(m) for m in ROOT_OR_TERMINAL)
)


class TestDecomposeOracle:
    """The indexed, memoized decompose against the exhaustive scan."""

    @pytest.mark.parametrize("min_length", [1, 6])
    def test_every_packaged_entry(self, min_length):
        lexicon = default_morpheme_lexicon()
        for morpheme in PACKAGED_MORPHEMES:
            want = exhaustive_decompose(morpheme, lexicon, min_length)
            assert decompose(morpheme, lexicon, min_length) == want, morpheme

    @pytest.mark.parametrize("entries", SMALL_LEXICONS)
    def test_small_lexicons(self, entries):
        lexicon = MorphemeLexicon(entries)
        morphemes = sorted({e.morpheme for e in entries})
        words = {"".join(parts) for parts in itertools.product(morphemes, repeat=3)}
        words |= set(morphemes) | {a + b for a in morphemes for b in morphemes}
        words |= {"gastroenteritis", "cardiomegaly", "thyroid", "dacryoadenitis", "hyperglycemia"}
        for word in sorted(words):
            for min_length in (1, 6):
                want = exhaustive_decompose(word, lexicon, min_length)
                assert decompose(word, lexicon, min_length) == want, (word, min_length)

    @given(
        parts=st.lists(st.sampled_from(PACKAGED_MORPHEMES), min_size=1, max_size=4),
        extra=st.none() | st.tuples(st.integers(0, 40), st.sampled_from(string.ascii_lowercase)),
    )
    @settings(max_examples=300, deadline=None)
    def test_concatenations_of_packaged_entries(self, parts, extra):
        word = "".join(parts)
        if extra is not None:
            at = extra[0] % (len(word) + 1)
            word = word[:at] + extra[1] + word[at:]
        assert decompose(word, PACKAGED) == exhaustive_decompose(word, PACKAGED)

    @given(
        parts=st.lists(
            st.sampled_from(sorted({e.morpheme for e in OVERLAP_ENTRIES + CARDIO_ENTRIES})),
            min_size=1,
            max_size=4,
        ),
        extra=st.none() | st.tuples(st.integers(0, 40), st.sampled_from("acegiory")),
    )
    @settings(max_examples=300, deadline=None)
    def test_concatenations_of_overlapping_entries(self, parts, extra):
        lexicon = MorphemeLexicon(OVERLAP_ENTRIES + CARDIO_ENTRIES)
        word = "".join(parts)
        if extra is not None:
            at = extra[0] % (len(word) + 1)
            word = word[:at] + extra[1] + word[at:]
        assert decompose(word, lexicon, 1) == exhaustive_decompose(word, lexicon, 1)


    @given(
        parts=st.lists(st.sampled_from(PACKAGED_MORPHEMES), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_joined_morphemes_with_stray_letters(self, parts, data):
        """Any packaged morphemes in any order, letters before, between and
        after them; some words end in letters that end no root or terminal."""
        stray = st.sampled_from(["", "", "", "a", "o", "q", "xz"])
        word = "".join(data.draw(stray) + part for part in parts)
        word += data.draw(stray | st.sampled_from(PREFIX_ONLY))
        want = exhaustive_decompose(word, PACKAGED)
        assert decompose(word, PACKAGED) == want
        if not any(word.endswith(m) for m in ROOT_OR_TERMINAL):
            assert want is None


class TestDecomposeMemo:
    @pytest.mark.parametrize("first", [0, 1])
    def test_lexicons_do_not_share_results(self, first):
        lexicons = [
            MorphemeLexicon(CARDIO_ENTRIES[:1] + CARDIO_ENTRIES[3:4]),  # cardio|megaly
            MorphemeLexicon(CARDIO_ENTRIES[1:2] + CARDIO_ENTRIES[4:]),  # cardi|omegaly
        ]
        order = [first, 1 - first]
        got = {i: decompose("cardiomegaly", lexicons[i]) for i in order}
        assert [p.morpheme for p in got[0].parts] == ["cardio", "megaly"]
        assert [p.morpheme for p in got[1].parts] == ["cardi", "omegaly"]

    def test_conflicting_meanings(self):
        tear = MorphemeLexicon(TINY_ENTRIES)
        tear_duct = MorphemeLexicon(
            TINY_ENTRIES[1:] + [MorphemeEntry("dacryo", "tear duct", ROOT)]
        )
        assert meanings_of(decompose("dacryoadenitis", tear)) == "tear gland inflammation"
        assert meanings_of(decompose("dacryoadenitis", tear_duct)) == "tear duct gland inflammation"
        assert meanings_of(decompose("dacryoadenitis", tear)) == "tear gland inflammation"

    def test_length_gate_applies_to_memoized_words(self):
        lexicon = MorphemeLexicon(TINY_ENTRIES)
        assert decompose("dacryoadenitis", lexicon, min_length=6) is not None
        assert decompose("dacryoadenitis", lexicon, min_length=20) is None
        assert decompose("dacryoadenitis", lexicon, min_length=6) is not None

    def test_repeated_calls_are_equal(self):
        lexicon = default_morpheme_lexicon()
        for word in ("dacryoadenitis", "thrombocytopenia", "patient", "hyperglycemia"):
            runs = [decompose(word, lexicon) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2] == exhaustive_decompose(word, lexicon)


class TestDecompose:
    def test_dacryoadenitis(self, morpheme_lexicon):
        decomposition = decompose("dacryoadenitis", morpheme_lexicon)
        assert [(p.mtype, p.morpheme) for p in decomposition.parts] == [
            (MorphemeType.ROOT, "dacryo"),
            (MorphemeType.ROOT, "aden"),
            (MorphemeType.TERMINAL, "itis"),
        ]

    def test_gastroenteritis_with_three_entry_lexicon(self):
        decomposition = decompose("gastroenteritis", MorphemeLexicon(GASTRO_ENTRIES))
        assert [p.morpheme for p in decomposition.parts] == ["gastro", "enter", "itis"]
        assert meanings_of(decomposition) == "stomach intestine inflammation"

    def test_word_without_covering_parts(self, morpheme_lexicon):
        assert decompose("patient", morpheme_lexicon) is None

    def test_short_words_skipped(self, morpheme_lexicon):
        assert decompose("otitis", morpheme_lexicon, min_length=8) is None

    def test_coverage_invariant(self, morpheme_lexicon):
        for word in ("dacryoadenitis", "thrombocytopenia", "hyperglycemia", "osteoarthritis"):
            decomposition = decompose(word, morpheme_lexicon)
            assert decomposition is not None
            assert "".join(p.morpheme for p in decomposition.parts) == word
            assert any(p.mtype is MorphemeType.ROOT for p in decomposition.parts)

    def test_fewest_parts_then_longest_first_preferred(self):
        decomposition = decompose("cardiomegaly", MorphemeLexicon(CARDIO_ENTRIES))
        # two 2-part segmentations tie on count; the longer first part wins
        assert [p.morpheme for p in decomposition.parts] == ["cardio", "megaly"]

    def test_meanings_of_single_root(self):
        decomposition = decompose("thyroid", MorphemeLexicon(THYROID_ENTRIES))
        assert meanings_of(decomposition) == "thyroid gland"

    def test_uppercase_input_not_decomposed(self, morpheme_lexicon):
        assert decompose("Dacryoadenitis", morpheme_lexicon) is None


def variants(text, chain, lems=None, morphs=None):
    """The (text, is_new) variants of `text` under `chain`: transform_dataset
    on one instance with `text` as its question and its context, where an
    `#aug{k}` id marks a new example."""
    out = transform_dataset([YesNoInstance("t", text, text, "yes")], chain, lems, morphs)
    assert all(i.question == i.context for i in out)
    assert [i.id for i in out] == ["t"] + [f"t#aug{k}" for k in range(1, len(out))]
    return [(i.question, i.id != "t") for i in out]


def edited(text, spec, lems, morphs):
    """The in-line result of a one-spec replacement or concatenation chain."""
    [(result, is_new)] = variants(text, TransformChain((spec,)), lems, morphs)
    assert not is_new
    return result


class TestTransformText:
    """Single transformations, as one-spec chains."""

    def test_golden_replacement(self, lemma_lexicon, morpheme_lexicon):
        out = variants(
            OPTOTYPE_ORIGINAL, TransformChain((REPLACE_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert out == [(OPTOTYPE_LEMMAS_REPLACED, False)]

    def test_golden_concatenation(self, lemma_lexicon, morpheme_lexicon):
        text = edited(OPTOTYPE_ORIGINAL, CONCAT_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert text == OPTOTYPE_LEMMAS_CONCATENATED

    def test_golden_augmentation(self, lemma_lexicon, morpheme_lexicon):
        out = variants(
            OPTOTYPE_ORIGINAL, TransformChain((AUGMENT_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert out == [(OPTOTYPE_ORIGINAL, False), (OPTOTYPE_LEMMAS_REPLACED, True)]

    def test_augmentation_suppressed_when_nothing_changes(self, lemma_lexicon, morpheme_lexicon):
        out = variants(
            "Stable text only.", TransformChain((AUGMENT_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert out == [("Stable text only.", False)]

    def test_form_replacement(self, lemma_lexicon, tiny_morpheme_lexicon):
        spec = TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM)
        text = edited("dacryoadenitis persists", spec, lemma_lexicon, tiny_morpheme_lexicon)
        assert text == "dacryo aden itis persists"

    def test_meaning_replacement_whole_word(self, lemma_lexicon, tiny_morpheme_lexicon):
        spec = TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING)
        text = edited("dacryoadenitis persists", spec, lemma_lexicon, tiny_morpheme_lexicon)
        assert text == "tear gland inflammation persists"

    def test_punctuation_untouched(self, lemma_lexicon, morpheme_lexicon):
        text = edited("It persists, mostly.", REPLACE_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert text == "It persist, mostly."

    def test_concatenation_inserts_before_punctuation(self, lemma_lexicon, morpheme_lexicon):
        text = edited("It persists.", CONCAT_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert text == "It persists persist."

    def test_replacement_idempotent_on_golden(self, lemma_lexicon, morpheme_lexicon):
        once = edited(OPTOTYPE_ORIGINAL, REPLACE_LEMMA, lemma_lexicon, morpheme_lexicon)
        twice = edited(once, REPLACE_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert twice == once

    @given(
        words=st.lists(
            st.sampled_from(
                "the patients studies outcomes were assessed during treatment and"
                " optotypes differs details appear increased glass analyses".split()
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=150)
    def test_replacement_idempotent_over_vocabulary(self, lemma_lexicon, morpheme_lexicon, words):
        text = " ".join(words).capitalize() + "."
        once = edited(text, REPLACE_LEMMA, lemma_lexicon, morpheme_lexicon)
        twice = edited(once, REPLACE_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert twice == once

    @given(
        words=st.lists(
            st.sampled_from("alpha beta dacryoadenitis persists unchanged token".split()),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_untouched_tokens_keep_position(self, lemma_lexicon, tiny_morpheme_lexicon, words):
        text = " ".join(words)
        spec = TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM)
        result = edited(text, spec, lemma_lexicon, tiny_morpheme_lexicon)
        kept = [w for w in text.split() if w != "dacryoadenitis"]
        edited_kept = [w for w in result.split() if w not in ("dacryo", "aden", "itis")]
        assert edited_kept == kept


class TestTransformChain:
    def test_duplicate_target_rejected(self):
        with pytest.raises(ConfigError):
            TransformChain((REPLACE_LEMMA, CONCAT_LEMMA))

    def test_meaning_before_form_rejected(self):
        with pytest.raises(ConfigError):
            TransformChain(
                (
                    TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),
                    TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM),
                )
            )

    def test_empty_chain_is_identity(self, lemma_lexicon, tiny_morpheme_lexicon):
        assert variants("anything goes", TransformChain(()), lemma_lexicon, tiny_morpheme_lexicon) == [
            ("anything goes", False)
        ]

    def test_combined_chain_golden(self, lemma_lexicon, tiny_morpheme_lexicon):
        chain = TransformChain(
            (
                TransformSpec(TransformKind.CONCATENATION, TransformTarget.LEMMA),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),
            )
        )
        out = variants("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert out == [("tear gland inflammation persists persist", False)]

    def test_meaning_consumes_forms_only_after_expansion(self, lemma_lexicon, tiny_morpheme_lexicon):
        # without a preceding form expansion, the whole word is expanded in two stages
        chain = TransformChain(
            (TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),)
        )
        out = variants("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert out == [("tear gland inflammation persists", False)]

    def test_augmentation_inside_chain(self, lemma_lexicon, tiny_morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        out = variants("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert out == [
            ("dacryoadenitis persists", False),
            ("dacryoadenitis persist", True),
        ]

    def test_noop_augmentation_single_output(self, lemma_lexicon, tiny_morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        out = variants("stable text", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert out == [("stable text", False)]

    def test_determinism(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain(
            (
                TransformSpec(TransformKind.CONCATENATION, TransformTarget.LEMMA),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),
            )
        )
        text = "Patients with dacryoadenitis and hyperglycemia were assessed."
        runs = {tuple(variants(text, chain, lemma_lexicon, morpheme_lexicon)) for _ in range(5)}
        assert len(runs) == 1


class TestTransformDataset:
    def _yesno(self, n=3):
        return [
            YesNoInstance(
                id=f"y{i}",
                question="Does dacryoadenitis resolve?",
                context="Patients improved. Symptoms persisted in some cases.",
                label="yes" if i % 2 else "no",
            )
            for i in range(n)
        ]

    def test_inline_chain_preserves_count(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain((REPLACE_LEMMA,))
        out = transform_dataset(self._yesno(), chain, lemma_lexicon, morpheme_lexicon)
        assert len(out) == 3
        assert [i.id for i in out] == ["y0", "y1", "y2"]
        assert all(i.label in ("yes", "no") for i in out)

    def test_augmentation_doubles_changed_instances(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        out = transform_dataset(self._yesno(2), chain, lemma_lexicon, morpheme_lexicon)
        assert [i.id for i in out] == ["y0", "y0#aug1", "y1", "y1#aug1"]
        assert out[1].label == out[0].label

    def test_empty_dataset(self, lemma_lexicon, morpheme_lexicon):
        assert transform_dataset([], TransformChain((REPLACE_LEMMA,)), lemma_lexicon, morpheme_lexicon) == []

    def test_original_instances_never_mutated(self, lemma_lexicon, morpheme_lexicon):
        instances = self._yesno(1)
        chain = TransformChain((AUGMENT_LEMMA,))
        out = transform_dataset(instances, chain, lemma_lexicon, morpheme_lexicon)
        assert out[0] == instances[0]
        assert out[1] != instances[0]


# The per-token path that the feature tables replaced, kept as the oracle:
# every word occurrence is matched with finditer and its value computed
# again, with no memo beyond decompose's.
ORACLE_WORD_RE = re.compile(r"[A-Za-z]+")


def oracle_match_first_case(text, original):
    if original[:1].isupper() and text:
        return text[0].upper() + text[1:]
    return text


def oracle_edit_tokens(text, kind, value_for):
    out = []
    last = 0
    changed = False
    for match in ORACLE_WORD_RE.finditer(text):
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


def oracle_value_fn(target, lems, morphs, constituent_mode):
    if target is TransformTarget.LEMMA:
        return lambda token: lemmatize_token(token, lems)
    if target is TransformTarget.NEO_FORM:

        def form_value(token):
            decomposition = decompose(token.lower(), morphs)
            if decomposition is None or len(decomposition.parts) == 1:
                return None
            return oracle_match_first_case(" ".join(p.morpheme for p in decomposition.parts), token)

        return form_value
    if constituent_mode:

        def constituent_meaning(token):
            entry = morphs.lookup_any(token.lower())
            return None if entry is None else oracle_match_first_case(entry.meaning, token)

        return constituent_meaning

    def whole_word_meaning(token):
        decomposition = decompose(token.lower(), morphs)
        if decomposition is None:
            return None
        return oracle_match_first_case(meanings_of(decomposition), token)

    return whole_word_meaning


def oracle_apply_chain(text, chain, lems, morphs):
    variants = [(text, False)]
    forms_expanded = False
    for spec in chain.specs:
        constituent_mode = spec.target is TransformTarget.NEO_MEANING and forms_expanded
        value_for = oracle_value_fn(spec.target, lems, morphs, constituent_mode)
        next_variants = []
        for current, is_new in variants:
            if spec.kind is TransformKind.AUGMENTATION:
                replaced, changed = oracle_edit_tokens(current, TransformKind.REPLACEMENT, value_for)
                next_variants.append((current, is_new))
                if changed:
                    next_variants.append((replaced, True))
            else:
                edited, _changed = oracle_edit_tokens(current, spec.kind, value_for)
                next_variants.append((edited, is_new))
        variants = next_variants
        if spec.target is TransformTarget.NEO_FORM:
            forms_expanded = True
    return variants


def oracle_transform_dataset(instances, chain, lems, morphs):
    out = []
    for instance in instances:
        questions = [t for t, _new in oracle_apply_chain(instance.question, chain, lems, morphs)]
        contexts = [t for t, _new in oracle_apply_chain(instance.context, chain, lems, morphs)]
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


BUILTIN_CHAINS = [
    stage.chain
    for s in map(get_schedule, SCHEDULE_IDS)
    for stage in s.stages[:1]
    if stage.chain is not None
]
# Two and three augmentation steps, so variants multiply and flow on.
AUGMENTING_CHAINS = [
    TransformChain(tuple(TransformSpec(TransformKind.AUGMENTATION, t) for t in targets))
    for targets in (
        (TransformTarget.LEMMA, TransformTarget.NEO_FORM),
        (TransformTarget.NEO_FORM, TransformTarget.NEO_MEANING),
        (TransformTarget.LEMMA, TransformTarget.NEO_FORM, TransformTarget.NEO_MEANING),
    )
]


@st.composite
def valid_chains(draw):
    targets = draw(st.permutations(list(TransformTarget)))[: draw(st.integers(0, 3))]
    form, meaning = TransformTarget.NEO_FORM, TransformTarget.NEO_MEANING
    if form in targets and meaning in targets and targets.index(form) > targets.index(meaning):
        i, j = targets.index(meaning), targets.index(form)
        targets[i], targets[j] = form, meaning
    return TransformChain(
        tuple(TransformSpec(draw(st.sampled_from(list(TransformKind))), t) for t in targets)
    )


CHAINS = st.sampled_from(BUILTIN_CHAINS + AUGMENTING_CHAINS) | valid_chains()
WORDS = (
    "the patients studies outcomes were assessed used running stopped criteria analyses"
    " dacryoadenitis gastroenteritis hyperglycemia thrombocytopenia cardiomegaly osteoarthritis"
    " patient this status glass"
).split()
CASES = (str.lower, str.capitalize, str.upper, lambda w: w[:-1] + w[-1].upper())
# Non-ASCII letters split words as punctuation does.
SEPARATORS = (" ", " ", " ", ", ", ". ", "-", " (", ") ", "", "\n", " 3 ")
SEPARATORS += ("é", "ß", "Ωmega ", "ﬁ")


@st.composite
def texts(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 14))):
        word = draw(
            st.sampled_from(WORDS)
            | st.sampled_from(PACKAGED_MORPHEMES)
            | st.lists(st.sampled_from(PACKAGED_MORPHEMES), min_size=2, max_size=3).map("".join)
            | st.text(string.ascii_letters, min_size=1, max_size=9)
        )
        pieces.append(draw(st.sampled_from(CASES))(word))
        pieces.append(draw(st.sampled_from(SEPARATORS)))
    return draw(st.sampled_from(("", " ", "¿"))) + "".join(pieces)


WARM_LEMS = default_lemma_lexicon()
WARM_MORPHS = default_morpheme_lexicon()


def fresh_or_warm_lexicons(fresh):
    """New lexicons with empty memos, or the ones every example shares."""
    if fresh:
        return LemmaLexicon(WARM_LEMS.exceptions), MorphemeLexicon(WARM_MORPHS.entries)
    return WARM_LEMS, WARM_MORPHS


class TestTransformOracle:
    """The table-driven steps against the per-token path they replaced."""

    @given(text=texts(), chain=CHAINS, fresh=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_text(self, text, chain, fresh):
        text += "."  # an instance's question and context are never blank
        lems, morphs = fresh_or_warm_lexicons(fresh)
        want = oracle_apply_chain(text, chain, lems, morphs)
        assert variants(text, chain, lems, morphs) == want
        assert variants(text, chain, lems, morphs) == want

    @given(
        pairs=st.lists(st.tuples(texts(), texts()), max_size=6),
        chain=CHAINS,
        fresh=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_transform_dataset(self, pairs, chain, fresh):
        instances = [
            YesNoInstance(id=f"q{i}", question=f"Does {q}?", context=f"Results: {c}", label="yes")
            for i, (q, c) in enumerate(pairs)
        ]
        lems, morphs = fresh_or_warm_lexicons(fresh)
        want = oracle_transform_dataset(instances, chain, lems, morphs)
        assert transform_dataset(instances, chain, lems, morphs) == want


STAGE = [
    YesNoInstance(f"q{i}", question, context, "yes")
    for i, (question, context) in enumerate(
        [
            (
                "Were dacryoadenitis and gastroenteritis studies assessed?",
                "Patients used thrombocytopenia criteria; hyperglycemia outcomes stopped.",
            ),
            (
                "Does cardiomegaly precede osteoarthritis?",
                "Running analyses of Dacryoadenitis, cardiomegaly and the hyperglycemia status.",
            ),
        ]
    )
]


class TestFeatureTables:
    def test_each_token_lemmatized_once_per_lexicon(self, monkeypatch):
        """The step tables look lemmatize_token up where the tracer replaces it."""
        lems = default_lemma_lexicon()
        calls = []
        real = morph.lemmatize_token
        monkeypatch.setattr(morph, "lemmatize_token", lambda t, lx: calls.append(t) or real(t, lx))
        instances = [YesNoInstance("a", "Studies used studies?", "Studies used it.", "no")] * 3
        for chain in (TransformChain((REPLACE_LEMMA,)), TransformChain((CONCAT_LEMMA,))):
            transform_dataset(instances, chain, lems)
        assert sorted(calls) == ["Studies", "it", "studies", "used"]

    def test_each_token_decomposed_once_per_lexicon(self, monkeypatch):
        calls = []
        real = morph.decompose
        monkeypatch.setattr(morph, "decompose", lambda w, lex: calls.append(w) or real(w, lex))
        morphs = default_morpheme_lexicon()
        text = "Dacryoadenitis and dacryoadenitis; hyperglycemia."
        for kind in TransformKind:
            chain = TransformChain((TransformSpec(kind, TransformTarget.NEO_FORM),))
            variants(text, chain, None, morphs)
        assert sorted(calls) == ["and", "dacryoadenitis", "dacryoadenitis", "hyperglycemia"]

    def test_each_value_computed_once_per_lexicon_across_the_builtin_chains(self, monkeypatch):
        calls = Counter()
        real = morph._feature_value

        def counted(target, constituent, lexicon, token):
            calls[target, constituent, token] += 1
            return real(target, constituent, lexicon, token)

        monkeypatch.setattr(morph, "_feature_value", counted)
        lems, morphs = fresh_or_warm_lexicons(fresh=True)
        for chain in BUILTIN_CHAINS:
            transform_dataset(STAGE, chain, lems, morphs)
        assert len(BUILTIN_CHAINS) == 12
        assert set(calls.values()) == {1}
        assert {(t, c) for t, c, _ in calls} == {
            (TransformTarget.LEMMA, False),
            (TransformTarget.NEO_FORM, False),
            (TransformTarget.NEO_MEANING, False),
            (TransformTarget.NEO_MEANING, True),
        }

    def test_a_second_stage_with_the_same_words_adds_no_entries(self):
        lems, morphs = fresh_or_warm_lexicons(fresh=True)

        def sizes():
            return {
                (name, key): len(table)
                for name, lexicon in (("lemma", lems), ("morph", morphs))
                for key, table in lexicon._tables.items()
            }

        for chain in BUILTIN_CHAINS:
            transform_dataset(STAGE, chain, lems, morphs)
        filled = sizes()
        # the same texts, each in the other field, under other ids
        second = [YesNoInstance(f"b{i.id}", i.context, i.question, "no") for i in STAGE]
        for chain in BUILTIN_CHAINS:
            transform_dataset(second, chain, lems, morphs)
        assert sizes() == filled
        assert len(filled) == 4 and min(filled.values()) > 10

    def test_lexicons_do_not_share_values(self, tmp_path):
        path = tmp_path / "lems.txt"
        path.write_text("mice|mouse\n")
        chain = TransformChain((REPLACE_LEMMA,))
        rules_only, with_mice = load_lemma_lexicon(), load_lemma_lexicon(path)
        for lexicon, want in ((with_mice, "Mouse"), (rules_only, "Mice"), (with_mice, "Mouse")):
            assert variants("Mice", chain, lexicon) == [(want, False)]

    @pytest.mark.parametrize(
        "spec,lexicons",
        [
            (REPLACE_LEMMA, (None, PACKAGED)),
            (TransformSpec(TransformKind.AUGMENTATION, TransformTarget.NEO_FORM), (WARM_LEMS, None)),
        ],
    )
    def test_missing_lexicon_raises_when_applied(self, spec, lexicons):
        chain = TransformChain((spec,))
        with pytest.raises(ConfigError, match="lexicon"):
            transform_dataset([YesNoInstance("a", "q?", "c.", "yes")], chain, *lexicons)
