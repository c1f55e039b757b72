import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    ConfigError,
    DatasetSubsetId,
    Decomposition,
    MorphemeEntry,
    MorphemeLexicon,
    MorphemeType,
    ParseError,
    Provenance,
    QAPair,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    ValidationError,
    YesNoInstance,
    apply_chain,
    decompose,
    default_morpheme_lexicon,
    lemmatize_token,
    load_lemma_lexicon,
    load_morpheme_lexicon,
    meanings_of,
    transform_dataset,
)

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


def edited(text, spec, lems, morphs):
    """The in-line result of a one-spec replacement or concatenation chain."""
    [(result, is_new)] = apply_chain(text, TransformChain((spec,)), lems, morphs)
    assert not is_new
    return result


class TestTransformText:
    """Single transformations, as one-spec chains."""

    def test_golden_replacement(self, lemma_lexicon, morpheme_lexicon):
        variants = apply_chain(
            OPTOTYPE_ORIGINAL, TransformChain((REPLACE_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert variants == [(OPTOTYPE_LEMMAS_REPLACED, False)]

    def test_golden_concatenation(self, lemma_lexicon, morpheme_lexicon):
        text = edited(OPTOTYPE_ORIGINAL, CONCAT_LEMMA, lemma_lexicon, morpheme_lexicon)
        assert text == OPTOTYPE_LEMMAS_CONCATENATED

    def test_golden_augmentation(self, lemma_lexicon, morpheme_lexicon):
        variants = apply_chain(
            OPTOTYPE_ORIGINAL, TransformChain((AUGMENT_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert variants == [(OPTOTYPE_ORIGINAL, False), (OPTOTYPE_LEMMAS_REPLACED, True)]

    def test_augmentation_suppressed_when_nothing_changes(self, lemma_lexicon, morpheme_lexicon):
        variants = apply_chain(
            "Stable text only.", TransformChain((AUGMENT_LEMMA,)), lemma_lexicon, morpheme_lexicon
        )
        assert variants == [("Stable text only.", False)]

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
        assert apply_chain("anything goes", TransformChain(()), lemma_lexicon, tiny_morpheme_lexicon) == [
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
        variants = apply_chain("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert variants == [("tear gland inflammation persists persist", False)]

    def test_meaning_consumes_forms_only_after_expansion(self, lemma_lexicon, tiny_morpheme_lexicon):
        # without a preceding form expansion, the whole word is expanded in two stages
        chain = TransformChain(
            (TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),)
        )
        variants = apply_chain("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert variants == [("tear gland inflammation persists", False)]

    def test_augmentation_inside_chain(self, lemma_lexicon, tiny_morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        variants = apply_chain("dacryoadenitis persists", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert variants == [
            ("dacryoadenitis persists", False),
            ("dacryoadenitis persist", True),
        ]

    def test_noop_augmentation_single_output(self, lemma_lexicon, tiny_morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        variants = apply_chain("stable text", chain, lemma_lexicon, tiny_morpheme_lexicon)
        assert variants == [("stable text", False)]

    def test_determinism(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain(
            (
                TransformSpec(TransformKind.CONCATENATION, TransformTarget.LEMMA),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_FORM),
                TransformSpec(TransformKind.REPLACEMENT, TransformTarget.NEO_MEANING),
            )
        )
        text = "Patients with dacryoadenitis and hyperglycemia were assessed."
        runs = {tuple(apply_chain(text, chain, lemma_lexicon, morpheme_lexicon)) for _ in range(5)}
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

    def _pair(self):
        return QAPair(
            id="p0",
            question="Does treatment help patients?",
            context="Patients improved with treatment. Side effects were rare.",
            answer_text="Patients improved with treatment.",
            answer_start=0,
            subset=DatasetSubsetId.D1,
            provenance=Provenance.BM25_WEAK,
        )

    def test_inline_context_edit_rejected_for_pairs(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain((REPLACE_LEMMA,))
        with pytest.raises(ValidationError, match="anchoring"):
            transform_dataset([self._pair()], chain, lemma_lexicon, morpheme_lexicon)

    def test_question_only_inline_edit_allowed_for_pairs(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain((REPLACE_LEMMA,))
        out = transform_dataset(
            [self._pair()], chain, lemma_lexicon, morpheme_lexicon, fields=("question",)
        )
        assert out[0].question == "Do treatment help patient?"
        assert out[0].context == self._pair().context

    def test_augmented_pairs_are_reanchored(self, lemma_lexicon, morpheme_lexicon):
        chain = TransformChain((AUGMENT_LEMMA,))
        out = transform_dataset([self._pair()], chain, lemma_lexicon, morpheme_lexicon)
        assert len(out) == 2
        original, augmented = out
        assert original == self._pair()
        assert augmented.id == "p0#aug1"
        span = augmented.context[
            augmented.answer_start : augmented.answer_start + len(augmented.answer_text)
        ]
        assert span == augmented.answer_text
