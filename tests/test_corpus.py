import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    AbstractSection,
    DatasetSubsetId,
    ParseError,
    Provenance,
    QAPair,
    Sentence,
    ValidationError,
    YesNoInstance,
    normalize_answer,
    parse_abstract_record,
    segment_sentences,
)
from medqakit.corpus import DEFAULT_ABBREVIATIONS
from medqakit.formats import read_abstracts

MINIMAL = '{"pmid":"1","title":"T?","pub_date":"2020-03-01","keywords":[],"sections":[{"label":"conclusions","text":"A."}]}'


def parse(text):
    return parse_abstract_record(json.loads(text))


def corpus_file(tmp_path, record, line_number):
    """A corpus file whose line `line_number` is `record`, after valid records."""
    lines = [f'{{"pmid":"p{i}","sections":[]}}' for i in range(1, line_number)] + [record]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseAbstractRecord:
    def test_minimal_valid_record(self):
        abstract = parse(MINIMAL)
        assert abstract.pmid == "1"
        assert len(abstract.sections) == 1
        assert abstract.sections[0].label == "CONCLUSIONS"
        assert abstract.pub_date.isoformat() == "2020-03-01"

    def test_missing_pmid_names_field(self):
        with pytest.raises(ValidationError, match="pmid"):
            parse('{"title":"x","sections":[]}')

    def test_missing_sections_names_field(self):
        with pytest.raises(ValidationError, match="sections"):
            parse('{"pmid":"1"}')

    def test_label_trimmed_and_uppercased(self):
        abstract = parse(
            '{"pmid":"1","sections":[{"label":" Results ","text":"x"}]}'
        )
        assert abstract.sections[0].label == "RESULTS"

    def test_malformed_json_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 7: malformed JSON"):
            read_abstracts(corpus_file(tmp_path, "{nope", line_number=7))

    def test_empty_section_label_rejected(self):
        with pytest.raises(ValidationError, match="label"):
            parse('{"pmid":"1","sections":[{"label":"  ","text":"x"}]}')

    def test_missing_pub_date_tolerated(self):
        abstract = parse('{"pmid":"1","sections":[]}')
        assert abstract.pub_date is None

    @pytest.mark.parametrize(
        "pub_date", ['"03/01/2020"', "20200301", '"20200301"', '"2020-W10"', '"2020-3-1"', "[]"]
    )
    def test_bad_pub_date_rejected(self, pub_date):
        with pytest.raises(ValidationError, match="pub_date"):
            parse(f'{{"pmid":"1","pub_date":{pub_date},"sections":[]}}')

    def test_degenerate_section_retained_and_flagged(self):
        abstract = parse('{"pmid":"1","sections":[{"label":"X","text":" "}]}')
        assert abstract.sections == (AbstractSection(label="X", text=" "),)

    def test_absent_title_text_and_keywords_default_to_empty(self):
        abstract = parse(
            '{"pmid":"1","keywords":null,"sections":[{"label":"X"}]}'
        )
        assert (abstract.title, abstract.keywords, abstract.sections[0].text) == ("", (), "")

    @pytest.mark.parametrize(
        "record, field",
        [
            ('{"pmid":"1","sections":[{"label":"X","text":null}]}', "'sections[0].text'"),
            ('{"pmid":"1","sections":[{"label":"X","text":3}]}', "'sections[0].text'"),
            ('{"pmid":"1","sections":[{"label":null,"text":"x"}]}', "'sections[0].label'"),
            ('{"pmid":"1","sections":[{"label":7,"text":"x"}]}', "'sections[0].label'"),
            ('{"pmid":"1","sections":["X"]}', "'sections[0]'"),
            ('{"pmid":"1","sections":{}}', "'sections'"),
            ('{"pmid":1,"sections":[]}', "'pmid'"),
            ('{"pmid":"1","title":null,"sections":[]}', "'title'"),
            ('{"pmid":"1","title":["T"],"sections":[]}', "'title'"),
            ('{"pmid":"1","keywords":"COVID","sections":[]}', "'keywords'"),
            ('{"pmid":"1","keywords":["COVID",1],"sections":[]}', "'keywords'"),
            ('{"pmid":"1","keywords":{"a":"b"},"sections":[]}', "'keywords'"),
        ],
    )
    def test_non_string_fields_rejected_with_line_and_field(self, tmp_path, record, field):
        with pytest.raises(ValidationError, match=re.escape(f"line 4: field {field}: expected")):
            read_abstracts(corpus_file(tmp_path, record, line_number=4))


class TestSegmentSentences:
    def test_two_clauses(self):
        assert [s.text for s in segment_sentences("A b. C d.")] == ["A b.", "C d."]

    def test_decimal_does_not_split(self):
        texts = [s.text for s in segment_sentences("Dose was 3.5 mg. It worked.")]
        assert texts == ["Dose was 3.5 mg.", "It worked."]

    def test_empty_text(self):
        assert segment_sentences("") == []

    def test_whitespace_only(self):
        assert segment_sentences("   \n ") == []

    def test_abbreviations_do_not_split(self):
        text = "Smith et al. Reported gains. See Fig. 2 for details."
        assert [s.text for s in segment_sentences(text)] == [
            "Smith et al. Reported gains.",
            "See Fig. 2 for details.",
        ]

    def test_question_and_exclamation_terminators(self):
        texts = [s.text for s in segment_sentences("Really? Yes! Done.")]
        assert texts == ["Really?", "Yes!", "Done."]

    def test_lowercase_continuation_does_not_split(self):
        assert len(segment_sentences("approx. five units were given.")) == 1

    def test_no_split_inside_parentheses(self):
        text = "The cohort (n=40. Median age 60) improved. Next sentence."
        assert len(segment_sentences(text)) == 2

    def test_offsets_reproduce_text(self):
        text = "  First one. Second one!  Third?  "
        for sentence in segment_sentences(text):
            assert text[sentence.char_start : sentence.char_end] == sentence.text

    def test_trailing_fragment_without_terminator(self):
        texts = [s.text for s in segment_sentences("Done. and then some")]
        assert texts == ["Done. and then some"]

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_spans_roundtrip_ordered_nonoverlapping(self, text):
        sentences = segment_sentences(text)
        previous_end = -1
        for sentence in sentences:
            assert text[sentence.char_start : sentence.char_end] == sentence.text
            assert sentence.char_start > previous_end
            previous_end = sentence.char_end

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_all_nonspace_characters_covered(self, text):
        covered = set()
        for sentence in segment_sentences(text):
            covered.update(range(sentence.char_start, sentence.char_end))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_resegmenting_a_sentence_yields_one_sentence(self, text):
        for sentence in segment_sentences(text):
            assert len(segment_sentences(sentence.text)) == 1


def reference_ends_with_abbreviation(text, dot_index):
    chunk = text[: dot_index + 1]
    lowered = chunk.lower()
    for abbr in DEFAULT_ABBREVIATIONS:
        a = abbr.lower()
        if not lowered.endswith(a):
            continue
        boundary = len(chunk) - len(a) - 1
        if boundary < 0 or not chunk[boundary].isalnum():
            return True
    return False


def reference_segment_sentences(text):
    """The per-character segmenter the regex-driven one replaced."""
    n = len(text)
    boundaries = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in ".?!" and depth == 0:
            j = i + 1
            if j >= n or not text[j].isspace():
                continue
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k >= n:
                continue
            if not (text[k].isupper() or text[k].isdigit()):
                continue
            if ch == "." and reference_ends_with_abbreviation(text, i):
                continue
            boundaries.append(j)

    sentences = []
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


def spans(sentences):
    return [(s.text, s.char_start, s.char_end) for s in sentences]


def mixed_case(word):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


# Pieces the segmenter's rules turn on: parentheses, every default
# abbreviation in mixed case, decimals, terminators, Unicode whitespace,
# characters whose lowercase form is longer (U+0130) or depends on context
# (U+03A3), the Kelvin sign, non-ASCII digits and uppercase letters.
SEGMENTER_PIECES = st.one_of(
    st.sampled_from(["(", ")", "((", "))", ".", "?", "!", "3.5", "x.", "Ab.", "é."]),
    st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", "\u2028", "\u001c", "\u3000"]),
    st.sampled_from(["\u0130", "\u03a3", "\u03c3", "\u03c2", "\u212a", "'", "\u0307"]),
    st.sampled_from(["\u00b2", "\u00b9", "\u0663", "\u0967", "\uff13", "7"]),
    st.sampled_from(["A", "Z", "a", "z", "\u00c9", "\u0416", "\u0394", "\u01c5"]),
    st.sampled_from(DEFAULT_ABBREVIATIONS).flatmap(mixed_case),
    st.text(max_size=3),
)
SEGMENTER_TEXTS = st.lists(SEGMENTER_PIECES, max_size=30).map("".join)


class TestSegmenterMatchesReference:
    def test_whitespace_class_is_str_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        matched = {m.start() for m in re.finditer(r"\s", every)}
        assert matched == {i for i, ch in enumerate(every) if ch.isspace()}

    @given(SEGMENTER_TEXTS)
    @settings(max_examples=500)
    def test_default_abbreviations(self, text):
        assert spans(segment_sentences(text)) == spans(reference_segment_sentences(text))

    @pytest.mark.parametrize(
        "text",
        [
            "Smith et al. Reported. E.G. No. \u0130. X",
            "(a. B (c. D)) e. F) g. H",
            "Dose 3.\u00b2 x. \u00b2 y. \u0663 z.\u2028Q",
        ],
    )
    def test_hand_cases(self, text):
        assert spans(segment_sentences(text)) == spans(reference_segment_sentences(text))


class TestNormalizeAnswer:
    def test_article_and_punctuation(self):
        assert normalize_answer("The Answer.") == "answer"

    def test_whitespace_collapse(self):
        assert normalize_answer("tear  gland   inflammation") == "tear gland inflammation"

    def test_article_removal_is_token_level(self):
        assert normalize_answer("An anomaly") == "anomaly"

    def test_embedded_article_letters_kept(self):
        assert normalize_answer("another theory") == "another theory"

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestInstanceInvariants:
    def test_qapair_anchoring_enforced(self):
        with pytest.raises(ValidationError, match="answer span"):
            QAPair(
                id="x",
                question="q?",
                context="some context",
                answer_text="missing",
                answer_start=0,
                subset=DatasetSubsetId.D1,
                provenance=Provenance.BM25_WEAK,
            )

    def test_qapair_valid_span(self):
        pair = QAPair(
            id="x",
            question="q?",
            context="alpha beta",
            answer_text="beta",
            answer_start=6,
            subset=DatasetSubsetId.D1,
            provenance=Provenance.BM25_WEAK,
        )
        assert pair.context[pair.answer_start :] == pair.answer_text

    def test_yesno_label_closed(self):
        with pytest.raises(ValidationError, match="label"):
            YesNoInstance(id="y", question="q?", context="c", label="maybe")
