import json
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    ConfigError,
    CovidFilterPolicy,
    DatasetSubsetId,
    ParameterVocabulary,
    ParseError,
    Provenance,
    QuestionTemplate,
    Sentence,
    ValidationError,
    covid_filter,
    export_review_queue,
    extract_conclusion_section,
    extract_question,
    import_review_queue,
    instantiate_templates,
    parse_abstract_record,
    segment_sentences,
)
from medqakit import covid
from medqakit.covid import (
    CurationCandidate,
    InstantiatedQuestion,
    alias_lookup,
    build_review_candidates,
    build_search_queries,
    load_template_config,
)

from tests.conftest import (
    DIABETES_ANSWER,
    DIABETES_CONTEXT,
    DIABETES_QUESTION,
    artificial_pairs,
)


def abstract(pmid="1", title="T", pub_date="2020-03-01", keywords=(), sections=()):
    record = {
        "pmid": pmid,
        "title": title,
        "pub_date": pub_date,
        "keywords": list(keywords),
        "sections": [{"label": label, "text": text} for label, text in sections],
    }
    return parse_abstract_record(record)


RISK_TEMPLATE = QuestionTemplate(
    template_id="risk",
    pattern="What risks does a person with [CONDITION] face with respect to COVID-19?",
    slot_types=("risk_conditions",),
)
EFFECT_TEMPLATE = QuestionTemplate(
    template_id="effect",
    pattern="What adverse effects are associated with [TREATMENT]?",
    slot_types=("treatments",),
)
CONDITIONS = ParameterVocabulary(
    name="risk_conditions",
    values=("asthma", "cardiovascular disease", "diabetes", "kidney disease", "obesity"),
)
TREATMENTS = ParameterVocabulary(
    name="treatments",
    values=(
        "Azithromycin",
        "Dexamethasone",
        "Hydroxychloroquine",
        "Infliximab",
        "Ivermectin",
        "Tocilizuma",
    ),
    aliases={"Tocilizuma": ("Tocilizumab",)},
)


class TestInstantiateTemplates:
    def test_risk_template_times_five_conditions(self):
        questions = instantiate_templates([RISK_TEMPLATE], [CONDITIONS])
        assert len(questions) == 5
        assert (
            "What risks does a person with diabetes face with respect to COVID-19?"
            in [q.question for q in questions]
        )

    def test_effect_template_times_six_treatments(self):
        questions = instantiate_templates([EFFECT_TEMPLATE], [TREATMENTS])
        assert len(questions) == 6
        assert "What adverse effects are associated with Dexamethasone?" in [
            q.question for q in questions
        ]

    def test_empty_vocabulary_is_config_error(self):
        with pytest.raises(ConfigError):
            ParameterVocabulary(name="empty", values=())

    def test_values_deduplicated_case_insensitively(self):
        vocab = ParameterVocabulary(name="v", values=("Asthma", "asthma", "obesity"))
        assert vocab.values == ("Asthma", "obesity")

    def test_unknown_vocabulary_named(self):
        with pytest.raises(ConfigError, match="risk_conditions"):
            instantiate_templates([RISK_TEMPLATE], [TREATMENTS])

    def test_deterministic_order(self):
        questions = instantiate_templates([RISK_TEMPLATE, EFFECT_TEMPLATE], [CONDITIONS, TREATMENTS])
        assert [q.parameters[0] for q in questions[:5]] == list(CONDITIONS.values)
        assert questions[5].template_id == "effect"

    def test_paired_vocabulary_binds_slots_together(self):
        template = QuestionTemplate(
            template_id="pair",
            pattern="What adverse effects are associated with [TREATMENT] for [CONDITION]?",
            slot_types=("pairs", "pairs"),
        )
        pairs = ParameterVocabulary(
            name="pairs",
            values=(("Dexamethasone", "arthritis"), ("Dexamethasone", "post-operative nausea")),
        )
        questions = instantiate_templates([template], [pairs])
        assert [q.question for q in questions] == [
            "What adverse effects are associated with Dexamethasone for arthritis?",
            "What adverse effects are associated with Dexamethasone for post-operative nausea?",
        ]

    def test_pattern_without_slots_rejected(self):
        with pytest.raises(ConfigError):
            QuestionTemplate(template_id="x", pattern="No slots here?", slot_types=())


class TestCovidFilter:
    def test_phrase_case_insensitive(self):
        a = abstract(sections=[("conclusions", "evidence of sars-cov-2 infection")])
        assert covid_filter(a) is True

    def test_before_cutoff_rejected(self):
        a = abstract(pub_date="2019-10-01", sections=[("conclusions", "SARS-CoV-2 found")])
        assert covid_filter(a) is False

    def test_cutoff_day_accepted(self):
        a = abstract(pub_date="2019-11-01", sections=[("conclusions", "COVID findings")])
        assert covid_filter(a) is True

    def test_no_phrase_rejected(self):
        a = abstract(pub_date="2021-01-01", sections=[("conclusions", "influenza only")])
        assert covid_filter(a) is False

    def test_keyword_match(self):
        a = abstract(keywords=["Novel Coronavirus"], sections=[("conclusions", "text")])
        assert covid_filter(a) is True

    def test_label_match(self):
        a = abstract(sections=[("COVID FINDINGS", "text")])
        assert covid_filter(a) is True

    def test_title_not_searched(self):
        a = abstract(title="COVID-19 report", sections=[("conclusions", "plain text")])
        assert covid_filter(a) is False

    def test_missing_pub_date_is_false_not_crash(self):
        a = parse_abstract_record({"pmid": "1", "sections": [{"label": "C", "text": "COVID"}]})
        assert covid_filter(a) is False

    @given(st.integers(min_value=-400, max_value=400), st.integers(min_value=0, max_value=400))
    @settings(max_examples=150)
    def test_monotone_in_date(self, offset, later):
        base = date(2019, 11, 1) + timedelta(days=offset)
        a1 = abstract(pub_date=base.isoformat(), sections=[("conclusions", "COVID text")])
        a2 = abstract(
            pub_date=(base + timedelta(days=later)).isoformat(),
            sections=[("conclusions", "COVID text")],
        )
        if covid_filter(a1):
            assert covid_filter(a2)


CONCLUSION_LABEL_TABLE = [
    ("CONCLUSIONS", True),
    ("CONCLUSION", True),
    ("ANSWER", True),
    ("ANSWERS", True),
    ("ANSWER TO THE QUESTION", True),
    ("AUTHORS CONCLUSIONS", True),
    ("CONCULSION", True),
    ("CONLUSIONS", True),
    ("CONCLUSIONS AND DISCUSSION", False),
    ("DISCUSSION AND CONCLUSIONS", False),
    ("RESULTS AND CONCLUSIONS", False),
    ("CONCLUSIONS AND RESULTS", False),
    ("SUMMARY AND CONCLUSIONS", False),
    ("CONCLUSIONS AND KEY FINDINGS", False),
    ("RESULTS", False),
    ("SUMMARY", False),
    ("FINDINGS", False),
    ("DISCUSSION", False),
    ("BACKGROUND", False),
    ("METHODS", False),
]


class TestExtractSections:
    def test_question_section_preferred(self):
        a = abstract(
            title="Is remdesivir effective?",
            sections=[("question", "Does X help?"), ("conclusions", "Yes.")],
        )
        assert extract_question(a) == "Does X help?"

    def test_title_with_question_mark(self):
        a = abstract(title="Is remdesivir effective?", sections=[("conclusions", "Yes.")])
        assert extract_question(a) == "Is remdesivir effective?"

    def test_no_question_available(self):
        a = abstract(title="A report", sections=[("conclusions", "Yes.")])
        assert extract_question(a) is None

    @pytest.mark.parametrize("label,accepted", CONCLUSION_LABEL_TABLE)
    def test_conclusion_label_table(self, label, accepted):
        a = abstract(sections=[(label, "Body text.")])
        section = extract_conclusion_section(a)
        assert (section is not None) == accepted

    def test_first_match_wins(self):
        a = abstract(sections=[("ANSWER", "First."), ("CONCLUSIONS", "Second.")])
        assert extract_conclusion_section(a).text == "First."

    @given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), max_size=30))
    @settings(max_examples=300)
    def test_fuzzed_labels_never_include_excluded_keyword(self, label):
        if not label.strip():
            return
        a = abstract(sections=[(label, "Body.")])
        section = extract_conclusion_section(a)
        if section is not None:
            for keyword in ("RESULT", "SUMMARY", "FINDING", "DISCUSSION"):
                assert keyword not in section.label


class TestBuildArtificialPairs:
    def _corpus(self):
        return [
            abstract(  # qualifies fully
                pmid="3",
                title="Does dexamethasone reduce mortality?",
                sections=[("results", "COVID-19 mortality data. More data."),
                          ("conclusions", "Dexamethasone reduced mortality. Further study needed.")],
            ),
            abstract(  # fails covid filter (no phrase)
                pmid="1",
                title="Does aspirin help?",
                sections=[("conclusions", "Aspirin helped somewhat.")],
            ),
            abstract(  # title has no question mark, no question section
                pmid="2",
                title="A COVID-19 report",
                sections=[("conclusions", "COVID-19 spread quickly.")],
            ),
            abstract(  # question ok but only results section
                pmid="4",
                title="Does vitamin D protect against COVID-19?",
                sections=[("results", "COVID-19 incidence fell.")],
            ),
        ]

    def test_pipeline_composition(self):
        pairs, skipped = artificial_pairs(self._corpus())
        assert [p.id for p in pairs] == ["d4-3"]
        assert skipped == 2  # pmid 2 (no question), pmid 4 (no conclusion)
        pair = pairs[0]
        assert pair.subset is DatasetSubsetId.D4
        assert pair.provenance is Provenance.PUBMED_ARTIFICIAL
        assert pair.context[pair.answer_start : pair.answer_start + len(pair.answer_text)] == pair.answer_text

    def test_emitted_in_pmid_order(self):
        corpus = [
            abstract(pmid=pmid, title="Does it work?",
                     sections=[("conclusions", "COVID-19 treatment worked well.")])
            for pmid in ("9", "2", "5")
        ]
        pairs, _ = artificial_pairs(corpus)
        assert [p.id for p in pairs] == ["d4-2", "d4-5", "d4-9"]

    def test_empty_corpus(self):
        pairs, skipped = artificial_pairs([])
        assert pairs == [] and skipped == 0

    def test_degenerate_conclusion_skipped(self):
        corpus = [abstract(pmid="7", title="Does it work?",
                           sections=[("background", "COVID-19 cohort."), ("conclusions", "   ")])]
        pairs, skipped = artificial_pairs(corpus)
        assert pairs == [] and skipped == 1


# A tab, and every character str.splitlines splits on (all lie below U+2100).
TSV_BREAKS = ["\t"] + [c for c in map(chr, range(0x2100)) if len(f"a{c}b".splitlines()) > 1]


class TestReviewQueue:
    def _candidate(self):
        sentences = tuple(segment_sentences(DIABETES_CONTEXT))
        return CurationCandidate(
            question=DIABETES_QUESTION,
            pmid="555",
            context=DIABETES_CONTEXT,
            candidate_sentences=sentences,
        )

    def test_export_row_per_sentence(self, tmp_path):
        path = tmp_path / "queue.tsv"
        export_review_queue([self._candidate()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "question\tpmid\tsentence_index\tsentence_text\tselected"
        assert len(lines) == 5

    def test_export_empty_is_header_only(self, tmp_path):
        path = tmp_path / "queue.tsv"
        export_review_queue([], path)
        assert path.read_text().splitlines() == [
            "question\tpmid\tsentence_index\tsentence_text\tselected"
        ]

    @pytest.mark.parametrize("char", TSV_BREAKS, ids=[f"U+{ord(c):04X}" for c in TSV_BREAKS])
    @pytest.mark.parametrize("field", ["question", "pmid", "sentence"])
    def test_export_rejects_tab_or_line_break(self, tmp_path, field, char):
        candidate = self._candidate()
        if field == "sentence":
            first = candidate.candidate_sentences[0]
            text = first.text[:5] + char + first.text[6:]
            sentences = (Sentence(text, first.char_start, first.char_end),)
            candidate = candidate._replace(candidate_sentences=sentences)
        else:
            candidate = candidate._replace(**{field: f"a{char}b"})
        path = tmp_path / "queue.tsv"
        path.write_text("earlier queue\n")
        with pytest.raises(ValidationError) as raised:
            export_review_queue([self._candidate(), candidate], path)
        assert f"question {candidate.question!r}, pmid {candidate.pmid!r}" in str(raised.value)
        assert path.read_text() == "earlier queue\n"
        assert [p.name for p in tmp_path.iterdir()] == ["queue.tsv"]

    def _mark(self, path, selected_indices):
        lines = path.read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            question, pmid, idx, text, _ = line.split("\t")
            flag = "x" if int(idx) in selected_indices.get((question, pmid), set()) else ""
            out.append("\t".join((question, pmid, idx, text, flag)))
        path.write_text("\n".join(out) + "\n")

    def test_worked_example_roundtrip(self, tmp_path):
        path = tmp_path / "queue.tsv"
        candidate = self._candidate()
        export_review_queue([candidate], path)
        self._mark(path, {(DIABETES_QUESTION, "555"): {0}})
        pairs, unreviewed = import_review_queue(path)
        assert unreviewed == []
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.answer_text == DIABETES_ANSWER
        assert pair.answer_start == 0
        assert pair.context == DIABETES_CONTEXT
        assert pair.subset is DatasetSubsetId.D3
        assert pair.provenance is Provenance.TEMPLATE_MANUAL

    def test_answers_come_from_candidate_sentences(self, tmp_path):
        path = tmp_path / "queue.tsv"
        candidate = self._candidate()
        export_review_queue([candidate], path)
        self._mark(path, {(DIABETES_QUESTION, "555"): {2}})
        pairs, _ = import_review_queue(path)
        assert pairs[0].answer_text in [s.text for s in candidate.candidate_sentences]

    def test_multiple_selection_is_error(self, tmp_path):
        path = tmp_path / "queue.tsv"
        export_review_queue([self._candidate()], path)
        self._mark(path, {(DIABETES_QUESTION, "555"): {0, 2}})
        with pytest.raises(ValidationError, match="multiple selections"):
            import_review_queue(path)

    @pytest.mark.parametrize("index", ["+1", " 1", "1 ", "\u0660", "\uff11", "1_0", ""])
    def test_import_rejects_sentence_index_other_than_ascii_digits(self, tmp_path, index):
        path = tmp_path / "queue.tsv"
        export_review_queue([self._candidate()], path)
        lines = path.read_text().splitlines()
        question, pmid, _index, text, _selected = lines[1].split("\t")
        lines[1] = "\t".join((question, pmid, index, text, "x"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as raised:
            import_review_queue(path)
        assert f"{path} line 2: bad sentence_index {index!r}" in str(raised.value)

    def test_unreviewed_excluded_and_reported(self, tmp_path):
        path = tmp_path / "queue.tsv"
        export_review_queue([self._candidate()], path)
        pairs, unreviewed = import_review_queue(path)
        assert pairs == []
        assert unreviewed == [(DIABETES_QUESTION, "555")]

    @given(
        data=st.data(),
        texts=st.lists(
            st.lists(
                st.sampled_from("alpha beta gamma outcome cohort improved".split()),
                min_size=1,
                max_size=5,
            ).map(lambda ws: " ".join(ws).capitalize() + "."),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60)
    def test_roundtrip_marked_sentence_comes_back_anchored(self, data, texts):
        import tempfile
        from pathlib import Path

        context = " ".join(texts)
        sentences = tuple(segment_sentences(context))
        candidate = CurationCandidate(
            question="Does alpha help?",
            pmid="77",
            context=context,
            candidate_sentences=sentences,
        )
        selected = data.draw(st.integers(min_value=0, max_value=len(sentences) - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "queue.tsv"
            export_review_queue([candidate], path)
            self._mark(path, {("Does alpha help?", "77"): {selected}})
            pairs, unreviewed = import_review_queue(path)
        assert unreviewed == []
        pair = pairs[0]
        assert pair.answer_text == sentences[selected].text
        end = pair.answer_start + len(pair.answer_text)
        assert pair.context[pair.answer_start : end] == pair.answer_text


class TestQueriesAndCandidates:
    def test_search_queries_join_parameters_and_phrases(self):
        questions = instantiate_templates([RISK_TEMPLATE], [CONDITIONS])
        queries = build_search_queries(questions)
        assert queries[2] == '"diabetes" AND ("COVID" OR "SARS-CoV-2" OR "novel coronavirus")'

    def test_aliases_expand_in_queries(self):
        questions = instantiate_templates([EFFECT_TEMPLATE], [TREATMENTS])
        queries = build_search_queries(questions, term_lookup=alias_lookup([TREATMENTS]))
        assert '("Tocilizuma" OR "Tocilizumab")' in queries[-1]

    def test_candidates_respect_queue_depth(self):
        corpus = [
            abstract(
                pmid=f"{100 + i}",
                sections=[("results", "Patients with diabetes improved. COVID-19 cohort data.")],
            )
            for i in range(6)
        ]
        questions = instantiate_templates([RISK_TEMPLATE], [CONDITIONS])
        candidates = build_review_candidates(questions, corpus, queue_depth=3)
        per_question = {}
        for c in candidates:
            per_question[c.question] = per_question.get(c.question, 0) + 1
        assert per_question == {
            "What risks does a person with diabetes face with respect to COVID-19?": 3
        }

    def test_packaged_template_config_loads(self, tmp_path):
        from importlib import resources

        with resources.as_file(
            resources.files("medqakit.data").joinpath("covid_templates.json")
        ) as path:
            templates, vocabs = load_template_config(path)
        questions = instantiate_templates(templates, vocabs)
        texts = [q.question for q in questions]
        assert "What risks does a person with diabetes face with respect to COVID-19?" in texts
        assert "What adverse effects are associated with Dexamethasone?" in texts
        assert len(questions) == 5 + 6 + 3


GOOD_TEMPLATE = {"template_id": "t", "pattern": "Is [X] risky?", "slot_types": ["xs"]}
GOOD_VOCABULARY = {"name": "xs", "values": ["a", "b"], "aliases": {"a": ["A"]}}
PAIRED_VOCABULARY = {"name": "pairs", "values": [["b", "c"]]}


class TestLoadTemplateConfig:
    def write(self, tmp_path, raw):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(raw))
        return path

    def test_fields_read_as_given(self, tmp_path):
        raw = {"templates": [GOOD_TEMPLATE], "vocabularies": [GOOD_VOCABULARY, PAIRED_VOCABULARY]}
        templates, vocabs = load_template_config(self.write(tmp_path, raw))
        assert templates == [QuestionTemplate("t", "Is [X] risky?", ("xs",))]
        assert [(v.name, v.values, v.aliases) for v in vocabs] == [
            ("xs", ("a", "b"), {"a": ("A",)}),
            ("pairs", (("b", "c"),), {}),
        ]

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([GOOD_TEMPLATE], "expected a JSON object, got array"),
            ({"templates": GOOD_TEMPLATE}, "field 'templates': expected an array, got object"),
            ({"templates": [GOOD_TEMPLATE, "t"]}, "templates[1]: expected a JSON object, got string"),
            ({"templates": [{"pattern": "Is [X]?"}]}, "templates[0]: missing field 'template_id'"),
            (
                {"templates": [dict(GOOD_TEMPLATE, pattern=None)]},
                "templates[0]: field 'pattern': expected a string, got null",
            ),
            (
                {"templates": [dict(GOOD_TEMPLATE, template_id=7)]},
                "templates[0]: field 'template_id': expected a string, got number",
            ),
            (
                {"templates": [dict(GOOD_TEMPLATE, slot_types="xs")]},
                "templates[0]: field 'slot_types': expected an array of strings, got string",
            ),
            (
                {"templates": [dict(GOOD_TEMPLATE, slot_types=[])]},
                "templates[0]: template t: 1 slots in pattern but 0 slot types declared",
            ),
            (
                {"templates": [GOOD_TEMPLATE], "vocabularies": [{"values": ["a"]}]},
                "vocabularies[0]: missing field 'name'",
            ),
            (
                {"templates": [GOOD_TEMPLATE], "vocabularies": [dict(GOOD_VOCABULARY, values=[1])]},
                "vocabularies[0]: field 'values': expected an array of strings or string arrays, got array",
            ),
            (
                {"templates": [GOOD_TEMPLATE], "vocabularies": [dict(GOOD_VOCABULARY, aliases=[])]},
                "vocabularies[0]: field 'aliases': expected an object of string arrays, got array",
            ),
            (
                {"templates": [GOOD_TEMPLATE], "vocabularies": [dict(GOOD_VOCABULARY, values=[])]},
                "vocabularies[0]: vocabulary 'xs' has no values",
            ),
            (
                {
                    "templates": [GOOD_TEMPLATE],
                    "vocabularies": [dict(GOOD_VOCABULARY, values=["a\nb"])],
                },
                "vocabularies[0]: field 'values': 'a\\nb' holds a tab or line break",
            ),
            (
                {
                    "templates": [GOOD_TEMPLATE],
                    "vocabularies": [GOOD_VOCABULARY, dict(PAIRED_VOCABULARY, values=[["b", "c\t"]])],
                },
                "vocabularies[1]: field 'values': 'c\\t' holds a tab or line break",
            ),
            (
                {
                    "templates": [GOOD_TEMPLATE],
                    "vocabularies": [dict(GOOD_VOCABULARY, aliases={"a": ["A", "A\u2028"]})],
                },
                "vocabularies[0]: field 'aliases': 'A\\u2028' holds a tab or line break",
            ),
        ],
    )
    def test_malformed_config_names_file_entry_and_field(self, tmp_path, raw, message):
        path = self.write(tmp_path, raw)
        with pytest.raises(ValidationError) as info:
            load_template_config(path)
        assert str(path) in str(info.value)
        assert message in str(info.value)


# The search before each abstract's texts were lowered once, as oracles:
# every (text, phrase) and (text, term) pair is lowered and tested apart.
def oracle_covid_filter(item, policy):
    if item.pub_date is None or item.pub_date < policy.cutoff_date:
        return False
    texts = [t for s in item.sections for t in (s.text, s.label)] + list(item.keywords)
    return any(p.lower() in t.lower() for t in texts for p in policy.phrases)


def oracle_review_candidates(questions, corpus, policy, lookup, depth):
    """One pass per question over the eligible abstracts in pmid order."""
    eligible = [a for a in sorted(corpus, key=lambda a: a.pmid) if oracle_covid_filter(a, policy)]
    out = []
    for question in questions:
        found = 0
        for item in eligible:
            if found >= depth:
                break
            texts = [item.title] + [t for s in item.sections for t in (s.text, s.label)]
            texts += list(item.keywords)
            if not all(
                any(term.lower() in text.lower() for text in texts for term in lookup.get(p, (p,)))
                for p in question.parameters
            ):
                continue
            sections = [s.text for s in covid._answer_sections(item) if s.text.strip()]
            context = " ".join(" ".join(text.split()) for text in sections)
            sentences = tuple(segment_sentences(context)) if context else ()
            if sentences:
                out.append(CurationCandidate(question.question, item.pmid, context, sentences))
                found += 1
    return out


# Final and medial sigma, a capital whose lowercase is two characters, and
# line breaks inside texts (never inside a phrase or term).
SEARCH_TEXT = st.text(alphabet="aAbΣσςİi ßo.\n", max_size=10)
SEARCH_TERM = st.text(alphabet="aAbΣσςİi ßo", max_size=3)


@st.composite
def search_abstract(draw, pmid):
    sections = draw(
        st.lists(
            st.tuples(st.sampled_from(["RESULTS", "CONCLUSIONS", "ΟΔΟΣ", "BACKGROUND"]), SEARCH_TEXT),
            max_size=3,
        )
    )
    return abstract(
        pmid=pmid,
        title=draw(SEARCH_TEXT),
        pub_date=draw(st.sampled_from([None, "2019-05-01", "2020-03-01"])),
        keywords=draw(st.lists(SEARCH_TEXT, max_size=2)),
        sections=sections,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_search_on_joined_lowered_texts_equals_the_pairwise_search(data):
    corpus = [data.draw(search_abstract(str(i))) for i in range(data.draw(st.integers(0, 6)))]
    policy = CovidFilterPolicy(phrases=tuple(data.draw(st.lists(SEARCH_TERM, min_size=1, max_size=3))))
    for item in corpus:
        assert covid_filter(item, policy) == oracle_covid_filter(item, policy)
    parameters = st.lists(SEARCH_TERM, min_size=1, max_size=2).map(tuple)
    questions = [
        InstantiatedQuestion(question=f"q{i}", template_id="t", parameters=data.draw(parameters))
        for i in range(data.draw(st.integers(1, 3)))
    ]
    lookup = data.draw(st.dictionaries(SEARCH_TERM, st.lists(SEARCH_TERM, max_size=2).map(tuple)))
    depth = data.draw(st.integers(0, 3))
    result = build_review_candidates(
        questions, iter(corpus), policy, term_lookup=lookup, queue_depth=depth
    )
    assert result == oracle_review_candidates(questions, corpus, policy, lookup, depth)


def test_a_phrase_or_term_with_a_line_break_is_rejected():
    with pytest.raises(ParseError, match="covid filter phrase"):
        CovidFilterPolicy(phrases=("COVID", "novel\ncoronavirus"))
    question = InstantiatedQuestion(question="q", template_id="t", parameters=("asthma",))
    with pytest.raises(ParseError, match="search term"):
        build_review_candidates([question], [], term_lookup={"asthma": ("asthma", "a\tb")})


def test_an_empty_phrase_matches_only_an_abstract_with_some_text():
    policy = CovidFilterPolicy(phrases=("",))
    assert not covid_filter(abstract(title="COVID"), policy)
    assert covid_filter(abstract(keywords=[""]), policy)
    assert covid_filter(abstract(sections=[("RESULTS", "")]), policy)
