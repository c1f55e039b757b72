"""Curation keeps only what it emits: `build_review_candidates` keeps, per
question, the answer sections of the queue_depth smallest pmids seen so far,
and `build_artificial_pairs` keeps only each pair's pmid and the offset of
its article in a spool. The implementations they replace, which kept every
eligible abstract and sorted them by pmid first, are the oracles here, on
corpora in the order drawn, in ascending and in descending pmid order."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import covid, formats
from medqakit.bm25 import Bm25Params
from medqakit.corpus import (
    DatasetSubsetId,
    Provenance,
    QAPair,
    parse_abstract_record,
    segment_sentences,
)
from medqakit.covid import (
    CovidFilterPolicy,
    CurationCandidate,
    InstantiatedQuestion,
    build_review_candidates,
    covid_filter,
    extract_conclusion_section,
    extract_question,
)
from medqakit.errors import ValidationError
from medqakit.weak_label import select_answer_sentence

from tests.conftest import artificial_pairs


def eligible(corpus, policy):
    """The abstracts that pass the COVID filter, in pmid order."""
    return sorted((a for a in corpus if covid_filter(a, policy)), key=lambda a: a.pmid)


def oracle_artificial_pairs(corpus, policy, params=Bm25Params()):
    pairs, skipped = [], 0
    for abstract in eligible(corpus, policy):
        question = extract_question(abstract)
        section = extract_conclusion_section(abstract)
        if question is None or section is None:
            skipped += 1
            continue
        try:
            sentence, _score, _n = select_answer_sentence(question, section.text, params)
        except ValidationError:
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


def oracle_review_candidates(questions, corpus, policy, lookup, queue_depth):
    """The sorted scan: every eligible abstract in pmid order, each tried
    against the questions that still have room, segmented when it matches."""
    terms_per_question = [
        [tuple(t.lower() for t in lookup.get(p, (p,))) for p in question.parameters]
        for question in questions
    ]
    found = [[] for _ in questions]
    open_questions = list(range(len(questions))) if queue_depth > 0 else []
    for abstract in eligible(corpus, policy):
        if not open_questions:
            break
        searchable = "\n".join(
            [abstract.title.lower(), *(t.lower() for t in covid._searchable_texts(abstract))]
        )
        sentences = None
        for q in list(open_questions):
            if not all(any(t in searchable for t in terms) for terms in terms_per_question[q]):
                continue
            if sentences is None:
                sections = [s.text for s in covid._answer_sections(abstract) if s.text.strip()]
                context = " ".join(" ".join(text.split()) for text in sections)
                sentences = tuple(segment_sentences(context)) if context else ()
            if not sentences:
                continue
            found[q].append(CurationCandidate(questions[q].question, abstract.pmid, context, sentences))
            if len(found[q]) >= queue_depth:
                open_questions.remove(q)
    return [candidate for per_question in found for candidate in per_question]


# pmids whose string order is not their numeric order; a few repeat
PMIDS = ["7", "10", "100", "11", "2", "20", "09", "3"]
WORDS = ["asthma", "Obesity", "tocilizumab", "COVID-19", "cohort", "Mortality"]
LABELS = ["RESULTS", "CONCLUSIONS", "ANSWER", "BACKGROUND", "QUESTION", "RESULTS AND DISCUSSION"]
BLANKS = ["", "   ", "\n\t "]


def sentence_text(rng):
    words = rng.choices(WORDS, k=rng.randint(1, 5))
    return " ".join(words).capitalize() + rng.choice([".", "?", ". Further  data.", "!\n"])


def section_text(rng):
    if rng.random() < 0.2:
        return rng.choice(BLANKS)
    return " ".join(sentence_text(rng) for _ in range(rng.randint(1, 3)))


def make_corpus(seed, order="drawn"):
    """Up to 10 abstracts, some without a date or before the cutoff, some
    whose answer sections are blank; in the order drawn, or sorted by pmid
    ("ascending" or "descending", a repeated pmid in the order drawn)."""
    rng = random.Random(seed)
    records = [
        {
            "pmid": rng.choice(PMIDS),
            "title": sentence_text(rng),
            "pub_date": rng.choice([None, "2019-05-01", "2020-03-01", "2021-06-30"]),
            "keywords": rng.choices(["SARS-CoV-2", "asthma", ""], k=rng.randint(0, 2)),
            "sections": [
                {"label": rng.choice(LABELS), "text": section_text(rng)}
                for _ in range(rng.randint(0, 4))
            ],
        }
        for _ in range(rng.randint(0, 10))
    ]
    if order != "drawn":
        records.sort(key=lambda record: record["pmid"], reverse=order == "descending")
    return [parse_abstract_record(record) for record in records]


ORDERS = ("drawn", "ascending", "descending")
CORPORA = st.builds(make_corpus, st.integers(0, 2**32 - 1), st.sampled_from(ORDERS))


POLICY = CovidFilterPolicy(phrases=("covid", "SARS-CoV-2"))
# an alias term matches where its value does not
LOOKUP = {"tocilizuma": ("tocilizuma", "TOCILIZUMAB"), "asthma": ("asthma", "wheeze")}
PARAMETERS = st.lists(st.sampled_from(["asthma", "obesity", "tocilizuma", "cohort", "lung"]),
                      min_size=1, max_size=2).map(tuple)
QUEUE_DEPTHS = st.sampled_from([0, 1, 2, 3, 50])


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_review_candidates_equal_the_sorted_scan(data):
    corpus = data.draw(CORPORA)
    questions = [
        InstantiatedQuestion(question=f"q{i}", template_id="t", parameters=data.draw(PARAMETERS))
        for i in range(data.draw(st.integers(0, 4)))
    ]
    lookup = data.draw(st.sampled_from([{}, LOOKUP]))
    depth = data.draw(QUEUE_DEPTHS)
    result = build_review_candidates(
        questions, iter(corpus), POLICY, term_lookup=lookup, queue_depth=depth
    )
    assert result == oracle_review_candidates(questions, corpus, POLICY, lookup, depth)


@settings(max_examples=500, deadline=None)
@given(corpus=CORPORA)
def test_artificial_pairs_equal_the_list_path(corpus):
    assert artificial_pairs(iter(corpus), POLICY) == oracle_artificial_pairs(corpus, POLICY)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_d4_bytes_do_not_depend_on_corpus_order(seed, tmp_path_factory):
    """The d4 file of one corpus, with each pmid once, in the order drawn,
    ascending and descending: the same bytes, those of the oracle's pairs."""
    by_pmid = {a.pmid: a for a in make_corpus(seed)}
    expected, skipped = oracle_artificial_pairs(list(by_pmid.values()), POLICY)
    tmp = tmp_path_factory.mktemp("d4")
    formats.write_squad(tmp / "oracle.json", expected)
    for order in (list(by_pmid), sorted(by_pmid), sorted(by_pmid, reverse=True)):
        path = tmp / "d4.json"
        assert covid.build_artificial_pairs(
            (by_pmid[p] for p in order), path, POLICY
        ) == (len(expected), skipped)
        assert path.read_bytes() == (tmp / "oracle.json").read_bytes()
    assert sorted(p.name for p in tmp.iterdir()) == ["d4.json", "oracle.json"]


def test_queue_depth_above_the_matches_keeps_every_match():
    rng = random.Random(3)
    records = [
        {"pmid": str(p), "title": "T", "pub_date": "2020-03-01", "keywords": [],
         "sections": [{"label": "RESULTS", "text": "COVID-19 and asthma. More data."}]}
        for p in rng.sample(range(1000, 1100), 30)
    ]
    corpus = [parse_abstract_record(r) for r in records]
    question = [InstantiatedQuestion(question="q", template_id="t", parameters=("asthma",))]
    for depth in (0, 1, 2, 29, 30, 31, 100):
        result = build_review_candidates(question, iter(corpus), POLICY, queue_depth=depth)
        assert [c.pmid for c in result] == sorted(r["pmid"] for r in records)[:depth]


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_a_non_empty_normalized_context_holds_a_sentence(text):
    """Why the candidates may be segmented after they are chosen: a context
    is kept when it is not empty, the sorted scan kept it when it had a
    sentence, and the two agree."""
    context = " ".join(text.split())
    assert bool(segment_sentences(context)) == bool(context)
