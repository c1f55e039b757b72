import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    Bm25Params,
    ContractViolation,
    Sentence,
    ValidationError,
    best_sentence,
    tokenize,
)


# The per-candidate scoring path `best_sentence` replaced; it is the oracle
# the one-pass scoring must match bit for bit.
@dataclass(frozen=True)
class CandidateSet:
    """Tokenized candidates with the statistics BM25 needs; immutable."""

    docs: tuple[tuple[str, ...], ...]
    df: dict[str, int]
    avgdl: float
    n: int


def build_candidates(sentences: Sequence[Sentence | str]) -> CandidateSet:
    """Tokenize candidates and derive df/avgdl over exactly these sentences."""
    docs = tuple(
        tuple(tokenize(s.text if isinstance(s, Sentence) else s)) for s in sentences
    )
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n if n else 0.0
    return CandidateSet(docs=docs, df=dict(df), avgdl=avgdl, n=n)


def bm25_score(
    query_tokens: Sequence[str],
    doc_index: int,
    candidates: CandidateSet,
    params: Bm25Params = Bm25Params(),
) -> float:
    """Score one candidate against the query tokens."""
    if not 0 <= doc_index < candidates.n:
        raise ContractViolation(
            f"doc_index {doc_index} out of range for {candidates.n} candidates"
        )
    doc = candidates.docs[doc_index]
    tf = Counter(doc)
    dl = len(doc)
    rel_len = dl / candidates.avgdl if candidates.avgdl else 0.0
    norm = params.k1 * (1.0 - params.b + params.b * rel_len)
    score = 0.0
    for token in query_tokens:
        freq = tf.get(token, 0)
        if freq == 0:
            continue
        df = candidates.df[token]
        idf = math.log(1.0 + (candidates.n - df + 0.5) / (df + 0.5))
        score += idf * (freq * (params.k1 + 1.0)) / (freq + norm)
    return score


def reference_best_sentence(question, sentences, params=Bm25Params(), *, stopwords=None):
    """`best_sentence` as it was: one bm25_score call per candidate."""
    if not sentences:
        raise ValidationError("no candidates")
    query = tokenize(question)
    if stopwords:
        query = [t for t in query if t not in stopwords]
    candidates = build_candidates(sentences)
    best_index, best_score = 0, bm25_score(query, 0, candidates, params)
    for i in range(1, candidates.n):
        score = bm25_score(query, i, candidates, params)
        if score > best_score:
            best_index, best_score = i, score
    return best_index, best_score


def brute_force_scores(query_tokens, docs_tokens, k1=1.2, b=0.75):
    """Independent reference implementation of the scoring formula."""
    n = len(docs_tokens)
    avgdl = sum(len(d) for d in docs_tokens) / n if n else 0.0
    df = {}
    for doc in docs_tokens:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    scores = []
    for doc in docs_tokens:
        dl = len(doc)
        total = 0.0
        for token in query_tokens:
            freq = doc.count(token)
            if freq == 0:
                continue
            idf = math.log(1 + (n - df[token] + 0.5) / (df[token] + 0.5))
            norm = k1 * (1 - b + (b * dl / avgdl if avgdl else 0.0))
            total += idf * (freq * (k1 + 1)) / (freq + norm)
        scores.append(total)
    return scores


class TestTokenize:
    def test_delimiters_and_lowercase(self):
        assert tokenize("Blood-glucose control!") == ["blood", "glucose", "control"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_and_digits(self):
        assert tokenize("COVID-19") == ["covid", "19"]


class TestBuildCandidates:
    def test_avgdl_and_n(self):
        cs = build_candidates(["one two three four", "five six seven eight"])
        assert cs.n == 2
        assert cs.avgdl == 4.0

    def test_df_counts_documents_not_occurrences(self):
        cs = build_candidates(["shared shared alpha", "shared beta"])
        assert cs.df["shared"] == 2
        assert cs.df["alpha"] == 1

    def test_empty_list(self):
        cs = build_candidates([])
        assert cs.n == 0 and cs.avgdl == 0.0


class TestBm25Score:
    def test_absent_token_contributes_zero(self):
        cs = build_candidates(["alpha beta", "gamma delta"])
        assert bm25_score(["missing"], 0, cs) == 0.0

    def test_single_candidate_hand_value(self):
        # one candidate holding the sole query token once, dl == avgdl:
        # idf = ln(1 + 0.5/1.5), tf part = 2.2 / (1 + 1.2) = 1
        cs = build_candidates(["term"])
        score = bm25_score(["term"], 0, cs, Bm25Params(k1=1.2, b=0.75))
        assert score == pytest.approx(math.log(4 / 3), rel=1e-12)

    def test_identical_candidates_score_equally(self):
        cs = build_candidates(["alpha beta", "alpha beta"])
        assert bm25_score(["alpha"], 0, cs) == bm25_score(["alpha"], 1, cs)

    def test_out_of_range_index(self):
        cs = build_candidates(["alpha"])
        with pytest.raises(ContractViolation):
            bm25_score(["alpha"], 1, cs)

    def test_params_validated(self):
        with pytest.raises(ValidationError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValidationError):
            Bm25Params(b=1.5)

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=6).map(" ".join),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=5),
    )
    @settings(max_examples=200)
    def test_scores_never_negative(self, docs, query):
        cs = build_candidates(docs)
        for i in range(cs.n):
            assert bm25_score(query, i, cs) >= 0.0


class TestBestSentence:
    def test_question_equal_to_one_sentence_wins(self):
        sentences = [
            "Aspirin reduced headaches in the cohort.",
            "Vitamin supplementation showed no measurable benefit.",
            "Exercise improved sleep quality substantially.",
        ]
        question = sentences[1]
        index, score = best_sentence(question, sentences)
        assert index == 1
        brute = brute_force_scores(tokenize(question), [tokenize(s) for s in sentences])
        assert max(range(3), key=lambda i: brute[i]) == 1
        assert score == pytest.approx(brute[1], rel=1e-9)

    def test_all_identical_breaks_tie_to_first(self):
        index, _ = best_sentence("alpha", ["alpha beta", "alpha beta", "alpha beta"])
        assert index == 0

    def test_no_token_overlap_returns_first_with_zero(self):
        index, score = best_sentence("zeta", ["alpha", "beta"])
        assert (index, score) == (0, 0.0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError, match="no candidates"):
            best_sentence("q", [])

    def test_determinism(self):
        sentences = ["alpha beta gamma", "beta gamma delta", "gamma delta epsilon"]
        results = {best_sentence("beta gamma", sentences) for _ in range(20)}
        assert len(results) == 1


def test_oracle_equivalence_randomized():
    rng = random.Random(4242)
    vocabulary = [f"w{i}" for i in range(30)]
    for _ in range(300):
        n_docs = rng.randint(1, 8)
        docs = [
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
            for _ in range(n_docs)
        ]
        query = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 8)))
        params = Bm25Params(k1=rng.choice([0.0, 0.8, 1.2, 2.0]), b=rng.choice([0.0, 0.5, 0.75, 1.0]))
        cs = build_candidates(docs)
        brute = brute_force_scores(
            tokenize(query), [tokenize(d) for d in docs], k1=params.k1, b=params.b
        )
        for i in range(n_docs):
            mine = bm25_score(tokenize(query), i, cs, params)
            assert mine == pytest.approx(brute[i], rel=1e-9, abs=1e-12)
        index, score = best_sentence(query, docs, params)
        best_brute = max(range(n_docs), key=lambda i: (brute[i], -i))
        assert index == best_brute
        assert score == pytest.approx(brute[best_brute], rel=1e-9, abs=1e-12)


def test_monotonicity_extra_query_token_occurrence():
    # adding one occurrence of a query token to candidate i must never hand
    # the win to a candidate that previously scored below i
    rng = random.Random(99)
    vocabulary = [f"t{i}" for i in range(12)]
    for _ in range(300):
        n_docs = rng.randint(2, 6)
        docs = [[rng.choice(vocabulary) for _ in range(rng.randint(1, 8))] for _ in range(n_docs)]
        query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 5))]
        target = rng.randrange(n_docs)
        extra = rng.choice(query)

        before = brute_force_scores(query, docs)
        modified = [list(d) for d in docs]
        modified[target].append(extra)
        cs = build_candidates([" ".join(d) for d in modified])
        after = [bm25_score(query, i, cs) for i in range(n_docs)]
        winner = max(range(n_docs), key=lambda i: (after[i], -i))
        if winner != target:
            assert before[winner] >= before[target]


def assert_same_as_reference(question, sentences, params, stopwords=None):
    index, score = best_sentence(question, sentences, params, stopwords=stopwords)
    ref_index, ref_score = reference_best_sentence(
        question, sentences, params, stopwords=stopwords
    )
    assert index == ref_index
    assert repr(score) == repr(ref_score)


class TestOnePassMatchesPerCandidateScoring:
    """`best_sentence` gives the same index and the same float bits as the
    per-candidate path it replaced."""

    @pytest.mark.parametrize(
        "question, sentences",
        [
            ("alpha alpha beta", ["alpha beta", "beta alpha alpha", "gamma"]),  # duplicates
            ("alpha", ["", "alpha", "..."]),  # candidates with no tokens
            ("alpha", ["", "", ""]),  # no candidate has a token
            ("", ["alpha beta", "gamma"]),  # empty query
            ("beta", ["alpha beta", "beta alpha", "beta"]),  # ties
            ("alpha beta", ["alpha beta", "alpha beta"]),
        ],
    )
    @pytest.mark.parametrize("k1", [0.0, 1.2, 2.0])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_hand_cases(self, question, sentences, k1, b):
        assert_same_as_reference(question, sentences, Bm25Params(k1=k1, b=b))

    def test_sentence_objects_and_stopwords(self):
        text = "The dose of the drug. The drug worked"
        sentences = [Sentence(text[:21], 0, 21), Sentence(text[22:], 22, len(text))]
        stopwords = frozenset({"the", "of"})
        for sw in (None, stopwords):
            assert_same_as_reference("the drug dose of the day", sentences, Bm25Params(), sw)

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=8).map(" ".join),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.sampled_from("abcdefgh"), max_size=8).map(" ".join),
        st.sampled_from([0.0, 0.5, 1.2, 2.0]),
        st.sampled_from([0.0, 0.3, 0.75, 1.0]),
        st.sampled_from([None, frozenset(), frozenset({"a", "b"})]),
    )
    @settings(max_examples=500)
    def test_random_candidate_sets(self, sentences, question, k1, b, stopwords):
        assert_same_as_reference(question, sentences, Bm25Params(k1=k1, b=b), stopwords)
