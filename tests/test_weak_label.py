import pytest

from medqakit import (
    Bm25Params,
    DatasetSubsetId,
    Provenance,
    SourceInstance,
    ValidationError,
    build_prime_subset,
    segment_sentences,
    weak_label,
)
from medqakit.bm25 import tokenize
from medqakit.weak_label import QUERY_STOPWORDS
from tests.test_bm25 import brute_force_scores

from tests.conftest import DIABETES_ANSWER, DIABETES_CONTEXT, DIABETES_QUESTION


class TestWeakLabel:
    def test_worked_diabetes_example(self):
        record = weak_label(DIABETES_QUESTION, DIABETES_CONTEXT, pair_id="d3-ex")
        assert record.pair.answer_text == DIABETES_ANSWER
        assert record.pair.answer_start == 0
        assert record.n_candidates == 4
        # cross-check the selection against the independent scorer
        sentences = [s.text for s in segment_sentences(DIABETES_CONTEXT)]
        query = [t for t in tokenize(DIABETES_QUESTION) if t not in QUERY_STOPWORDS]
        brute = brute_force_scores(query, [tokenize(s) for s in sentences])
        assert max(range(len(brute)), key=lambda i: (brute[i], -i)) == 0

    def test_context_kept_verbatim(self):
        record = weak_label(DIABETES_QUESTION, DIABETES_CONTEXT, pair_id="x")
        assert record.pair.context == DIABETES_CONTEXT
        assert record.pair.provenance is Provenance.BM25_WEAK

    def test_single_sentence_conclusions(self):
        record = weak_label("Any question at all?", "Only sentence here.", pair_id="x")
        assert record.pair.answer_text == "Only sentence here."
        assert record.pair.answer_start == 0
        assert record.n_candidates == 1

    def test_empty_conclusions_rejected(self):
        with pytest.raises(ValidationError, match="degenerate context"):
            weak_label("q?", "   ", pair_id="x")

    def test_subset_mapping(self):
        record = weak_label("q?", "A sentence.", pair_id="x", source_subset=DatasetSubsetId.PQA_A)
        assert record.pair.subset is DatasetSubsetId.D2
        assert record.source_subset is DatasetSubsetId.PQA_A

    def test_non_pqa_subset_rejected(self):
        with pytest.raises(ValidationError):
            weak_label("q?", "A sentence.", pair_id="x", source_subset=DatasetSubsetId.D1)


class TestBuildPrimeSubset:
    def _sources(self):
        return [
            SourceInstance(id="a", question="Does alpha help?", context="Alpha helps. Beta does not."),
            SourceInstance(id="b", question="Does beta help?", context="Beta is unclear."),
            SourceInstance(id="c", question="Does gamma help?", context="Gamma improved outcomes."),
        ]

    def test_order_preserved(self):
        records, skipped = build_prime_subset(self._sources(), DatasetSubsetId.PQA_L)
        assert [r.pair.id for r in records] == ["a", "b", "c"]
        assert skipped == 0

    def test_degenerates_skipped_and_counted(self):
        sources = self._sources()
        sources.insert(1, SourceInstance(id="empty", question="q?", context="  "))
        records, skipped = build_prime_subset(sources, DatasetSubsetId.PQA_L)
        assert [r.pair.id for r in records] == ["a", "b", "c"]
        assert skipped == 1

    def test_subset_tagging(self):
        records, _ = build_prime_subset(self._sources(), DatasetSubsetId.PQA_L)
        assert all(r.pair.subset is DatasetSubsetId.D1 for r in records)
        records, _ = build_prime_subset(self._sources(), DatasetSubsetId.PQA_A)
        assert all(r.pair.subset is DatasetSubsetId.D2 for r in records)

    def test_answers_are_segmented_sentences(self):
        records, _ = build_prime_subset(self._sources(), DatasetSubsetId.PQA_L)
        for record in records:
            sentence_texts = [s.text for s in segment_sentences(record.pair.context)]
            assert record.pair.answer_text in sentence_texts

    def test_invalid_subset(self):
        with pytest.raises(ValidationError):
            build_prime_subset([], DatasetSubsetId.D3)

