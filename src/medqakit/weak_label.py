"""Weak labeling: repurpose yes/no QA sources into extractive QA pairs.

The conclusions text becomes the context and the BM25-best sentence becomes
the answer. Question tokens are filtered against a fixed stopword list
before scoring; with only a handful of candidate sentences, per-set idf
otherwise hands hapax function words ("to", "with") the largest weights and
the selected sentence stops tracking the question's content words.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .bm25 import Bm25Params, best_sentence
from .corpus import (
    DatasetSubsetId,
    Provenance,
    QAPair,
    Sentence,
    SourceInstance,
    segment_sentences,
)
from .errors import ValidationError, warn

# Lucene's EnglishAnalyzer default stopword set.
QUERY_STOPWORDS: frozenset[str] = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

PRIME_SUBSET: dict[DatasetSubsetId, DatasetSubsetId] = {
    DatasetSubsetId.PQA_L: DatasetSubsetId.D1,
    DatasetSubsetId.PQA_A: DatasetSubsetId.D2,
}


class WeakLabelRecord(
    namedtuple("WeakLabelRecord", "pair source_subset bm25_score n_candidates")
):
    """pair: QAPair, source_subset: DatasetSubsetId, bm25_score: float,
    n_candidates: int."""

    __slots__ = ()


def select_answer_sentence(
    question: str,
    context: str,
    params: Bm25Params = Bm25Params(),
) -> tuple[Sentence, float, int]:
    """Pick the best-matching context sentence; raises on degenerate context."""
    if not context.strip():
        raise ValidationError("degenerate context: empty conclusions text")
    sentences = segment_sentences(context)
    if not sentences:
        raise ValidationError("degenerate context: no sentences found")
    index, score = best_sentence(question, sentences, params, stopwords=QUERY_STOPWORDS)
    return sentences[index], score, len(sentences)


def weak_label(
    question: str,
    conclusions_text: str,
    params: Bm25Params = Bm25Params(),
    *,
    pair_id: str,
    source_subset: DatasetSubsetId = DatasetSubsetId.PQA_L,
) -> WeakLabelRecord:
    """Label one record: context = conclusions verbatim, answer = best sentence."""
    if source_subset not in PRIME_SUBSET:
        raise ValidationError(f"source subset must be pqa_l or pqa_a, got {source_subset}")
    sentence, score, n_candidates = select_answer_sentence(question, conclusions_text, params)
    pair = QAPair(
        id=pair_id,
        question=question,
        context=conclusions_text,
        answer_text=sentence.text,
        answer_start=sentence.char_start,
        subset=PRIME_SUBSET[source_subset],
        provenance=Provenance.BM25_WEAK,
    )
    return WeakLabelRecord(
        pair=pair, source_subset=source_subset, bm25_score=score, n_candidates=n_candidates
    )


def build_prime_subset(
    instances: Iterable[SourceInstance],
    subset: DatasetSubsetId,
    params: Bm25Params = Bm25Params(),
) -> tuple[list[WeakLabelRecord], int]:
    """Weak-label records of one source subset, preserving input order.

    Degenerate inputs (empty conclusions or question) are skipped, not
    fatal; returns (records, skipped_count).
    """
    if subset not in PRIME_SUBSET:
        raise ValidationError(f"subset must be pqa_l or pqa_a, got {subset}")
    records: list[WeakLabelRecord] = []
    skipped = 0
    for instance in instances:
        if not instance.question.strip():
            warn(__name__, f"skipping {instance.id}: empty question")
            skipped += 1
            continue
        try:
            records.append(
                weak_label(
                    instance.question,
                    instance.context,
                    params,
                    pair_id=instance.id,
                    source_subset=subset,
                )
            )
        except ValidationError as exc:
            warn(__name__, f"skipping {instance.id}: {exc}")
            skipped += 1
    return records, skipped

