"""Okapi BM25 scoring and best-sentence selection over candidate sentences.

Document frequency and average length are computed over the candidate set
alone (the sentences of one section), so scores never depend on corpus
composition and labels stay reproducible as the corpus grows.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import Sequence

from .corpus import Sentence
from .errors import ValidationError

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run; empty tokens dropped."""
    return _TOKEN_RE.findall(text.lower())


class Bm25Params(namedtuple("Bm25Params", "k1 b")):
    __slots__ = ()

    def __new__(cls, k1: float = 1.2, b: float = 0.75):
        if not k1 >= 0:  # NaN too
            raise ValidationError(f"k1 must be non-negative, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {b}")
        return tuple.__new__(cls, (k1, b))


def best_sentence(
    question: str,
    sentences: Sequence[Sentence | str],
    params: Bm25Params = Bm25Params(),
    *,
    stopwords: frozenset[str] | None = None,
) -> tuple[int, float]:
    """Return (index, score) of the highest-scoring sentence.

    Each candidate is scored against the query tokens with the smoothed idf
    ln(1 + (n - df + 0.5) / (df + 0.5)), which keeps every term weight
    positive; tokens absent from a candidate contribute nothing, so scores
    are always >= 0. A score adds its terms in query order, duplicates
    included. Ties break toward the smallest index. An optional stopword
    set is applied to the query tokens only; candidate statistics are
    untouched.
    """
    if not sentences:
        raise ValidationError("no candidates")
    query = tokenize(question)
    if stopwords:
        query = [t for t in query if t not in stopwords]
    docs = [tokenize(s.text if isinstance(s, Sentence) else s) for s in sentences]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n

    # idf and the frequency in each candidate, once per distinct query token
    stats: dict[str, tuple[float, list[int]]] = {}
    for token in query:
        if token not in stats:
            counts = [doc.count(token) for doc in docs]
            df = n - counts.count(0)
            stats[token] = (math.log(1.0 + (n - df + 0.5) / (df + 0.5)), counts)
    terms = [stats[token] for token in query]

    k1, b = params.k1, params.b
    k1_plus_1 = k1 + 1.0
    best_index, best_score = 0, 0.0
    for i, doc in enumerate(docs):
        rel_len = len(doc) / avgdl if avgdl else 0.0
        norm = k1 * (1.0 - b + b * rel_len)
        score = 0.0
        for idf, counts in terms:
            freq = counts[i]
            if freq:
                score += idf * (freq * k1_plus_1) / (freq + norm)
        if i == 0 or score > best_score:
            best_index, best_score = i, score
    return best_index, best_score
