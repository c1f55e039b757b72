"""Evaluation measures: exact match and token F1 for extractive QA,
accuracy for yes/no QA."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from operator import itemgetter
from typing import Iterable, Sequence

from .corpus import Prediction, QAPair, YesNoInstance, normalize_answer
from .errors import ValidationError


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores; EM and F1 are percentages, accuracy is a fraction."""

    n: int
    exact_match: float | None = None
    f1: float | None = None
    accuracy: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"n": self.n}
        if self.exact_match is not None:
            out["exact_match"] = self.exact_match
        if self.f1 is not None:
            out["f1"] = self.f1
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
        return out


def exact_match(pred: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    if not golds:
        raise ValidationError("exact_match needs at least one gold answer")
    normalized = normalize_answer(pred)
    return int(any(normalized == normalize_answer(g) for g in golds))


def _f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if pred_tokens == gold_tokens:
        # precision and recall are both 1.0, or both lists are empty
        return 1.0
    # the size of the multiset intersection of the two token lists
    unmatched: dict[str, int] = {}
    for token in gold_tokens:
        unmatched[token] = unmatched.get(token, 0) + 1
    overlap = 0
    for token in pred_tokens:
        if unmatched.get(token, 0) > 0:
            unmatched[token] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(pred: str, golds: Sequence[str]) -> float:
    """Max over golds of the multiset-overlap token F1 on normalized text."""
    if not golds:
        raise ValidationError("token_f1 needs at least one gold answer")
    pred_tokens = normalize_answer(pred).split()
    return max(_f1(pred_tokens, normalize_answer(g).split()) for g in golds)


class ScoringError(ValidationError):
    """Predictions cannot be scored against the golds: an unknown task, no
    or repeated gold ids, ids that do not align, or a prediction without
    the field its task scores."""


def evaluate(
    golds: Iterable[QAPair] | Iterable[YesNoInstance],
    predictions: Sequence[Prediction],
    task: str,
) -> EvalReport:
    """Score predictions against gold instances aligned by id.

    Extractive reports EM and F1 as percentages, the means of
    `exact_match` and `token_f1` over the pairs; yes/no reports accuracy as
    a fraction in [0, 1]. Gold ids must be unique, and every gold id needs
    exactly one prediction. The golds are taken in one pass, which keeps
    only each id with its normalized answer or its label, so they may come
    straight from a reader's generator; the sums run in gold id order.
    Errors of the golds' own iterable pass through; every other raises a
    ScoringError.
    """
    if task not in ("extractive", "yesno"):
        raise ScoringError(f"unknown task {task!r}; expected 'extractive' or 'yesno'")
    if task == "extractive":
        keyed = [(g.id, normalize_answer(g.answer_text)) for g in golds]
    else:
        keyed = [(g.id, g.label) for g in golds]
    if not keyed:
        raise ScoringError("no gold instances")
    keyed.sort(key=itemgetter(0))
    repeated = sorted({a for (a, _), (b, _) in pairwise(keyed) if a == b})
    if repeated:
        raise ScoringError(f"duplicate gold ids: {repeated}")
    by_id = {p.id: p for p in predictions}
    if len(by_id) != len(predictions):
        raise ScoringError("duplicate prediction ids")
    n = len(keyed)
    if len(by_id) != n or not all(gold_id in by_id for gold_id, _ in keyed):
        gold_ids = {gold_id for gold_id, _ in keyed}
        missing = sorted(gold_ids - by_id.keys())
        extra = sorted(by_id.keys() - gold_ids)
        raise ScoringError(
            f"prediction ids do not align with gold ids: missing={missing} extra={extra}"
        )

    if task == "extractive":
        em_total = 0.0
        f1_total = 0.0
        for gold_id, gold_normalized in keyed:
            pred = by_id[gold_id]
            if pred.predicted_text is None:
                raise ScoringError(f"{gold_id}: prediction has no predicted_text")
            # each prediction normalized once
            normalized = normalize_answer(pred.predicted_text)
            em_total += int(normalized == gold_normalized)
            f1_total += _f1(normalized.split(), gold_normalized.split())
        return EvalReport(n=n, exact_match=100.0 * em_total / n, f1=100.0 * f1_total / n)

    correct = 0
    for gold_id, label in keyed:
        pred = by_id[gold_id]
        if pred.predicted_label is None:
            raise ScoringError(f"{gold_id}: prediction has no predicted_label")
        correct += int(pred.predicted_label == label)
    return EvalReport(n=n, accuracy=correct / n)
