"""Evaluation measures: exact match and token F1 for extractive QA,
accuracy for yes/no QA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import QAPair, YesNoInstance, normalize_answer
from .errors import ValidationError


@dataclass(frozen=True)
class Prediction:
    id: str
    predicted_text: str | None = None
    predicted_label: str | None = None


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


def _check_ids(gold_ids: set[str], pred_ids: set[str]) -> None:
    missing = sorted(gold_ids - pred_ids)
    extra = sorted(pred_ids - gold_ids)
    if missing or extra:
        raise ValidationError(
            f"prediction ids do not align with gold ids: missing={missing} extra={extra}"
        )


def evaluate(
    golds: Iterable[QAPair] | Iterable[YesNoInstance],
    predictions: Sequence[Prediction],
    task: str,
) -> EvalReport:
    """Score predictions against gold instances aligned by id.

    Extractive reports EM and F1 as percentages, the means of
    `exact_match` and `token_f1` over the pairs; yes/no reports accuracy as
    a fraction in [0, 1]. Gold ids must be unique, and every gold id needs
    exactly one prediction.
    """
    if task not in ("extractive", "yesno"):
        raise ValidationError(f"unknown task {task!r}; expected 'extractive' or 'yesno'")
    golds = sorted(golds, key=lambda g: g.id)
    if not golds:
        raise ValidationError("no gold instances")
    gold_ids = {g.id for g in golds}
    if len(gold_ids) != len(golds):
        repeated = sorted({a.id for a, b in zip(golds, golds[1:]) if a.id == b.id})
        raise ValidationError(f"duplicate gold ids: {repeated}")
    by_id = {p.id: p for p in predictions}
    if len(by_id) != len(predictions):
        raise ValidationError("duplicate prediction ids")
    _check_ids(gold_ids, set(by_id))

    if task == "extractive":
        em_total = 0.0
        f1_total = 0.0
        for gold in golds:
            pred = by_id[gold.id]
            if pred.predicted_text is None:
                raise ValidationError(f"{gold.id}: prediction has no predicted_text")
            # each text normalized once; the sums run in gold id order
            normalized = normalize_answer(pred.predicted_text)
            gold_normalized = normalize_answer(gold.answer_text)
            em_total += int(normalized == gold_normalized)
            f1_total += _f1(normalized.split(), gold_normalized.split())
        n = len(golds)
        return EvalReport(n=n, exact_match=100.0 * em_total / n, f1=100.0 * f1_total / n)

    correct = 0
    for gold in golds:
        pred = by_id[gold.id]
        if pred.predicted_label is None:
            raise ValidationError(f"{gold.id}: prediction has no predicted_label")
        correct += int(pred.predicted_label == gold.label)
    return EvalReport(n=len(golds), accuracy=correct / len(golds))
