"""Evaluation measures: exact match and token F1 for extractive QA,
accuracy for yes/no QA."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, pairwise
from operator import itemgetter
from typing import Iterable, Sequence

from .corpus import Prediction, QAPair, YesNoInstance, normalize_answer
from .errors import ValidationError


class EvalReport(
    namedtuple("EvalReport", "n exact_match f1 accuracy", defaults=(None, None, None))
):
    """Aggregate scores; EM and F1 are percentages, accuracy is a fraction.

    n is an int; exact_match, f1 and accuracy are float | None.
    """

    __slots__ = ()

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


_NO_PREDICTION = object()


def evaluate(
    golds: Iterable[QAPair] | Iterable[YesNoInstance],
    predictions: Iterable[Prediction],
    task: str,
) -> EvalReport:
    """Score predictions against gold instances aligned by id.

    Extractive reports EM and F1 as percentages, the means of
    `exact_match` and `token_f1` over the pairs; yes/no reports accuracy as
    a fraction in [0, 1]. Gold ids must be unique, and every gold id needs
    exactly one prediction.

    The predictions are indexed as id -> predicted text (or label) and then
    dropped, so a caller that keeps no reference to them frees them here.
    The golds are taken in one pass, each scored as it comes, so they may
    come straight from a reader's generator; only each gold's id and scores
    are kept, and the sums run in gold id order. Errors of the golds' own
    iterable pass through. Every other raises a ScoringError, the first of:
    no gold, repeated gold ids, repeated prediction ids, ids that do not
    align, and the smallest gold id whose prediction lacks the field its
    task scores.
    """
    if task not in ("extractive", "yesno"):
        raise ScoringError(f"unknown task {task!r}; expected 'extractive' or 'yesno'")
    extractive = task == "extractive"
    predicted: dict[str, str | None] = {}
    n_predictions = 0
    for p in predictions:
        predicted[p.id] = p.predicted_text if extractive else p.predicted_label
        n_predictions += 1
    del predictions
    repeated_predictions = len(predicted) != n_predictions

    scores: list[tuple] = []  # (gold id, em, f1) or (gold id, correct)
    unpredicted: list[str] = []  # gold ids without a prediction
    unscorable: list[str] = []  # gold ids whose prediction lacks the scored field
    for gold in golds:
        value = predicted.pop(gold.id, _NO_PREDICTION)
        if value is _NO_PREDICTION:
            unpredicted.append(gold.id)
        elif value is None:
            unscorable.append(gold.id)
        elif extractive:
            # each text normalized once
            normalized = normalize_answer(value)
            gold_normalized = normalize_answer(gold.answer_text)
            em = int(normalized == gold_normalized)
            scores.append((gold.id, em, _f1(normalized.split(), gold_normalized.split())))
        else:
            scores.append((gold.id, int(value == gold.label)))

    scores.sort(key=itemgetter(0))
    gold_ids = sorted(chain(map(itemgetter(0), scores), unpredicted, unscorable))
    if not gold_ids:
        raise ScoringError("no gold instances")
    repeated = sorted({a for a, b in pairwise(gold_ids) if a == b})
    if repeated:
        raise ScoringError(f"duplicate gold ids: {repeated}")
    if repeated_predictions:
        raise ScoringError("duplicate prediction ids")
    # with unique ids, what is left of `predicted` is the extra predictions
    if unpredicted or predicted:
        raise ScoringError(
            "prediction ids do not align with gold ids: "
            f"missing={sorted(unpredicted)} extra={sorted(predicted)}"
        )
    if unscorable:
        field = "predicted_text" if extractive else "predicted_label"
        raise ScoringError(f"{min(unscorable)}: prediction has no {field}")

    n = len(scores)
    if extractive:
        em_total = 0.0
        f1_total = 0.0
        for _id, em, f1 in scores:
            em_total += em
            f1_total += f1
        return EvalReport(n=n, exact_match=100.0 * em_total / n, f1=100.0 * f1_total / n)
    return EvalReport(n=n, accuracy=sum(correct for _id, correct in scores) / n)
