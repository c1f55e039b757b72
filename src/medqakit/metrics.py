"""Evaluation measures: exact match and token F1 for extractive QA,
accuracy for yes/no QA."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, pairwise
from operator import attrgetter, itemgetter
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

    Both are taken in one pass, in step, so both may come straight from a
    reader's generator. Each gold takes its prediction from those read
    ahead of it, or else reads on until its id comes up. Only a prediction
    read before its gold is held, as its id and predicted text (or label),
    and of each gold only its id and scores, so that the sums run in gold
    id order. The predictions after the last gold are read too. A fault of
    either iterable passes through when it is read; every other error is
    raised once the last prediction is read, as a ScoringError, the first
    of: no gold, repeated gold ids, repeated prediction ids, ids that do
    not align, and the smallest gold id whose prediction lacks the field
    its task scores.
    """
    if task not in ("extractive", "yesno"):
        raise ScoringError(f"unknown task {task!r}; expected 'extractive' or 'yesno'")
    extractive = task == "extractive"
    field = "predicted_text" if extractive else "predicted_label"
    incoming = map(attrgetter("id", field), predictions)
    ahead: dict[str, str | None] = {}  # predictions read before their gold
    repeated_predictions = False

    def read_until(gold_id: object) -> object:
        """The value of gold_id's prediction, read on from the stream; every
        prediction passed on the way goes into `ahead`."""
        nonlocal repeated_predictions
        for pred_id, value in incoming:
            if pred_id == gold_id:
                return value
            repeated_predictions |= pred_id in ahead
            ahead[pred_id] = value
        return _NO_PREDICTION

    scores: list[tuple] = []  # (gold id, em, f1) or (gold id, correct)
    unpredicted: list[str] = []  # gold ids without a prediction
    unscorable: list[str] = []  # gold ids whose prediction lacks the scored field
    for gold in golds:
        value = ahead.pop(gold.id, _NO_PREDICTION)
        if value is _NO_PREDICTION:
            value = read_until(gold.id)
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
    read_until(_NO_PREDICTION)  # no id is that object: the rest goes into `ahead`

    scores.sort(key=itemgetter(0))
    gold_ids = sorted(chain(map(itemgetter(0), scores), unpredicted, unscorable))
    if not gold_ids:
        raise ScoringError("no gold instances")
    repeated = sorted({a for a, b in pairwise(gold_ids) if a == b})
    if repeated:
        raise ScoringError(f"duplicate gold ids: {repeated}")
    # A prediction left in `ahead` under a gold id is a second one: that gold
    # took the first (had it found none, the stream was already at its end).
    if repeated_predictions or not ahead.keys().isdisjoint(gold_ids):
        raise ScoringError("duplicate prediction ids")
    # with unique ids, what is left in `ahead` is the extra predictions
    if unpredicted or ahead:
        raise ScoringError(
            "prediction ids do not align with gold ids: "
            f"missing={sorted(unpredicted)} extra={sorted(ahead)}"
        )
    if unscorable:
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
