import random
from collections import Counter
from itertools import pairwise
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit import (
    DatasetSubsetId,
    EvalReport,
    Prediction,
    Provenance,
    QAPair,
    ValidationError,
    YesNoInstance,
    evaluate,
    exact_match,
    normalize_answer,
    token_f1,
)
from medqakit.metrics import ScoringError


class TestExactMatch:
    def test_verbatim(self):
        assert exact_match("the answer", ["the answer"]) == 1

    def test_normalization_forced(self):
        assert exact_match("The answer", ["answer"]) == 1

    def test_mismatch(self):
        assert exact_match("answer one", ["answer two"]) == 0

    def test_any_gold_suffices(self):
        assert exact_match("beta", ["alpha", "beta"]) == 1

    def test_empty_golds_rejected(self):
        with pytest.raises(ValidationError):
            exact_match("x", [])


class TestTokenF1:
    def test_hand_computed_example(self):
        # overlap 2, precision 2/3, recall 1, harmonic mean 0.8
        assert token_f1("tear gland inflammation", ["gland inflammation"]) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_identity(self):
        assert token_f1("exact same text", ["exact same text"]) == 1.0

    def test_disjoint(self):
        assert token_f1("alpha beta", ["gamma delta"]) == 0.0

    def test_max_over_golds(self):
        assert token_f1("alpha beta", ["gamma", "alpha beta"]) == 1.0

    def test_both_empty_after_normalization(self):
        assert token_f1("the", ["a"]) == 1.0

    def test_one_empty_after_normalization(self):
        assert token_f1("the", ["word"]) == 0.0

    def test_multiset_overlap(self):
        # repeated token counts once per occurrence matched
        assert token_f1("x x y", ["x y y"]) == pytest.approx(2 / 3)

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_self_f1_is_one_for_nonempty(self, text):
        if normalize_answer(text):
            assert token_f1(text, [text]) == 1.0

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=300)
    def test_exact_match_implies_unit_f1(self, pred, gold):
        if exact_match(pred, [gold]) == 1:
            assert token_f1(pred, [gold]) == 1.0

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=300)
    def test_normalization_invariance(self, pred, gold):
        assert token_f1(pred, [gold]) == token_f1(normalize_answer(pred), [normalize_answer(gold)])
        assert exact_match(pred, [gold]) == exact_match(
            normalize_answer(pred), [normalize_answer(gold)]
        )


def _gold_pairs():
    pairs = []
    for i, answer in enumerate(["tear gland inflammation", "blood glucose control"]):
        context = f"{answer} appeared in the study."
        pairs.append(
            QAPair(
                id=f"g{i}",
                question="What was observed?",
                context=context,
                answer_text=answer,
                answer_start=0,
                subset=DatasetSubsetId.D1,
                provenance=Provenance.BM25_WEAK,
            )
        )
    return pairs


class TestEvaluate:
    def test_perfect_predictions(self):
        golds = _gold_pairs()
        preds = [Prediction(id=g.id, predicted_text=g.answer_text) for g in golds]
        report = evaluate(golds, preds, "extractive")
        assert report.exact_match == 100.0
        assert report.f1 == 100.0
        assert report.n == 2

    def test_half_exact_mean_f1(self):
        golds = _gold_pairs()
        preds = [
            Prediction(id="g0", predicted_text="tear gland inflammation"),
            Prediction(id="g1", predicted_text="glucose control"),  # P=1, R=2/3 -> F1=0.8
        ]
        report = evaluate(golds, preds, "extractive")
        assert report.exact_match == pytest.approx(50.0)
        assert report.f1 == pytest.approx(90.0)

    def test_yesno_accuracy_scale(self):
        golds = [
            YesNoInstance(id=f"y{i}", question="q?", context="c", label="yes" if i < 66 else "no")
            for i in range(100)
        ]
        preds = [Prediction(id=g.id, predicted_label="yes") for g in golds]
        report = evaluate(golds, preds, "yesno")
        assert report.accuracy == pytest.approx(0.66)
        assert report.exact_match is None and report.f1 is None
        assert 0.0 <= report.accuracy <= 1.0

    def test_missing_prediction_listed(self):
        golds = _gold_pairs()
        with pytest.raises(ValidationError, match="g1"):
            evaluate(golds, [Prediction(id="g0", predicted_text="x")], "extractive")

    def test_extra_prediction_listed(self):
        golds = _gold_pairs()
        preds = [Prediction(id=g.id, predicted_text="x") for g in golds]
        preds.append(Prediction(id="ghost", predicted_text="x"))
        with pytest.raises(ValidationError, match="ghost"):
            evaluate(golds, preds, "extractive")

    def test_prediction_order_irrelevant(self):
        golds = _gold_pairs()
        preds = [Prediction(id=g.id, predicted_text=g.answer_text) for g in golds]
        rng = random.Random(3)
        reports = []
        for _ in range(5):
            rng.shuffle(preds)
            reports.append(evaluate(golds, preds, "extractive"))
        assert len(set(reports)) == 1

    def test_unknown_task(self):
        with pytest.raises(ValidationError, match="task"):
            evaluate(_gold_pairs(), [], "ranking")

    def test_empty_golds_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], [], "extractive")

    def test_report_serialization(self):
        report = EvalReport(n=3, exact_match=66.7, f1=70.0)
        assert report.to_dict() == {"n": 3, "exact_match": 66.7, "f1": 70.0}

    def test_duplicate_gold_ids_rejected(self):
        pair = _gold_pairs()[0]
        with pytest.raises(ValidationError, match=r"duplicate gold ids: \['g0'\]"):
            evaluate([pair, pair], [Prediction(id="g0", predicted_text="x")], "extractive")
        instance = YesNoInstance(id="y", question="q?", context="c", label="yes")
        with pytest.raises(ValidationError, match=r"duplicate gold ids: \['y'\]"):
            evaluate([instance, instance], [Prediction(id="y", predicted_label="yes")], "yesno")


# The metrics as they were before evaluate normalized each text once and
# counted the overlap without Counters: the oracle for both.
def oracle_exact_match(pred, golds):
    normalized = normalize_answer(pred)
    return int(any(normalized == normalize_answer(g) for g in golds))


def oracle_f1(pred_tokens, gold_tokens):
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def oracle_token_f1(pred, golds):
    pred_tokens = normalize_answer(pred).split()
    return max(oracle_f1(pred_tokens, normalize_answer(g).split()) for g in golds)


# Words, articles, case, punctuation and non-ASCII letters (a dotted capital
# I and a final sigma change length or form when lowered).
ANSWER_TEXT = st.lists(
    st.sampled_from(
        ["a", "an", "the", "The", "AN", "x", "X", "gland", "Gland", "é", "É", "ß", "İ", "Σ", "ς",
         "naïve", "co-op", "it's", "(x)", ".", ",", "!", "the.", "an,", "  ", "\t", "\u00a0"]
    ),
    max_size=8,
).map(" ".join)


class TestEvaluateOracle:
    @given(texts=st.lists(st.tuples(ANSWER_TEXT, ANSWER_TEXT), min_size=1, max_size=12),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_extractive_sums_bitwise_equal_oracle(self, texts, order):
        golds = [
            QAPair(
                id=f"g{i:02d}",
                question="Q?",
                context="C " + gold,
                answer_text=gold,
                answer_start=2,
                subset=DatasetSubsetId.D1,
                provenance=Provenance.BM25_WEAK,
            )
            for i, (_, gold) in enumerate(texts)
        ]
        preds = [Prediction(id=g.id, predicted_text=pred) for g, (pred, _) in zip(golds, texts)]
        order.shuffle(golds)
        by_id = {p.id: p.predicted_text for p in preds}
        em_total = f1_total = 0.0
        for gold in sorted(golds, key=lambda g: g.id):
            em_total += oracle_exact_match(by_id[gold.id], [gold.answer_text])
            f1_total += oracle_token_f1(by_id[gold.id], [gold.answer_text])
        report = evaluate(golds, preds, "extractive")
        n = len(golds)
        assert report.exact_match == 100.0 * em_total / n
        assert report.f1 == 100.0 * f1_total / n
        for pred, gold in texts:
            assert exact_match(pred, [gold]) == oracle_exact_match(pred, [gold])
            assert token_f1(pred, [gold, pred]) == oracle_token_f1(pred, [gold, pred])

    @given(labels=st.lists(st.tuples(st.sampled_from(["yes", "no"]),
                                     st.sampled_from(["yes", "no"])), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_yesno_accuracy_equals_oracle(self, labels):
        golds = [YesNoInstance(id=f"y{i}", question="q?", context="c", label=gold)
                 for i, (gold, _) in enumerate(labels)]
        preds = [Prediction(id=f"y{i}", predicted_label=pred) for i, (_, pred) in enumerate(labels)]
        correct = sum(int(pred == gold) for gold, pred in labels)
        assert evaluate(golds, preds, "yesno").accuracy == correct / len(labels)


# evaluate as it was while it held every prediction and each gold's id and
# normalized answer before scoring: the oracle of the streamed evaluate.
def oracle_evaluate(golds, predictions, task):
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
            normalized = normalize_answer(pred.predicted_text)
            em_total += int(normalized == gold_normalized)
            f1_total += oracle_f1(normalized.split(), gold_normalized.split())
        return EvalReport(n=n, exact_match=100.0 * em_total / n, f1=100.0 * f1_total / n)
    correct = 0
    for gold_id, label in keyed:
        pred = by_id[gold_id]
        if pred.predicted_label is None:
            raise ScoringError(f"{gold_id}: prediction has no predicted_label")
        correct += int(pred.predicted_label == label)
    return EvalReport(n=n, accuracy=correct / n)


def outcome(score):
    try:
        return score()
    except ScoringError as exc:
        return type(exc), str(exc)


# A few ids, so that golds and predictions repeat, miss and add ids.
IDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
LABELS = st.sampled_from(["yes", "no"])


@st.composite
def golds_and_predictions(draw):
    task = draw(st.sampled_from(["extractive", "yesno"] * 4 + ["ranking"]))
    ids = draw(st.lists(IDS, max_size=6, unique=True) | st.lists(IDS, max_size=6))
    if task == "yesno":
        golds = [YesNoInstance(id=i, question="q?", context="c", label=draw(LABELS)) for i in ids]
    else:
        golds = []
        for i in ids:
            answer = draw(ANSWER_TEXT.filter(str.strip))
            golds.append(QAPair(id=i, question="Q?", context="C " + answer, answer_text=answer,
                                answer_start=2, subset=DatasetSubsetId.D1,
                                provenance=Provenance.BM25_WEAK))
    # mostly the gold ids, shuffled, with some dropped, repeated or added
    pred_ids = draw(st.permutations(sorted(set(ids))))
    pred_ids = [i for i in pred_ids if draw(st.integers(0, 9))] + draw(st.lists(IDS, max_size=1))
    predictions = [
        Prediction(
            id=i,
            predicted_text=draw(st.sampled_from([None, ""]) | ANSWER_TEXT | ANSWER_TEXT),
            predicted_label=draw(st.none() | LABELS | LABELS),
        )
        for i in pred_ids
    ]
    return golds, predictions, task


class TestStreamedEvaluateOracle:
    @given(case=golds_and_predictions())
    @settings(max_examples=1000, deadline=None)
    def test_same_report_or_same_error(self, case):
        golds, predictions, task = case
        expected = outcome(lambda: oracle_evaluate(golds, predictions, task))
        assert outcome(lambda: evaluate(iter(golds), list(predictions), task)) == expected

    def test_errors_come_in_the_oracle_order(self):
        pair = _gold_pairs()[0]
        cases = [
            # repeated gold ids before repeated prediction ids
            ([pair, pair], [Prediction("g0", "x"), Prediction("g0", "x")], "duplicate gold"),
            # repeated prediction ids before ids that do not align
            ([pair], [Prediction("g0", "x"), Prediction("g0", "x"), Prediction("z", "x")],
             "duplicate prediction"),
            # ids that do not align before a missing text
            ([pair], [Prediction("g0"), Prediction("z", "x")], "do not align"),
            ([pair], [Prediction("g0")], "g0: prediction has no predicted_text"),
        ]
        for golds, predictions, message in cases:
            with pytest.raises(ScoringError, match=message):
                evaluate(iter(golds), predictions, "extractive")
            with pytest.raises(ScoringError, match=message):
                oracle_evaluate(golds, predictions, "extractive")


def gold_of(task, gold_id, draw):
    if task == "yesno":
        return YesNoInstance(id=gold_id, question="q?", context="c", label=draw(LABELS))
    answer = draw(ANSWER_TEXT.filter(str.strip))
    return QAPair(id=gold_id, question="Q?", context="C " + answer, answer_text=answer,
                  answer_start=2, subset=DatasetSubsetId.D1, provenance=Provenance.BM25_WEAK)


def prediction_of(task, pred_id, draw):
    value = draw(LABELS) if task == "yesno" else draw(ANSWER_TEXT)
    other = draw(st.none() | LABELS) if task == "extractive" else draw(st.none() | ANSWER_TEXT)
    if task == "yesno":
        return Prediction(id=pred_id, predicted_text=other, predicted_label=value)
    return Prediction(id=pred_id, predicted_text=value, predicted_label=other)


ARRANGEMENTS = ["gold order", "reversed", "shuffled", "one far ahead", "one far behind"]
FAULTS = ["repeated gold", "repeated prediction before its gold",
          "repeated prediction after its gold", "missing", "extra", "unscorable"]


@st.composite
def streamed_case(draw):
    """Golds in an order that is not their id order, and one prediction per
    gold, arranged against the golds, with up to two faults."""
    task = draw(st.sampled_from(["extractive", "yesno"]))
    numbers = draw(st.lists(st.integers(0, 999), min_size=1, max_size=30, unique=True))
    golds = [gold_of(task, f"q{i}", draw) for i in numbers]  # "q10" sorts before "q9"
    predictions = [prediction_of(task, g.id, draw) for g in golds]
    arrangement = draw(st.sampled_from(ARRANGEMENTS))
    if arrangement == "reversed":
        predictions.reverse()
    elif arrangement == "shuffled":
        predictions = draw(st.permutations(predictions))
    elif arrangement != "gold order" and len(predictions) > 1:
        # moved from one end of the stream to the other
        k = len(predictions) - 1
        i, j = (k, 0) if arrangement == "one far ahead" else (0, k)
        i = draw(st.integers(min(i, k // 2), max(i, k // 2)))
        predictions.insert(j, predictions.pop(i))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(0, len(predictions) - 1)) if predictions else None
        if fault == "repeated gold":
            golds.insert(draw(st.integers(0, len(golds))), draw(st.sampled_from(golds)))
        elif fault.startswith("repeated prediction") and predictions:
            # read before the gold takes the first one, or after it has
            before = fault.endswith("before its gold")
            j = draw(st.integers(0, i) if before else st.integers(i + 1, len(predictions)))
            predictions.insert(j, predictions[i])
        elif fault == "missing" and predictions:
            del predictions[i]
        elif fault == "extra":
            extra = prediction_of(task, f"x{draw(st.integers(0, 9))}", draw)
            predictions.insert(draw(st.integers(0, len(predictions))), extra)
        elif fault == "unscorable" and predictions:
            field = "predicted_label" if task == "yesno" else "predicted_text"
            predictions[i] = predictions[i]._replace(**{field: None})
    return golds, predictions, task


class TestInStepEvaluateOracle:
    @given(case=streamed_case())
    @settings(max_examples=1000, deadline=None)
    def test_one_shot_streams_give_the_oracle_report_or_error(self, case):
        golds, predictions, task = case
        expected = outcome(lambda: oracle_evaluate(golds, predictions, task))
        assert outcome(lambda: evaluate(iter(golds), iter(predictions), task)) == expected

    @given(data=st.data(), task=st.sampled_from(["extractive", "yesno"]))
    @settings(max_examples=50, deadline=None)
    def test_aligned_predictions_are_read_in_step(self, data, task):
        """A gold is taken only once every gold before it has read just its
        own prediction."""
        golds = [gold_of(task, f"q{i}", data.draw) for i in (3, 20, 1, 100)]
        predictions = [Prediction(g.id, "A", "yes") for g in golds]
        read = []

        def stream():
            for p in predictions:
                read.append(p.id)
                yield p

        def golds_in_step():
            for k, gold in enumerate(golds):
                assert read == [g.id for g in golds[:k]]
                yield gold

        report = evaluate(golds_in_step(), stream(), task)
        assert report == oracle_evaluate(golds, predictions, task)
        assert read == [g.id for g in golds]
