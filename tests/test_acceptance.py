"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime where a budget applies."""

import json
import random
import time

import pytest

from medqakit import (
    Bm25Params,
    DatasetSubsetId,
    MorphemeType,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    best_sentence,
    build_prime_subset,
    covid_filter,
    decompose,
    evaluate,
    exact_match,
    extract_conclusion_section,
    make_folds,
    make_target_split,
    meanings_of,
    normalize_answer,
    parse_abstract_record,
    segment_sentences,
    token_f1,
    tokenize,
    weak_label,
)
from medqakit import Prediction, SplitSpec, YesNoInstance
from medqakit.defaults import SCHEDULE_IDS
from medqakit.schedule import get_schedule
from medqakit.weak_label import QUERY_STOPWORDS

from tests.conftest import (
    DIABETES_ANSWER,
    DIABETES_CONTEXT,
    DIABETES_QUESTION,
    OPTOTYPE_LEMMAS_CONCATENATED,
    OPTOTYPE_LEMMAS_REPLACED,
    OPTOTYPE_ORIGINAL,
    artificial_pairs,
    make_corpus_lines,
    tree_sha256,
)
from tests.test_bm25 import bm25_score, brute_force_scores, build_candidates
from tests.test_covid import CONCLUSION_LABEL_TABLE, abstract
from tests.test_cli import run_pipeline, write_config, write_corpus, write_sources
from tests.test_morph import variants
from tests.test_schedule import EXPECTED_CHAINS, EXPECTED_STAGE_ORDERS


def _report(name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget:.0f}s budget"
        print(f"PASS {name} ({elapsed:.2f}s < {budget:.0f}s)")
    else:
        print(f"PASS {name}")


def test_golden_lemma_transforms(lemma_lexicon, morpheme_lexicon):
    started = time.perf_counter()
    def one_spec(kind):
        chain = TransformChain((TransformSpec(kind, TransformTarget.LEMMA),))
        return variants(OPTOTYPE_ORIGINAL, chain, lemma_lexicon, morpheme_lexicon)

    assert one_spec(TransformKind.REPLACEMENT) == [(OPTOTYPE_LEMMAS_REPLACED, False)]
    assert one_spec(TransformKind.CONCATENATION) == [(OPTOTYPE_LEMMAS_CONCATENATED, False)]
    assert one_spec(TransformKind.AUGMENTATION) == [
        (OPTOTYPE_ORIGINAL, False),
        (OPTOTYPE_LEMMAS_REPLACED, True),
    ]
    _report("golden lemma transforms (replacement/concatenation/augmentation)", started, 1.0)


def test_golden_morpheme_decomposition(morpheme_lexicon):
    started = time.perf_counter()
    decomposition = decompose("dacryoadenitis", morpheme_lexicon)
    assert decomposition is not None
    assert [(p.mtype, p.morpheme) for p in decomposition.parts] == [
        (MorphemeType.ROOT, "dacryo"),
        (MorphemeType.ROOT, "aden"),
        (MorphemeType.TERMINAL, "itis"),
    ]
    assert meanings_of(decomposition) == "tear gland inflammation"
    _report("golden morpheme decomposition and meanings", started, 1.0)


def test_bm25_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20201101)
    vocabulary = [f"w{i}" for i in range(30)]
    checked = 0
    for _ in range(1000):
        n_docs = rng.randint(1, 8)
        docs = [
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
            for _ in range(n_docs)
        ]
        query = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 8)))
        params = Bm25Params(
            k1=rng.choice([0.0, 0.6, 1.2, 1.8]), b=rng.choice([0.0, 0.4, 0.75, 1.0])
        )
        candidates = build_candidates(docs)
        oracle = brute_force_scores(
            tokenize(query), [tokenize(d) for d in docs], k1=params.k1, b=params.b
        )
        for i in range(n_docs):
            assert bm25_score(tokenize(query), i, candidates, params) == pytest.approx(
                oracle[i], rel=1e-9, abs=1e-12
            )
        index, score = best_sentence(query, docs, params)
        oracle_index = max(range(n_docs), key=lambda i: (oracle[i], -i))
        assert index == oracle_index
        assert score == pytest.approx(oracle[oracle_index], rel=1e-9, abs=1e-12)
        checked += 1
    assert checked == 1000
    _report("bm25 oracle equivalence over 1000 randomized candidate sets", started, 30.0)


def test_weak_label_worked_example():
    started = time.perf_counter()
    record = weak_label(DIABETES_QUESTION, DIABETES_CONTEXT, pair_id="worked-example")
    assert record.pair.answer_text == DIABETES_ANSWER
    assert record.pair.answer_start == 0
    sentences = [s.text for s in segment_sentences(DIABETES_CONTEXT)]
    query = [t for t in tokenize(DIABETES_QUESTION) if t not in QUERY_STOPWORDS]
    oracle = brute_force_scores(query, [tokenize(s) for s in sentences])
    assert max(range(len(oracle)), key=lambda i: (oracle[i], -i)) == 0
    assert record.bm25_score == pytest.approx(oracle[0], rel=1e-9)
    _report("weak-label worked example selects the identified answer sentence", started)


def test_anchoring_suite_synthetic_corpus():
    started = time.perf_counter()
    lines = make_corpus_lines(500)
    abstracts = [parse_abstract_record(json.loads(line)) for line in lines]

    sources = []
    for a in abstracts:
        conclusion = extract_conclusion_section(a)
        if conclusion is None or not conclusion.text.strip():
            continue
        from medqakit import SourceInstance

        sources.append(
            SourceInstance(id=f"s-{a.pmid}", question=a.title or "Is it?", context=conclusion.text)
        )
    records, _skipped = build_prime_subset(sources, DatasetSubsetId.PQA_L)
    artificial, _ = artificial_pairs(abstracts)

    pairs = [r.pair for r in records] + list(artificial)
    assert len(pairs) >= 500  # every abstract has a conclusion-style section
    for pair in pairs:
        end = pair.answer_start + len(pair.answer_text)
        assert pair.context[pair.answer_start : end] == pair.answer_text
        assert pair.answer_text in [s.text for s in segment_sentences(pair.context)]
    _report(f"anchoring suite: {len(pairs)} pairs from a 500-abstract corpus", started, 10.0)


def test_curation_rule_suite():
    started = time.perf_counter()
    covid_section = [("conclusions", "Evidence of SARS-CoV-2 infection.")]
    assert covid_filter(abstract(pub_date="2019-10-01", sections=covid_section)) is False
    assert covid_filter(abstract(pub_date="2019-11-01", sections=covid_section)) is True
    assert covid_filter(abstract(pub_date="2019-10-31", sections=covid_section)) is False
    for text in ("covid", "COVID", "sars-cov-2", "Novel Coronavirus findings"):
        assert covid_filter(abstract(sections=[("conclusions", text)])) is True
    assert covid_filter(abstract(sections=[("conclusions", "influenza cohort")])) is False

    assert len(CONCLUSION_LABEL_TABLE) == 20
    for label, accepted in CONCLUSION_LABEL_TABLE:
        section = extract_conclusion_section(abstract(sections=[(label, "Body.")]))
        assert (section is not None) == accepted, label
    _report("curation rules: date cutoff, phrase matching, 20-label fixture", started)


def test_schedule_golden_manifests(tmp_path):
    started = time.perf_counter()
    schedules = [get_schedule(s) for s in SCHEDULE_IDS]
    assert [s.schedule_id for s in schedules] == list(EXPECTED_STAGE_ORDERS)
    for schedule in schedules:
        assert [st.subset.value for st in schedule.stages] == EXPECTED_STAGE_ORDERS[
            schedule.schedule_id
        ]
        expected_chain = EXPECTED_CHAINS.get(schedule.schedule_id)
        for stage in schedule.stages:
            if schedule.schedule_id in ("1", "2", "3", "4") or expected_chain is None:
                assert stage.chain is None
            else:
                assert [
                    (s.kind.value, s.target.value) for s in stage.chain.specs
                ] == expected_chain

    fold_ids = [f"l{i:04d}" for i in range(1000)]
    folds = make_folds(fold_ids, seed=13)
    assert len(folds.pool) == 500 and len(folds.reserved_test) == 500
    assert len(folds.folds) == 10
    assert all(len(f) == 50 for f in folds.folds)
    assert all(len(set(folds.pool) - set(fold)) == 450 for fold in folds.folds)

    from tests.test_schedule import make_pairs, make_yesno
    from medqakit import default_lemma_lexicon, default_morpheme_lexicon, emit_schedule

    datasets = {
        DatasetSubsetId.D1: make_pairs(DatasetSubsetId.D1, 60),
        DatasetSubsetId.D2: make_pairs(DatasetSubsetId.D2, 60),
        DatasetSubsetId.D3: make_pairs(DatasetSubsetId.D3, 30),
        DatasetSubsetId.D4: make_pairs(DatasetSubsetId.D4, 30),
        DatasetSubsetId.PQA_L: make_yesno(DatasetSubsetId.PQA_L, 60),
        DatasetSubsetId.PQA_A: make_yesno(DatasetSubsetId.PQA_A, 80),
    }
    split = make_target_split(
        {s: [i.id for i in datasets[s]] for s in
         (DatasetSubsetId.D1, DatasetSubsetId.D3, DatasetSubsetId.D4)},
        SplitSpec(seed=13),
    )
    lems, morphs = default_lemma_lexicon(), default_morpheme_lexicon()
    for schedule in schedules:
        [(manifest_path, _stages)] = emit_schedule(
            [schedule], datasets, split, tmp_path, lems=lems, morphs=morphs
        )
        manifest = json.loads(manifest_path.read_text())
        assert [s["subset"] for s in manifest["stages"]] == EXPECTED_STAGE_ORDERS[
            schedule.schedule_id
        ]
        for stage in manifest["stages"]:
            stage_path = tmp_path / schedule.schedule_id / stage["dataset_path"]
            if stage["subset"] in ("pqa_l", "pqa_a"):
                stage_ids = {
                    json.loads(line)["id"].split("#")[0]
                    for line in stage_path.read_text().splitlines()
                }
            else:
                data = json.loads(stage_path.read_text())
                stage_ids = {
                    qa["id"]
                    for article in data["data"]
                    for para in article["paragraphs"]
                    for qa in para["qas"]
                }
            assert stage_ids.isdisjoint(split.test_ids), (schedule.schedule_id, stage)
    _report("schedule golden manifests: 17 stage orders, T-disjoint stages, CV folds", started)


def test_metric_checks():
    started = time.perf_counter()
    assert token_f1("tear gland inflammation", ["gland inflammation"]) == pytest.approx(
        0.8, abs=1e-12
    )

    rng = random.Random(8)
    alphabet = "abcde THE a An . , !xyz "
    checked = 0
    for _ in range(10_000):
        pred = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.5:
            gold = pred.upper() if rng.random() < 0.5 else f"the {pred}"
        else:
            gold = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if exact_match(pred, [gold]) == 1:
            assert token_f1(pred, [gold]) == 1.0
        checked += 1
    assert checked == 10_000

    golds = [
        YesNoInstance(id=f"y{i}", question="q?", context="c", label="yes" if i < 66 else "no")
        for i in range(100)
    ]
    report = evaluate(golds, [Prediction(id=g.id, predicted_label="yes") for g in golds], "yesno")
    assert report.accuracy == pytest.approx(0.66)
    assert 0.0 <= report.accuracy <= 1.0

    from tests.test_metrics import _gold_pairs

    pairs = _gold_pairs()
    extractive = evaluate(
        pairs, [Prediction(id=p.id, predicted_text=p.answer_text) for p in pairs], "extractive"
    )
    assert extractive.exact_match == 100.0 and extractive.f1 == 100.0
    _report("metric checks: 0.8 F1 golden, EM=>F1 over 10^4 pairs, report scales", started)


def test_cli_determinism(tmp_path):
    started = time.perf_counter()
    write_sources(tmp_path)
    write_corpus(tmp_path)
    config = write_config(tmp_path)
    run_pipeline(tmp_path, config)
    out = tmp_path / "out"
    first = tree_sha256(out)
    run_pipeline(tmp_path, config)
    second = tree_sha256(out)
    assert first == second and len(first) > 20
    _report(f"cli determinism: {len(first)} output files byte-identical across reruns", started)
