import json

import pytest

from medqakit import (
    DatasetSubsetId,
    Provenance,
    QAPair,
    Schedule,
    SplitSpec,
    StageSpec,
    TransformKind,
    TransformTarget,
    ValidationError,
    YesNoInstance,
    builtin_schedules,
    default_lemma_lexicon,
    default_morpheme_lexicon,
    emit_schedule,
    make_folds,
    make_target_split,
)
from medqakit import formats
from medqakit import spool as spool_module
from medqakit.schedule import DEFAULT_HOLDOUT_FRACTIONS, YESNO_SUBSETS, get_schedule, read_datasets

from tests.conftest import tree_sha256

EXPECTED_STAGE_ORDERS = {
    "1": ["d1"],
    "2": ["d2", "d1"],
    "3": ["d2", "d1", "d3"],
    "4": ["d2", "d1", "d3", "d4"],
    "baseline": ["pqa_a", "pqa_l"],
    **{sid: ["pqa_a", "pqa_l"] for sid in
       ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")},
}

EXPECTED_CHAINS = {
    "baseline": None,
    "I": [("replacement", "lemma")],
    "II": [("concatenation", "lemma")],
    "III": [("augmentation", "lemma")],
    "IV": [("replacement", "neo_form")],
    "V": [("concatenation", "neo_form")],
    "VI": [("augmentation", "neo_form")],
    "VII": [("replacement", "neo_meaning")],
    "VIII": [("concatenation", "neo_meaning")],
    "IX": [("augmentation", "neo_meaning")],
    "X": [("concatenation", "lemma"), ("replacement", "neo_form")],
    "XI": [("replacement", "neo_form"), ("replacement", "neo_meaning")],
    "XII": [
        ("concatenation", "lemma"),
        ("replacement", "neo_form"),
        ("replacement", "neo_meaning"),
    ],
}


class TestBuiltinSchedules:
    def test_seventeen_schedules(self):
        schedules = builtin_schedules()
        assert len(schedules) == 17
        assert [s.schedule_id for s in schedules] == list(EXPECTED_STAGE_ORDERS)

    @pytest.mark.parametrize("schedule_id,subsets", sorted(EXPECTED_STAGE_ORDERS.items()))
    def test_stage_orders(self, schedule_id, subsets):
        schedule = get_schedule(schedule_id)
        assert [stage.subset.value for stage in schedule.stages] == subsets
        assert [stage.stage_index for stage in schedule.stages] == list(
            range(1, len(subsets) + 1)
        )

    @pytest.mark.parametrize("schedule_id,chain", sorted(EXPECTED_CHAINS.items()))
    def test_transform_chains(self, schedule_id, chain):
        schedule = get_schedule(schedule_id)
        for stage in schedule.stages:
            if chain is None:
                assert stage.chain is None
            else:
                assert [(s.kind.value, s.target.value) for s in stage.chain.specs] == chain

    def test_extractive_schedules_have_no_chains(self):
        for schedule_id in ("1", "2", "3", "4"):
            assert all(stage.chain is None for stage in get_schedule(schedule_id).stages)

    def test_stage_indices_validated(self):
        with pytest.raises(ValidationError):
            Schedule(
                schedule_id="bad",
                stages=(
                    StageSpec(stage_index=2, subset=DatasetSubsetId.D1),
                    StageSpec(stage_index=1, subset=DatasetSubsetId.D2),
                ),
            )

    @pytest.mark.parametrize("subset", ["d1", "d2", "d3", "d4"])
    def test_chain_on_extractive_stage_rejected(self, subset):
        chain = get_schedule("III").stages[0].chain
        with pytest.raises(ValidationError, match="yes/no subsets only"):
            StageSpec(stage_index=1, subset=DatasetSubsetId(subset), chain=chain)


def ids(prefix, n):
    return [f"{prefix}{i:04d}" for i in range(n)]


def train_ids(split, subset, all_ids):
    """The ids of a subset that the split leaves for training."""
    return set(all_ids) - set(split.test_by_subset[subset])


class TestMakeTargetSplit:
    def test_ten_percent_of_thousand(self):
        split = make_target_split({DatasetSubsetId.D1: ids("a", 1000)}, SplitSpec(seed=13))
        assert len(split.test_by_subset[DatasetSubsetId.D1]) == 100
        assert len(train_ids(split, DatasetSubsetId.D1, ids("a", 1000))) == 900

    def test_d2_contributes_nothing(self):
        split = make_target_split(
            {DatasetSubsetId.D1: ids("a", 100), DatasetSubsetId.D2: ids("b", 100)},
            SplitSpec(seed=13),
        )
        assert split.test_by_subset[DatasetSubsetId.D2] == ()
        assert len(train_ids(split, DatasetSubsetId.D2, ids("b", 100))) == 100

    def test_same_seed_identical(self):
        datasets = {DatasetSubsetId.D1: ids("a", 200), DatasetSubsetId.D3: ids("c", 60)}
        first = make_target_split(datasets, SplitSpec(seed=42))
        second = make_target_split(datasets, SplitSpec(seed=42))
        assert first == second

    def test_different_seed_differs(self):
        datasets = {DatasetSubsetId.D1: ids("a", 200)}
        assert make_target_split(datasets, SplitSpec(seed=1)) != make_target_split(
            datasets, SplitSpec(seed=2)
        )

    def test_train_test_disjoint_and_complete(self):
        datasets = {DatasetSubsetId.D1: ids("a", 137), DatasetSubsetId.D4: ids("d", 83)}
        split = make_target_split(datasets, SplitSpec(seed=7))
        for subset, all_ids in datasets.items():
            train = train_ids(split, subset, all_ids)
            test = set(split.test_by_subset[subset])
            assert train & test == set()
            assert train | test == set(all_ids)

    def test_small_subset_holds_out_at_least_one(self):
        split = make_target_split({DatasetSubsetId.D3: ids("c", 4)}, SplitSpec(seed=5))
        assert len(split.test_by_subset[DatasetSubsetId.D3]) == 1

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            make_target_split({DatasetSubsetId.D1: []}, SplitSpec(seed=1))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_target_split({DatasetSubsetId.D1: ["x", "x"]}, SplitSpec(seed=1))

    def test_fraction_bounds_validated(self):
        with pytest.raises(ValidationError):
            SplitSpec(seed=1, fractions={DatasetSubsetId.D1: 1.5})


class TestMakeFolds:
    def test_canonical_protocol(self):
        folds = make_folds(ids("l", 1000), seed=13)
        assert len(folds.pool) == 500
        assert len(folds.reserved_test) == 500
        assert len(folds.folds) == 10
        assert all(len(f) == 50 for f in folds.folds)
        assert folds.train_size == 450
        assert len(folds.train_ids(0)) == 450

    def test_folds_partition_the_pool(self):
        folds = make_folds(ids("l", 1000), seed=13)
        seen: set[str] = set()
        for fold in folds.folds:
            assert seen.isdisjoint(fold)
            seen.update(fold)
        assert seen == set(folds.pool)

    def test_pool_and_reserved_disjoint(self):
        folds = make_folds(ids("l", 1000), seed=13)
        assert set(folds.pool).isdisjoint(folds.reserved_test)
        assert set(folds.pool) | set(folds.reserved_test) == set(ids("l", 1000))

    def test_same_seed_identical(self):
        assert make_folds(ids("l", 1000), seed=9) == make_folds(ids("l", 1000), seed=9)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_folds(["x"] * 30, seed=1)

    def test_smaller_input_scales(self):
        folds = make_folds(ids("l", 100), seed=3)
        assert len(folds.pool) == 50
        assert sum(len(f) for f in folds.folds) == 50
        assert len(folds.reserved_test) == 50


def make_pairs(subset, n):
    pairs = []
    for i in range(n):
        context = f"Sentence number {i} about outcomes. Another line of text."
        pairs.append(
            QAPair(
                id=f"{subset.value}-{i:04d}",
                question=f"Does item {i} improve outcomes?",
                context=context,
                answer_text=f"Sentence number {i} about outcomes.",
                answer_start=0,
                subset=subset,
                provenance=Provenance.BM25_WEAK,
            )
        )
    return pairs


def make_yesno(subset, n):
    return [
        YesNoInstance(
            id=f"{subset.value}-{i:04d}",
            question="Do outcomes with dacryoadenitis improve?",
            context="Patients improved. Some symptoms persisted.",
            label="yes" if i % 2 else "no",
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def materialized():
    return {
        DatasetSubsetId.D1: make_pairs(DatasetSubsetId.D1, 40),
        DatasetSubsetId.D2: make_pairs(DatasetSubsetId.D2, 50),
        DatasetSubsetId.D3: make_pairs(DatasetSubsetId.D3, 20),
        DatasetSubsetId.D4: make_pairs(DatasetSubsetId.D4, 30),
        DatasetSubsetId.PQA_L: make_yesno(DatasetSubsetId.PQA_L, 40),
        DatasetSubsetId.PQA_A: make_yesno(DatasetSubsetId.PQA_A, 60),
    }


class TestEmitSchedule:
    def _emit_all(self, schedule_ids, materialized, out_dir, folds=None):
        split = make_target_split(
            {s: [i.id for i in materialized[s]] for s in
             (DatasetSubsetId.D1, DatasetSubsetId.D3, DatasetSubsetId.D4)},
            SplitSpec(seed=13),
        )
        manifests = emit_schedule(
            [get_schedule(sid) for sid in schedule_ids],
            materialized,
            split,
            out_dir,
            folds=folds,
            lems=default_lemma_lexicon(),
            morphs=default_morpheme_lexicon(),
            provenance={"seed": 13},
        )
        for manifest_path, stages in manifests:
            assert json.loads(manifest_path.read_text())["stages"] == stages
        return manifests, split

    def _emit(self, schedule_id, materialized, out_dir, folds=None):
        """Emit one schedule into out_dir/schedule_id."""
        [(manifest_path, _stages)], split = self._emit_all(
            [schedule_id], materialized, out_dir, folds
        )
        return manifest_path, split

    def test_schedule_4_stage_files_disjoint_from_test_pool(self, materialized, tmp_path):
        manifest_path, split = self._emit("4", materialized, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert [s["subset"] for s in manifest["stages"]] == ["d2", "d1", "d3", "d4"]
        test_ids = split.test_ids
        for stage in manifest["stages"]:
            data = json.loads((tmp_path / "4" / stage["dataset_path"]).read_text())
            stage_ids = {
                qa["id"]
                for article in data["data"]
                for para in article["paragraphs"]
                for qa in para["qas"]
            }
            assert stage_ids.isdisjoint(test_ids)
            assert len(stage_ids) == stage["n_instances"]

    def test_baseline_untransformed(self, materialized, tmp_path):
        manifest_path, _ = self._emit("baseline", materialized, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert [s["transform_chain"] for s in manifest["stages"]] == [None, None]
        stage2 = (tmp_path / "baseline" / manifest["stages"][1]["dataset_path"]).read_text()
        assert "Patients improved." in stage2

    def test_augmentation_schedule_appends_copies(self, materialized, tmp_path):
        manifest_path, _ = self._emit("III", materialized, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        stage2 = manifest["stages"][1]
        lines = (tmp_path / "III" / stage2["dataset_path"]).read_text().splitlines()
        assert any("#aug1" in line for line in lines)
        base = [json.loads(l)["id"] for l in lines if "#aug" not in json.loads(l)["id"]]
        assert stage2["n_instances"] == len(lines)
        assert len(lines) > len(base)

    def test_fold_pool_restricts_pqa_l_stage(self, materialized, tmp_path):
        fold_ids = [i.id for i in materialized[DatasetSubsetId.PQA_L]]
        folds = make_folds(fold_ids, seed=13)
        manifest_path, split = self._emit("baseline", materialized, tmp_path, folds=folds)
        manifest = json.loads(manifest_path.read_text())
        stage_path = tmp_path / "baseline" / manifest["stages"][1]["dataset_path"]
        lines = stage_path.read_text().splitlines()
        stage_ids = {json.loads(line)["id"] for line in lines}
        assert stage_ids.issubset(set(folds.pool))
        assert stage_ids.isdisjoint(folds.reserved_test)
        assert manifest["folds"]["n_folds"] == 10

    def test_missing_dataset_names_subset(self, materialized, tmp_path):
        datasets = dict(materialized)
        del datasets[DatasetSubsetId.D3]
        with pytest.raises(ValidationError, match="d3"):
            emit_schedule([get_schedule("1"), get_schedule("3")], datasets, None, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_rerun_is_byte_identical(self, materialized, tmp_path):
        first, _ = self._emit("XII", materialized, tmp_path)
        hashes_before = tree_sha256(tmp_path / "XII")
        second, _ = self._emit("XII", materialized, tmp_path)
        hashes_after = tree_sha256(tmp_path / "XII")
        assert hashes_before == hashes_after

    def test_shared_stages_rendered_once_with_equal_bytes(
        self, materialized, tmp_path, monkeypatch
    ):
        schedule_ids = ("1", "2", "3", "4", "baseline")
        for sid in schedule_ids:
            self._emit(sid, materialized, tmp_path / "alone")
        rendered = []
        write = formats.write_squad_articles
        monkeypatch.setattr(
            formats, "write_squad_articles", lambda path, *a: rendered.append(path) or write(path, *a)
        )
        self._emit_all(schedule_ids, materialized, tmp_path / "shared")
        assert [p.name for p in rendered] == [
            "stage1_d1.json", "stage1_d2.json", "stage3_d3.json", "stage4_d4.json"
        ]

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        alone, shared = tree(tmp_path / "alone"), tree(tmp_path / "shared")
        assert len(shared) == 10 + 2 + len(schedule_ids)
        assert shared == alone


class OneShot:
    """A dataset that may be iterated once; a second pass raises."""

    def __init__(self, items):
        self.items = items
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        if self.passes > 1:
            raise AssertionError("dataset iterated twice")
        return iter(self.items)


def run_inputs(all_datasets, schedule_ids):
    """The datasets, split and folds `medqakit schedule` builds for these
    schedules: only their subsets are loaded, the split holds out the default
    fractions of the loaded ones, and the folds come from pqa_l."""
    subsets = {stage.subset for sid in schedule_ids for stage in get_schedule(sid).stages}
    datasets = {s: all_datasets[s] for s in subsets}
    held = {
        s: [i.id for i in data] for s, data in datasets.items() if s in DEFAULT_HOLDOUT_FRACTIONS
    }
    split = make_target_split(held, SplitSpec(seed=13)) if held else None
    folds = None
    if DatasetSubsetId.PQA_L in datasets:
        folds = make_folds([i.id for i in datasets[DatasetSubsetId.PQA_L]], seed=13)
    return datasets, split, folds


def emit_tree(schedule_ids, datasets, split, folds, out_dir):
    emit_schedule(
        [get_schedule(sid) for sid in schedule_ids],
        datasets,
        split,
        out_dir,
        folds=folds,
        lems=default_lemma_lexicon(),
        morphs=default_morpheme_lexicon(),
        provenance={"seed": 13},
    )
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}


def test_one_plan_reads_each_dataset_once_and_matches_each_schedule_alone(tmp_path):
    """All 17 schedules from one-pass datasets write the tree list inputs
    write. Each schedule emitted alone writes the same stage bytes, except
    the pqa_l stage: with d1 loaded, its test ids, which here are pqa_l ids,
    are dropped from it (ROADMAP item 1), so exactly those inside the CV
    pool are missing from it in the all-17 tree."""
    all_ids = [s.schedule_id for s in builtin_schedules()]
    lists = {
        DatasetSubsetId.D1: make_pairs(DatasetSubsetId.D1, 100),
        DatasetSubsetId.D2: make_pairs(DatasetSubsetId.D2, 50),
        DatasetSubsetId.D3: make_pairs(DatasetSubsetId.D3, 20),
        DatasetSubsetId.D4: make_pairs(DatasetSubsetId.D4, 30),
        # d1 is labeled from pqa_l, so the two share ids
        DatasetSubsetId.PQA_L: make_yesno(DatasetSubsetId.D1, 100),
        DatasetSubsetId.PQA_A: make_yesno(DatasetSubsetId.PQA_A, 600),
    }
    datasets, split, folds = run_inputs(lists, all_ids)
    together = emit_tree(all_ids, datasets, split, folds, tmp_path / "lists")
    once = {s: OneShot(data) for s, data in datasets.items()}
    assert emit_tree(all_ids, once, split, folds, tmp_path / "once") == together
    assert {s: d.passes for s, d in once.items()} == dict.fromkeys(datasets, 1)

    missing = set(split.test_by_subset[DatasetSubsetId.D1]) & set(folds.pool)
    assert missing
    for sid in all_ids:
        alone = emit_tree([sid], *run_inputs(lists, [sid]), tmp_path / "alone" / sid)
        stages = {name: data for name, data in alone.items() if "/stage" in name}
        assert stages
        for name, data in stages.items():
            if name.endswith("_pqa_l.jsonl"):
                lines = data.decode().splitlines(keepends=True)
                kept = [l for l in lines if json.loads(l)["id"].split("#")[0] not in missing]
                assert len(kept) < len(lines)
                data = "".join(kept).encode()
            assert together[name] == data, name


def write_inputs(root, lists):
    """Each dataset written to a file of its format; returns `path_of`."""
    paths = {}
    for subset, data in lists.items():
        if subset in YESNO_SUBSETS:
            paths[subset] = root / f"{subset.value}.jsonl"
            formats.write_yesno(paths[subset], data)
        else:
            paths[subset] = root / f"{subset.value}.json"
            formats.write_squad(paths[subset], data)
    return paths.__getitem__


FRACTIONS = [
    DEFAULT_HOLDOUT_FRACTIONS,
    {DatasetSubsetId.D2: 0.2, DatasetSubsetId.PQA_A: 0.25, DatasetSubsetId.PQA_L: 0.1},
    {},
]


@pytest.mark.parametrize("fractions", FRACTIONS, ids=["default", "d2-pqa", "none"])
@pytest.mark.parametrize("schedule_ids", [["1"], ["4", "baseline"], ["II"], ["2", "XII"]])
def test_read_datasets_draws_the_split_and_folds_of_the_ids_it_reads(
    materialized, tmp_path, fractions, schedule_ids
):
    subsets = {stage.subset for sid in schedule_ids for stage in get_schedule(sid).stages}
    path_of = write_inputs(tmp_path, materialized)
    with read_datasets(subsets, path_of, 13, fractions, tmp_path) as (datasets, split, folds):
        assert set(datasets) == subsets
    held = {s: [i.id for i in materialized[s]] for s in subsets if s in fractions}
    assert split == (make_target_split(held, SplitSpec(13, fractions)) if held else None)
    pqa_l = [i.id for i in materialized[DatasetSubsetId.PQA_L]]
    assert folds == (make_folds(pqa_l, 13) if DatasetSubsetId.PQA_L in subsets else None)


@pytest.fixture()
def spools(monkeypatch):
    """Every spool made from here on."""
    made = []

    class Recorded(spool_module.Spool):
        def __init__(self, directory):
            super().__init__(directory)
            made.append(self)

    monkeypatch.setattr(spool_module, "Spool", Recorded)
    return made


@pytest.mark.parametrize("fault", [None, "truncated d4", "truncated pqa_l", "repeated d3 id"])
def test_read_datasets_closes_its_spools(materialized, tmp_path, spools, fault):
    lists = dict(materialized)
    if fault == "repeated d3 id":
        lists[DatasetSubsetId.D3] = [*lists[DatasetSubsetId.D3], lists[DatasetSubsetId.D3][0]]
    path_of = write_inputs(tmp_path, lists)
    if fault and fault.startswith("truncated"):
        path = path_of(DatasetSubsetId(fault.split()[1]))
        path.write_bytes(path.read_bytes()[:-20])
    subsets = set(lists)
    if fault is None:
        with read_datasets(subsets, path_of, 13, DEFAULT_HOLDOUT_FRACTIONS, tmp_path) as read:
            assert not any(spool._file.closed for spool in spools)
        assert read[0][DatasetSubsetId.D1] in spools
    else:
        with pytest.raises(ValidationError):
            with read_datasets(subsets, path_of, 13, DEFAULT_HOLDOUT_FRACTIONS, tmp_path):
                raise AssertionError("the block ran")
    # d1, d3 and d4 are spooled (d4 in part, when it is the fault)
    assert len(spools) == 3
    assert all(spool._file.closed for spool in spools)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        path_of(s).name for s in subsets
    )
