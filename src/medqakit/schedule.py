"""Staged fine-tuning schedules, seeded splits and folds, and manifest
emission for an external trainer.

The builtin schedules cover the extractive curriculum ("1".."4", broad to
specific then easy to hard), an untransformed yes/no baseline, and the
twelve transformed yes/no schedules ("I".."XII"). Emission writes one
manifest plus one dataset file per stage; test/holdout ids never appear in
any stage's training file.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import formats
from .corpus import DatasetSubsetId, QAPair, YesNoInstance
from .errors import ConfigError, ValidationError
from .morph import (
    LemmaLexicon,
    MorphemeLexicon,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    transform_dataset,
)

log = logging.getLogger(__name__)

YESNO_SUBSETS = (DatasetSubsetId.PQA_A, DatasetSubsetId.PQA_L)


@dataclass(frozen=True)
class StageSpec:
    stage_index: int
    subset: DatasetSubsetId
    chain: TransformChain | None = None

    def __post_init__(self) -> None:
        if self.stage_index < 1:
            raise ValidationError("stage_index starts at 1")
        if self.chain is not None and self.subset not in YESNO_SUBSETS:
            raise ValidationError(
                f"stage {self.stage_index}: transform chains apply to yes/no subsets only, "
                f"not {self.subset.value!r}"
            )


@dataclass(frozen=True)
class Schedule:
    schedule_id: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError(f"schedule {self.schedule_id}: no stages")
        indices = [s.stage_index for s in self.stages]
        if indices != sorted(set(indices)):
            raise ValidationError(f"schedule {self.schedule_id}: stage indices must increase")


_EXTRACTIVE_STAGES: dict[str, tuple[str, ...]] = {
    "1": ("d1",),
    "2": ("d2", "d1"),
    "3": ("d2", "d1", "d3"),
    "4": ("d2", "d1", "d3", "d4"),
}

_R = TransformKind.REPLACEMENT
_C = TransformKind.CONCATENATION
_A = TransformKind.AUGMENTATION
_LEM = TransformTarget.LEMMA
_FORM = TransformTarget.NEO_FORM
_MEAN = TransformTarget.NEO_MEANING

_YESNO_CHAINS: dict[str, tuple[tuple[TransformKind, TransformTarget], ...]] = {
    "I": ((_R, _LEM),),
    "II": ((_C, _LEM),),
    "III": ((_A, _LEM),),
    "IV": ((_R, _FORM),),
    "V": ((_C, _FORM),),
    "VI": ((_A, _FORM),),
    "VII": ((_R, _MEAN),),
    "VIII": ((_C, _MEAN),),
    "IX": ((_A, _MEAN),),
    "X": ((_C, _LEM), (_R, _FORM)),
    "XI": ((_R, _FORM), (_R, _MEAN)),
    "XII": ((_C, _LEM), (_R, _FORM), (_R, _MEAN)),
}


def _build_schedules() -> dict[str, Schedule]:
    schedules = [
        Schedule(sid, tuple(StageSpec(i + 1, DatasetSubsetId(s)) for i, s in enumerate(subsets)))
        for sid, subsets in _EXTRACTIVE_STAGES.items()
    ]
    for sid, pairs in {"baseline": (), **_YESNO_CHAINS}.items():
        chain = TransformChain(tuple(TransformSpec(k, t) for k, t in pairs)) if pairs else None
        stages = tuple(StageSpec(i + 1, s, chain) for i, s in enumerate(YESNO_SUBSETS))
        schedules.append(Schedule(sid, stages))
    return {s.schedule_id: s for s in schedules}


_BY_ID: dict[str, Schedule] = _build_schedules()


def builtin_schedules() -> list[Schedule]:
    """All 17 built-in schedules, in canonical order."""
    return list(_BY_ID.values())


def get_schedule(schedule_id: str) -> Schedule:
    schedule = _BY_ID.get(schedule_id)
    if schedule is None:
        raise ConfigError(f"unknown schedule {schedule_id!r}")
    return schedule


DEFAULT_HOLDOUT_FRACTIONS: dict[DatasetSubsetId, float] = {
    DatasetSubsetId.D1: 0.10,
    DatasetSubsetId.D3: 0.10,
    DatasetSubsetId.D4: 0.10,
}


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    fractions: Mapping[DatasetSubsetId, float] = field(
        default_factory=lambda: dict(DEFAULT_HOLDOUT_FRACTIONS)
    )

    def __post_init__(self) -> None:
        for subset, fraction in self.fractions.items():
            if not 0.0 < fraction < 1.0:
                raise ValidationError(f"holdout fraction for {subset} must be in (0, 1)")


@dataclass(frozen=True)
class TargetSplit:
    """Held-out test ids per subset plus the remaining training ids."""

    seed: int
    train_ids: dict[DatasetSubsetId, tuple[str, ...]]
    test_by_subset: dict[DatasetSubsetId, tuple[str, ...]]

    @property
    def test_ids(self) -> frozenset[str]:
        return frozenset(i for ids in self.test_by_subset.values() for i in ids)


def _derived_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def make_target_split(
    datasets: Mapping[DatasetSubsetId, Sequence[str]], spec: SplitSpec
) -> TargetSplit:
    """Deterministically hold out the configured fraction of each subset.

    Subsets without a configured fraction contribute nothing to the test
    pool. Subsets smaller than 10 still hold out at least one instance,
    with a warning.
    """
    train_ids: dict[DatasetSubsetId, tuple[str, ...]] = {}
    test_by_subset: dict[DatasetSubsetId, tuple[str, ...]] = {}
    for subset in sorted(datasets, key=lambda s: s.value):
        ids = sorted(datasets[subset])
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate ids in subset {subset.value}")
        fraction = spec.fractions.get(subset)
        if fraction is None:
            train_ids[subset] = tuple(ids)
            test_by_subset[subset] = ()
            continue
        if not ids:
            raise ValidationError(f"subset {subset.value} is empty")
        k = int(len(ids) * fraction + 0.5)
        if len(ids) < 10:
            log.warning(
                "subset %s has only %d instances; holding out at least 1", subset.value, len(ids)
            )
            k = max(1, k)
        rng = _derived_rng(spec.seed, f"split:{subset.value}")
        held = sorted(rng.sample(ids, k))
        held_set = set(held)
        train_ids[subset] = tuple(i for i in ids if i not in held_set)
        test_by_subset[subset] = tuple(held)
    return TargetSplit(seed=spec.seed, train_ids=train_ids, test_by_subset=test_by_subset)


@dataclass(frozen=True)
class FoldSpec:
    """Cross-validation layout: a sampled pool split into folds plus a
    reserved test half."""

    n_folds: int
    pool: tuple[str, ...]
    reserved_test: tuple[str, ...]
    folds: tuple[tuple[str, ...], ...]

    def train_ids(self, fold: int) -> tuple[str, ...]:
        held = set(self.folds[fold])
        return tuple(i for i in self.pool if i not in held)

    @property
    def train_size(self) -> int:
        return len(self.pool) - len(self.folds[0])


def make_folds(ids: Sequence[str], seed: int, n_folds: int = 10) -> FoldSpec:
    """Sample half the ids into a CV pool, reserve the rest, cut the pool
    into n_folds validation folds.

    With the canonical 1000 ids this yields a 500-instance pool, 500
    reserved, and 10 folds of 50 (450 training instances per fold). Other
    sizes scale proportionally with a warning.
    """
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate instance ids")
    if len(ids) < 2 * n_folds:
        raise ValidationError(f"need at least {2 * n_folds} ids for {n_folds}-fold CV")
    if len(ids) != 1000:
        log.warning("expected 1000 ids, got %d; scaling the CV layout proportionally", len(ids))
    ids_sorted = sorted(ids)
    pool_size = len(ids_sorted) // 2
    rng = _derived_rng(seed, "cv:pool")
    pool = sorted(rng.sample(ids_sorted, pool_size))
    pool_set = set(pool)
    reserved = tuple(i for i in ids_sorted if i not in pool_set)

    order = list(pool)
    _derived_rng(seed, "cv:folds").shuffle(order)
    base, remainder = divmod(pool_size, n_folds)
    folds = []
    start = 0
    for k in range(n_folds):
        size = base + (1 if k < remainder else 0)
        folds.append(tuple(sorted(order[start : start + size])))
        start += size
    return FoldSpec(
        n_folds=n_folds, pool=tuple(pool), reserved_test=reserved, folds=tuple(folds)
    )


def _chain_json(chain: TransformChain | None) -> list[dict] | None:
    if chain is None:
        return None
    return [{"kind": s.kind.value, "target": s.target.value} for s in chain.specs]


def _stage_filename(stage: StageSpec) -> str:
    extension = "jsonl" if stage.subset in YESNO_SUBSETS else "json"
    return f"stage{stage.stage_index}_{stage.subset.value}.{extension}"


def emit_schedule(
    schedule: Schedule,
    datasets: Mapping[DatasetSubsetId, Iterable[QAPair] | Iterable[YesNoInstance]],
    split: TargetSplit | None,
    out_dir: str | Path,
    *,
    folds: FoldSpec | None = None,
    lems: LemmaLexicon | None = None,
    morphs: MorphemeLexicon | None = None,
    provenance: Mapping[str, object] | None = None,
    emitted: dict[tuple[DatasetSubsetId, TransformChain | None], tuple[Path, int]] | None = None,
) -> tuple[Path, list[dict]]:
    """Write the schedule manifest and one training file per stage.

    Stage files exclude every id in the target split's test pool; when folds
    are given, the human-labelled yes/no stage is restricted to the CV pool
    so the reserved test half never leaks into training. Returns the
    manifest path and the manifest's stage rows.

    Each stage's instances pass through one filter straight into its
    writer, so a dataset may be a one-pass iterable (a reader's generator)
    when it feeds one distinct (subset, chain) stage.

    `emitted` maps each (subset, chain) whose stage file was already written
    to that file and its instance count. A stage found there is copied from
    the file instead of being filtered, transformed and rendered again; each
    stage written here is added. Share one mapping only between calls with
    the same datasets, split, folds, lexicons and provenance.
    """
    out_dir = Path(out_dir)
    test_ids = split.test_ids if split is not None else frozenset()
    if emitted is None:
        emitted = {}
    stages_json = []
    for stage in schedule.stages:
        data = datasets.get(stage.subset)
        if data is None:
            raise ValidationError(
                f"schedule {schedule.schedule_id}: dataset for subset "
                f"{stage.subset.value!r} is not materialized"
            )
        filename = _stage_filename(stage)
        path = out_dir / filename
        key = (stage.subset, stage.chain)
        if key in emitted:
            source, n_instances = emitted[key]
            formats.copy_file_atomic(path, source)
        else:
            pool = None
            if folds is not None and stage.subset is DatasetSubsetId.PQA_L:
                pool = set(folds.pool)
            instances = (
                i for i in data if i.id not in test_ids and (pool is None or i.id in pool)
            )
            if stage.chain is not None:
                instances = transform_dataset(instances, stage.chain, lems, morphs)
            if stage.subset in YESNO_SUBSETS:
                n_instances = formats.write_yesno(path, instances)
            else:
                n_instances = formats.write_squad(path, instances, provenance)
            emitted[key] = (path, n_instances)
        stages_json.append(
            {
                "stage_index": stage.stage_index,
                "subset": stage.subset.value,
                "transform_chain": _chain_json(stage.chain),
                "dataset_path": filename,
                "n_instances": n_instances,
            }
        )
    manifest: dict[str, object] = {
        "schedule_id": schedule.schedule_id,
        "stages": stages_json,
    }
    if provenance is not None:
        manifest["provenance"] = dict(provenance)
    if split is not None:
        manifest["target_split"] = {
            "seed": split.seed,
            "test_ids": {s.value: list(ids) for s, ids in split.test_by_subset.items() if ids},
        }
    if folds is not None:
        manifest["folds"] = {
            "n_folds": folds.n_folds,
            "train_size": folds.train_size,
            "reserved_test": list(folds.reserved_test),
            "validation_folds": [list(f) for f in folds.folds],
        }
    manifest_path = out_dir / "manifest.json"
    formats.write_json_atomic(manifest_path, manifest)
    return manifest_path, stages_json
