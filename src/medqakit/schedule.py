"""Staged fine-tuning schedules, seeded splits and folds, and manifest
emission for an external trainer.

The builtin schedules cover the extractive curriculum ("1".."4", broad to
specific then easy to hard), an untransformed yes/no baseline, and the
twelve transformed yes/no schedules ("I".."XII"). Emission writes one
manifest plus one dataset file per stage; test/holdout ids never appear in
any stage's training file.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import pairwise
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import formats
from .corpus import DatasetSubsetId, QAPair, YesNoInstance
from .defaults import DEFAULT_HOLDOUT_FRACTIONS
from .digest import sha256
from .errors import ConfigError, ValidationError, warn
from .morph import (
    LemmaLexicon,
    MorphemeLexicon,
    TransformChain,
    TransformKind,
    TransformSpec,
    TransformTarget,
    transform_dataset,
)

YESNO_SUBSETS = (DatasetSubsetId.PQA_A, DatasetSubsetId.PQA_L)
# Instances of a yes/no subset written at a time, each batch through every chain.
_TRANSFORM_BATCH = 256

T = TypeVar("T")


class StageSpec(namedtuple("StageSpec", "stage_index subset chain")):
    __slots__ = ()

    def __new__(
        cls, stage_index: int, subset: DatasetSubsetId, chain: TransformChain | None = None
    ):
        if stage_index < 1:
            raise ValidationError("stage_index starts at 1")
        if chain is not None and subset not in YESNO_SUBSETS:
            raise ValidationError(
                f"stage {stage_index}: transform chains apply to yes/no subsets only, "
                f"not {subset.value!r}"
            )
        return tuple.__new__(cls, (stage_index, subset, chain))


class Schedule(namedtuple("Schedule", "schedule_id stages")):
    __slots__ = ()

    def __new__(cls, schedule_id: str, stages: tuple[StageSpec, ...]):
        if not stages:
            raise ValidationError(f"schedule {schedule_id}: no stages")
        indices = [s.stage_index for s in stages]
        if indices != sorted(set(indices)):
            raise ValidationError(f"schedule {schedule_id}: stage indices must increase")
        return tuple.__new__(cls, (schedule_id, stages))


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


def get_schedule(schedule_id: str) -> Schedule:
    schedule = _BY_ID.get(schedule_id)
    if schedule is None:
        raise ConfigError(f"unknown schedule {schedule_id!r}")
    return schedule


class SplitSpec(namedtuple("SplitSpec", "seed fractions")):
    """Held-out fraction per subset; each instance gets its own copy of the
    default fractions."""

    __slots__ = ()

    def __new__(cls, seed: int, fractions: Mapping[DatasetSubsetId, float] | None = None):
        if fractions is None:
            fractions = dict(DEFAULT_HOLDOUT_FRACTIONS)
        for subset, fraction in fractions.items():
            if not 0.0 < fraction < 1.0:
                raise ValidationError(f"holdout fraction for {subset} must be in (0, 1)")
        return tuple.__new__(cls, (seed, fractions))


class TargetSplit(namedtuple("TargetSplit", "seed test_by_subset")):
    """Held-out test ids per subset: seed, an int, and test_by_subset, a
    dict of DatasetSubsetId to tuple[str, ...]."""

    __slots__ = ()

    @property
    def test_ids(self) -> frozenset[str]:
        return frozenset(i for ids in self.test_by_subset.values() for i in ids)


def _derived_rng(seed: int, label: str) -> random.Random:
    digest = sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def make_target_split(
    datasets: Mapping[DatasetSubsetId, Iterable[str]], spec: SplitSpec
) -> TargetSplit:
    """Deterministically hold out the configured fraction of each subset.

    Subsets without a configured fraction contribute nothing to the test
    pool. Subsets smaller than 10 still hold out at least one instance,
    with a warning.
    """
    test_by_subset: dict[DatasetSubsetId, tuple[str, ...]] = {}
    for subset in sorted(datasets, key=lambda s: s.value):
        ids = sorted(datasets[subset])
        # checked on the sorted ids: a set of them would be the split's largest allocation
        if any(a == b for a, b in pairwise(ids)):
            raise ValidationError(f"duplicate ids in subset {subset.value}")
        fraction = spec.fractions.get(subset)
        if fraction is None:
            test_by_subset[subset] = ()
            continue
        if not ids:
            raise ValidationError(f"subset {subset.value} is empty")
        k = int(len(ids) * fraction + 0.5)
        if len(ids) < 10:
            n = len(ids)
            warn(__name__, f"subset {subset.value} has only {n} instances; holding out at least 1")
            k = max(1, k)
        rng = _derived_rng(spec.seed, f"split:{subset.value}")
        test_by_subset[subset] = tuple(sorted(rng.sample(ids, k)))
    return TargetSplit(seed=spec.seed, test_by_subset=test_by_subset)


class FoldSpec(namedtuple("FoldSpec", "n_folds pool reserved_test folds")):
    """Cross-validation layout: a sampled pool split into folds plus a
    reserved test half.

    n_folds is an int; pool and reserved_test are tuple[str, ...], folds a
    tuple of them.
    """

    __slots__ = ()

    @property
    def train_size(self) -> int:
        return len(self.pool) - len(self.folds[0])


def make_folds(ids: Iterable[str], seed: int, n_folds: int = 10) -> FoldSpec:
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
        warn(__name__, f"expected 1000 ids, got {len(ids)}; scaling the CV layout proportionally")
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


def read_datasets(
    subsets: Iterable[DatasetSubsetId],
    path_of: Callable[[DatasetSubsetId], Path],
    seed: int,
    fractions: Mapping[DatasetSubsetId, float],
) -> tuple[dict[DatasetSubsetId, Iterator], TargetSplit | None, FoldSpec | None]:
    """A fresh reader of `path_of(subset)` per subset, for `emit_schedule`,
    the target split of those with a holdout fraction, and the folds of
    `pqa_l` when it is among them.

    Every path is resolved first, in subset order. The split, one subset at
    a time in that order, and then the folds each read their subsets' ids in
    a first pass, which decodes and checks every record of those files
    before any stage is written; no list of ids outlives its draw, and a
    fault of the ids (a repeated one, too few) names the file. The readers
    returned read each file again.
    """

    def reader(subset: DatasetSubsetId) -> Iterator:
        if subset in YESNO_SUBSETS:
            return formats.iter_yesno(paths[subset])
        return formats.iter_squad(paths[subset], subset=subset)

    def draw(subset: DatasetSubsetId, make: Callable[[list[str]], T]) -> T:
        ids = [record.id for record in reader(subset)]  # a reader's fault names the file
        try:
            return make(ids)
        except ValidationError as exc:
            raise type(exc)(f"{paths[subset]}: {exc}") from exc

    paths = {s: path_of(s) for s in sorted(subsets, key=lambda s: s.value)}
    held = [s for s in paths if s in fractions]
    test_by_subset: dict[DatasetSubsetId, tuple[str, ...]] = {}
    for s in held:
        part = draw(s, lambda ids: make_target_split({s: ids}, SplitSpec(seed, fractions)))
        test_by_subset.update(part.test_by_subset)
    split = TargetSplit(seed, test_by_subset) if held else None
    folds = None
    if DatasetSubsetId.PQA_L in paths:
        folds = draw(DatasetSubsetId.PQA_L, lambda ids: make_folds(ids, seed))
    return {s: reader(s) for s in paths}, split, folds


def emit_schedule(
    schedules: Sequence[Schedule],
    datasets: Mapping[DatasetSubsetId, Iterable[QAPair] | Iterable[YesNoInstance]],
    split: TargetSplit | None,
    out_dir: str | Path,
    *,
    folds: FoldSpec | None = None,
    lems: LemmaLexicon | None = None,
    morphs: MorphemeLexicon | None = None,
    provenance: Mapping[str, object] | None = None,
) -> list[tuple[Path, list[dict]]]:
    """Write each schedule's manifest and stage files under
    `out_dir`/SCHEDULE_ID; returns each one's manifest path and stage rows.

    Stage files exclude every id in the target split's test pool; when folds
    are given, the human-labelled yes/no stage is restricted to the CV pool
    so the reserved test half never leaks into training.

    The plan maps each subset, in order of first use, to its distinct chains
    and each chain to its stage paths; a missing dataset raises before any
    file is written. Each dataset is then iterated once (it may be one of
    the readers `read_datasets` gives, whose file is then read for the
    second time when the split or the folds drew its ids): a SQuAD
    subset's pairs outside the test pool into `formats.write_squad`, a
    yes/no subset a batch at a time into one file per chain, all kept or
    all removed. A chain's other paths get hard links to its first file; a
    manifest follows its last stage.
    """
    out_dir = Path(out_dir)
    plan: dict[DatasetSubsetId, dict[TransformChain | None, list[Path]]] = {}
    for schedule in schedules:
        for stage in schedule.stages:
            if stage.subset not in datasets:
                raise ValidationError(
                    f"schedule {schedule.schedule_id}: dataset for subset "
                    f"{stage.subset.value!r} is not materialized"
                )
            paths = plan.setdefault(stage.subset, {}).setdefault(stage.chain, [])
            paths.append(out_dir / schedule.schedule_id / _stage_filename(stage))
    test_ids = split.test_ids if split is not None else frozenset()
    shared: dict[str, object] = {} if provenance is None else {"provenance": dict(provenance)}
    if split is not None:
        held = {s.value: list(ids) for s, ids in split.test_by_subset.items() if ids}
        shared["target_split"] = {"seed": split.seed, "test_ids": held}
    if folds is not None:
        shared["folds"] = {
            "n_folds": folds.n_folds,
            "train_size": folds.train_size,
            "reserved_test": list(folds.reserved_test),
            "validation_folds": [list(f) for f in folds.folds],
        }
    n_instances: dict[tuple[DatasetSubsetId, TransformChain | None], int] = {}
    manifests: dict[int, tuple[Path, list[dict]]] = {}
    for subset, chains in plan.items():
        pool = set(folds.pool) if folds is not None and subset is DatasetSubsetId.PQA_L else None
        firsts = [paths[0] for paths in chains.values()]
        if subset not in YESNO_SUBSETS:
            pairs = (pair for pair in datasets[subset] if pair.id not in test_ids)
            n_instances[subset, None] = formats.write_squad(firsts[0], pairs, provenance)
        else:
            instances = (
                i
                for i in datasets[subset]
                if i.id not in test_ids and (pool is None or i.id in pool)
            )
            n_instances.update(((subset, chain), 0) for chain in chains)
            with formats.atomic_text_files(firsts) as handles:
                for batch in formats.batched(instances, _TRANSFORM_BATCH):
                    for chain, handle in zip(chains, handles):
                        out = transform_dataset(batch, chain, lems, morphs) if chain else batch
                        handle.writelines(formats.yesno_lines(out))
                        n_instances[subset, chain] += len(out)
        for paths in chains.values():
            for path in paths[1:]:
                formats.link_file_atomic(path, paths[0])
        for k, schedule in enumerate(schedules):
            stages = schedule.stages
            if k in manifests or any((s.subset, s.chain) not in n_instances for s in stages):
                continue
            rows = [
                {
                    "stage_index": s.stage_index,
                    "subset": s.subset.value,
                    "transform_chain": _chain_json(s.chain),
                    "dataset_path": _stage_filename(s),
                    "n_instances": n_instances[s.subset, s.chain],
                }
                for s in stages
            ]
            manifest = {"schedule_id": schedule.schedule_id, "stages": rows, **shared}
            manifests[k] = (out_dir / schedule.schedule_id / "manifest.json", rows)
            formats.write_json_atomic(manifests[k][0], manifest)
    return [manifests[k] for k in range(len(schedules))]
