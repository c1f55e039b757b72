"""Staged fine-tuning schedules, seeded splits and folds, and manifest
emission for an external trainer.

The builtin schedules cover the extractive curriculum ("1".."4", broad to
specific then easy to hard), an untransformed yes/no baseline, and the
twelve transformed yes/no schedules ("I".."XII"). Emission writes one
manifest plus one dataset file per stage; test/holdout ids never appear in
any stage's training file.
"""

from __future__ import annotations

import logging
import random
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from . import formats
from .corpus import DatasetSubsetId, QAPair, YesNoInstance
from .defaults import DEFAULT_HOLDOUT_FRACTIONS
from .digest import sha256
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

if TYPE_CHECKING:
    from .spool import Spool

log = logging.getLogger(__name__)

YESNO_SUBSETS = (DatasetSubsetId.PQA_A, DatasetSubsetId.PQA_L)
# Instances of a yes/no subset written at a time, each batch through every chain.
_TRANSFORM_BATCH = 256


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
    """Held-out test ids per subset."""

    seed: int
    test_by_subset: dict[DatasetSubsetId, tuple[str, ...]]

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
            log.warning(
                "subset %s has only %d instances; holding out at least 1", subset.value, len(ids)
            )
            k = max(1, k)
        rng = _derived_rng(spec.seed, f"split:{subset.value}")
        test_by_subset[subset] = tuple(sorted(rng.sample(ids, k)))
    return TargetSplit(seed=spec.seed, test_by_subset=test_by_subset)


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


@contextmanager
def read_datasets(
    subsets: Iterable[DatasetSubsetId],
    path_of: Callable[[DatasetSubsetId], Path],
    seed: int,
    fractions: Mapping[DatasetSubsetId, float],
    spool_dir: str | Path,
) -> Iterator[tuple[dict[DatasetSubsetId, object], TargetSplit | None, FoldSpec | None]]:
    """The datasets `emit_schedule` takes for these subsets, each read from
    `path_of(subset)` in subset order, the target split of those with a
    holdout fraction, and the folds of `pqa_l` when it is among them.

    A listed subset, one whose ids the split or the folds need, is decoded
    and checked here, before the split is drawn and any stage is written:
    a yes/no subset into a list, a SQuAD subset into a spool under
    `spool_dir` (see `spool.spool_squad`), whose ids go straight into the
    split; no list of ids outlives the draw. Every other subset is decoded
    from its file while its stages are written. The spools are closed when
    the block ends.
    """
    listed = {*fractions, DatasetSubsetId.PQA_L}
    datasets: dict[DatasetSubsetId, object] = {}
    with ExitStack() as spools:
        for subset in sorted(subsets, key=lambda s: s.value):
            path = path_of(subset)
            if subset not in listed:
                datasets[subset] = (
                    formats.iter_yesno(path)
                    if subset in YESNO_SUBSETS
                    else formats.iter_squad(path, subset=subset)
                )
            elif subset in YESNO_SUBSETS:
                datasets[subset] = formats.read_yesno(path)
            else:
                from .spool import spool_squad  # here: a run without a spool does not load it

                datasets[subset] = spools.enter_context(spool_squad(path, subset, spool_dir))

        def ids(subset: DatasetSubsetId) -> Iterator[str]:
            data = datasets[subset]
            return (i.id for i in data) if subset in YESNO_SUBSETS else data.ids()

        held = {s: ids(s) for s in datasets if s in fractions}  # generators the split drains
        split = make_target_split(held, SplitSpec(seed, fractions)) if held else None
        folds = None
        if DatasetSubsetId.PQA_L in datasets:
            folds = make_folds(ids(DatasetSubsetId.PQA_L), seed)
        yield datasets, split, folds


def _squad_articles(data: Iterable[QAPair] | Spool) -> Iterable[tuple[str, str]]:
    """Each pair's id and SQuAD article: a spool holds them already encoded."""
    from .spool import Spool  # here, not at import: a yes/no-only run never loads it

    if isinstance(data, Spool):
        return data
    return ((pair.id, formats.squad_article(pair)) for pair in data)


def emit_schedule(
    schedules: Sequence[Schedule],
    datasets: Mapping[DatasetSubsetId, Iterable[QAPair] | Iterable[YesNoInstance] | Spool],
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
    file is written. Each dataset is then iterated once (it may be a
    reader's generator, or a spool of `read_datasets`): a SQuAD subset into
    `write_squad_articles`, a yes/no subset a batch at a time into one file
    per chain, all kept or all removed. A chain's other paths get hard links
    to its first file; a manifest follows its last stage.
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
            articles = (
                article
                for id_, article in _squad_articles(datasets[subset])
                if id_ not in test_ids
            )
            n_instances[subset, None] = formats.write_squad_articles(
                firsts[0], articles, provenance
            )
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
