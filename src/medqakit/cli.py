"""Command-line front end wiring the pipeline together.

Subcommands: label (weak-label the PQA sources into d1/d2), curate (build
d3/d4 or the manual review queue), schedule (emit staged fine-tuning
manifests), and eval (score prediction files). One JSON config file drives
everything; flags win over the config, and MEDQAKIT_OUTPUT_DIR overrides
the output directory between the two. The effective config is echoed into
the output directory so every artifact is reproducible from disk alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__, formats
from .bm25 import Bm25Params
from .corpus import DatasetSubsetId, parse_iso_date
from .covid import (
    CovidFilterPolicy,
    alias_lookup,
    build_artificial_pairs,
    build_review_candidates,
    build_search_queries,
    check_one_line,
    export_review_queue,
    import_review_queue,
    instantiate_templates,
    load_template_config,
)
from .errors import (
    INTEGER,
    STRINGS,
    ConfigError,
    ContractViolation,
    ValidationError,
    check,
    expected,
)
from .metrics import ScoringError, evaluate
from .morph import (
    default_lemma_lexicon,
    default_morpheme_lexicon,
    load_lemma_lexicon,
    load_morpheme_lexicon,
)
from .schedule import (
    DEFAULT_HOLDOUT_FRACTIONS,
    YESNO_SUBSETS,
    SplitSpec,
    builtin_schedules,
    emit_schedule,
    get_schedule,
    make_folds,
    make_target_split,
)
from .weak_label import PRIME_SUBSET, build_prime_subset

log = logging.getLogger(__name__)

ENV_OUTPUT_DIR = "MEDQAKIT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def _object_of(entry: Callable[[str, Any], Any]):
    """A field check for an object whose values `entry` checks as `where.name`."""

    def checked(where: str, value: Any) -> dict:
        if not isinstance(value, dict):
            raise expected(where, "an object", value)
        return {name: entry(f"{where}.{name}", v) for name, v in value.items()}

    return checked


def _is_path(value: Any) -> bool:
    return isinstance(value, str) and "\0" not in value


def _date(where: str, value: Any) -> str:
    try:
        return parse_iso_date(value).isoformat()
    except ValueError:
        raise expected(where, "an ISO date such as 2019-11-01", value) from None


def _fraction(where: str, value: Any) -> float:
    if where.rpartition(".")[2] not in _SUBSETS:
        raise ConfigError(f"{where}: unknown subset; expected one of {_SUBSETS}")
    fraction = _NUMBER(where, value)
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"{where}: expected a number in (0, 1), got {fraction}")
    return fraction


def _queue_depth(where: str, value: Any) -> int:
    depth = INTEGER(where, value)
    if depth < 0:
        raise ConfigError(f"{where}: expected 0 or more, got {depth}")
    return depth


def _phrases(where: str, value: Any) -> list[str]:
    phrases = STRINGS(where, value)
    check_one_line(where, phrases)
    return phrases


def _path_setting(where: str, value: Any) -> Any:
    lexicon = where.rpartition(".")[2] in ("morpheme_lexicon", "lemma_exceptions")
    return (_LEXICON if lexicon else _FILE)(where, value)


_SUBSETS = [s.value for s in DatasetSubsetId]
_NUMBER = check("a number", lambda v: type(v) in (int, float), float)
_DIRECTORY = check("a path", _is_path, lambda v: str(Path(v)))
_FILE = check("a path or null", lambda v: v is None or _is_path(v))
_LEXICON = check(
    "a path, an array of paths or null",
    lambda v: v is None or _is_path(v) or (isinstance(v, list) and all(map(_is_path, v))),
)


class ConfigField(NamedTuple):
    """A run-config key. Its flag wins over its environment variable, which
    wins over the config file, which wins over the default; `check`, given
    `config KEY` as where, turns the winner into the JSON value echoed to
    config.json."""

    key: str  # dotted: "bm25.k1" is {"bm25": {"k1": ...}} in the file
    check: Callable[[str, Any], Any]
    default: Any
    flag: str | None = None
    env: str | None = None


CONFIG_FIELDS = (
    ConfigField("seed", INTEGER, 13, flag="seed"),
    ConfigField("output_dir", _DIRECTORY, "out", flag="output_dir", env=ENV_OUTPUT_DIR),
    ConfigField("bm25.k1", _NUMBER, Bm25Params().k1, flag="k1"),
    ConfigField("bm25.b", _NUMBER, Bm25Params().b, flag="b"),
    ConfigField("covid_filter.phrases", _phrases, list(CovidFilterPolicy().phrases)),
    ConfigField("covid_filter.cutoff_date", _date, CovidFilterPolicy().cutoff_date.isoformat()),
    ConfigField("curation.queue_depth", _queue_depth, 50),
    ConfigField(
        "split_fractions",
        _object_of(_fraction),
        {s.value: f for s, f in DEFAULT_HOLDOUT_FRACTIONS.items()},
    ),
    ConfigField(
        "schedules", STRINGS, [s.schedule_id for s in builtin_schedules()], flag="schedules"
    ),
    ConfigField("paths", _object_of(_path_setting), {}),
)


class RunConfig:
    """The effective config: one checked JSON value per CONFIG_FIELDS key,
    and the typed settings the commands read from them."""

    def __init__(self, values: dict[str, Any]):
        self.values = values
        self.seed: int = values["seed"]
        self.output_dir = Path(values["output_dir"])
        self.bm25 = Bm25Params(k1=values["bm25.k1"], b=values["bm25.b"])
        self.covid_policy = CovidFilterPolicy(
            phrases=tuple(values["covid_filter.phrases"]),
            cutoff_date=parse_iso_date(values["covid_filter.cutoff_date"]),
        )
        self.queue_depth: int = values["curation.queue_depth"]
        self.split_fractions: dict[str, float] = values["split_fractions"]
        self.schedules: list[str] = values["schedules"]
        self.paths: dict[str, Any] = values["paths"]

    def to_dict(self) -> dict:
        """The nested JSON object echoed to config.json."""
        out: dict[str, Any] = {}
        for key, value in self.values.items():
            group, _, name = key.rpartition(".")
            (out.setdefault(group, {}) if group else out)[name] = value
        return out

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def provenance(self) -> dict:
        return {"config_hash": self.config_hash, "seed": self.seed, "tool_version": __version__}


def _file_value(raw: dict, key: str, default: Any) -> Any:
    group, _, name = key.rpartition(".")
    if group:
        raw = raw.get(group, {})
        if not isinstance(raw, dict):
            raise expected(f"config {group}", "an object", raw)
    return raw.get(name, default)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Resolve every CONFIG_FIELDS key from the flags, environment and config file."""
    raw = formats.read_json(Path(args.config)) if args.config else {}
    values = {}
    for field in CONFIG_FIELDS:
        value = _file_value(raw, field.key, field.default)
        env = os.environ.get(field.env) if field.env else None
        flag = getattr(args, field.flag, None) if field.flag else None
        # flags win; the env var sits between flags and the config file
        value = flag if flag not in (None, "") else env or value
        values[field.key] = field.check(f"config {field.key}", value)
    return RunConfig(values)


def _echo_config(config: RunConfig) -> None:
    formats.write_json_atomic(config.output_dir / "config.json", config.to_dict())


def _write_summary(config: RunConfig, command: str, **counts: Any) -> None:
    summary = {"provenance": config.provenance, **counts}
    formats.write_json_atomic(config.output_dir / f"{command}_summary.json", summary)


def _require_path(config: RunConfig, key: str) -> Path:
    value = config.paths.get(key)
    if not value:
        raise ConfigError(f"config paths.{key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"config paths.{key}: no such file: {path}")
    return path


def cmd_label(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    subsets = args.subsets or [s for s in ("pqa_l", "pqa_a") if config.paths.get(s)]
    if not subsets:
        raise ConfigError("no PQA source paths configured (paths.pqa_l / paths.pqa_a)")
    _echo_config(config)
    written = {}
    for name in subsets:
        subset = DatasetSubsetId(name)
        instances = formats.read_source_instances(_require_path(config, name))
        records, skipped = build_prime_subset(instances, subset, config.bm25)
        pairs = [r.pair for r in records]
        target = PRIME_SUBSET[subset].value
        out_path = config.output_dir / f"{target}.json"
        formats.write_squad(out_path, pairs, config.provenance)
        written[target] = {"emitted": len(pairs), "skipped": skipped, "source": name}
        print(f"{name} -> {out_path}  emitted={len(pairs)} skipped={skipped}")
    _write_summary(config, "label", subsets=written)
    return EXIT_OK


def _template_questions(config: RunConfig):
    """The questions instantiated from the configured (or packaged) template
    file, and its vocabularies; errors name the file."""
    templates_path = config.paths.get("templates")
    with resources.as_file(resources.files("medqakit.data") / "covid_templates.json") as builtin:
        path = Path(templates_path) if templates_path else builtin
        templates, vocabs = load_template_config(path)
        try:
            return instantiate_templates(templates, vocabs), vocabs
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def cmd_curate(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    _echo_config(config)

    if args.mode == "artificial":
        corpus = formats.iter_abstracts(_require_path(config, "covid_corpus"))
        pairs, skipped = build_artificial_pairs(corpus, config.covid_policy, config.bm25)
        out_path = config.output_dir / "d4.json"
        formats.write_squad(out_path, pairs, config.provenance)
        _write_summary(config, "curate_artificial", emitted=len(pairs), skipped=skipped)
        print(f"artificial -> {out_path}  emitted={len(pairs)} skipped={skipped}")
        return EXIT_OK

    if args.mode == "templates-export":
        questions, vocabs = _template_questions(config)
        lookup = alias_lookup(vocabs)
        queries = build_search_queries(questions, config.covid_policy, term_lookup=lookup)
        queries_path = config.output_dir / "search_queries.txt"
        formats.write_text_atomic(queries_path, "\n".join(queries) + "\n")

        corpus = formats.iter_abstracts(_require_path(config, "covid_corpus"))
        candidates = build_review_candidates(
            questions,
            corpus,
            config.covid_policy,
            term_lookup=lookup,
            queue_depth=config.queue_depth,
        )
        queue_path = config.output_dir / "review_queue.tsv"
        export_review_queue(candidates, queue_path)
        rows = sum(len(c.candidate_sentences) for c in candidates)
        counts = {"questions": len(questions), "candidates": len(candidates), "rows": rows}
        _write_summary(config, "curate_export", **counts)
        print(f"templates-export -> {queue_path}  questions={len(questions)} candidates={len(candidates)}")
        return EXIT_OK

    if args.mode == "templates-import":
        review_path = Path(args.review) if args.review else _require_path(config, "review_queue")
        pairs, unreviewed = import_review_queue(review_path)
        out_path = config.output_dir / "d3.json"
        formats.write_squad(out_path, pairs, config.provenance)
        _write_summary(config, "curate_import", emitted=len(pairs), unreviewed=unreviewed)
        print(f"templates-import -> {out_path}  emitted={len(pairs)} unreviewed={len(unreviewed)}")
        return EXIT_OK

    raise ConfigError(f"unknown curate mode {args.mode!r}")


def _load_lexicon(config: RunConfig, key: str, builtin, load):
    setting = config.paths.get(key, "builtin")
    if setting is None:
        raise ConfigError(
            f"requested schedules apply text transformations but lexicon paths.{key} is disabled"
        )
    if setting == "builtin":
        return builtin()
    return load(*([setting] if isinstance(setting, str) else setting))


def cmd_schedule(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    _echo_config(config)
    schedules = [get_schedule(s) for s in config.schedules]

    fractions = {DatasetSubsetId(k): v for k, v in config.split_fractions.items()}
    chains: dict[DatasetSubsetId, set] = {}
    for schedule in schedules:
        for stage in schedule.stages:
            chains.setdefault(stage.subset, set()).add(stage.chain)
    # A subset whose ids the split or the folds need, or that feeds several
    # distinct stages, is read into a list. Any other is decoded from its
    # file while its one stage is written, so each file is decoded once.
    datasets: dict[DatasetSubsetId, Any] = {}
    for subset in sorted(chains, key=lambda s: s.value):
        listed = subset in fractions or subset is DatasetSubsetId.PQA_L or len(chains[subset]) > 1
        if subset in YESNO_SUBSETS:
            path = _require_path(config, subset.value)
            datasets[subset] = (formats.read_yesno if listed else formats.iter_yesno)(path)
            continue
        path = config.output_dir / f"{subset.value}.json"
        if not path.exists():
            raise ValidationError(
                f"subset {subset.value!r} is not materialized (expected {path}); "
                "run 'medqakit label' / 'medqakit curate' first"
            )
        read = formats.read_squad if listed else formats.iter_squad
        datasets[subset] = read(path, subset=subset)

    split_inputs = {s: [i.id for i in data] for s, data in datasets.items() if s in fractions}
    split = None
    if split_inputs:
        split = make_target_split(split_inputs, SplitSpec(seed=config.seed, fractions=fractions))
    folds = None
    if DatasetSubsetId.PQA_L in datasets:
        folds = make_folds([i.id for i in datasets[DatasetSubsetId.PQA_L]], config.seed)

    lems = morphs = None
    if any(stage.chain is not None for s in schedules for stage in s.stages):
        morphs = _load_lexicon(
            config, "morpheme_lexicon", default_morpheme_lexicon, load_morpheme_lexicon
        )
        lems = _load_lexicon(config, "lemma_exceptions", default_lemma_lexicon, load_lemma_lexicon)

    print(f"{'schedule':<10} {'stage':>5} {'subset':<7} {'n':>7}")
    manifest_index = []
    emitted: dict = {}
    for schedule in schedules:
        schedule_dir = config.output_dir / "schedules" / schedule.schedule_id
        manifest_path, stages = emit_schedule(
            schedule,
            datasets,
            split,
            schedule_dir,
            folds=folds,
            lems=lems,
            morphs=morphs,
            provenance=config.provenance,
            emitted=emitted,
        )
        for stage in stages:
            print(
                f"{schedule.schedule_id:<10} {stage['stage_index']:>5} "
                f"{stage['subset']:<7} {stage['n_instances']:>7}"
            )
        manifest_index.append(str(manifest_path.relative_to(config.output_dir)))
    _write_summary(config, "schedule", manifests=manifest_index)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    predictions = formats.read_predictions(Path(args.predictions))
    if args.task == "extractive":
        golds = formats.iter_squad(Path(args.gold), subset=DatasetSubsetId.D1)
    else:
        golds = formats.iter_yesno(Path(args.gold))
    try:
        report = evaluate(golds, predictions, args.task)
    except ScoringError as exc:
        raise ValidationError(f"{args.predictions} against {args.gold}: {exc}") from exc
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        formats.write_text_atomic(Path(args.out), text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medqakit",
        description="Build weakly supervised and curated QA datasets from structured abstracts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run config; flags override its values")
        p.add_argument("--output-dir", help="output directory (overrides config and env)")
        p.add_argument("--seed", type=int, help="random seed recorded in every manifest")
        p.add_argument("--k1", type=float, help="BM25 k1 parameter")
        p.add_argument("--b", type=float, help="BM25 b parameter")

    p_label = subparsers.add_parser("label", help="weak-label PQA sources into d1/d2")
    add_common(p_label)
    p_label.add_argument(
        "--subset",
        dest="subsets",
        action="append",
        choices=["pqa_l", "pqa_a"],
        help="label only this source (repeatable; default: all configured)",
    )
    p_label.set_defaults(func=cmd_label)

    p_curate = subparsers.add_parser("curate", help="curate COVID QA pairs (d3/d4)")
    p_curate.add_argument("mode", choices=["templates-export", "templates-import", "artificial"])
    add_common(p_curate)
    p_curate.add_argument("--review", help="reviewed TSV for templates-import")
    p_curate.set_defaults(func=cmd_curate)

    p_schedule = subparsers.add_parser("schedule", help="emit fine-tuning manifests")
    add_common(p_schedule)
    p_schedule.add_argument(
        "--schedule",
        dest="schedules",
        action="append",
        help="schedule id to emit (repeatable; default: config or all 17)",
    )
    p_schedule.set_defaults(func=cmd_schedule)

    p_eval = subparsers.add_parser("eval", help="score a predictions file")
    p_eval.add_argument("gold", help="gold dataset (SQuAD-style JSON or yes/no JSONL)")
    p_eval.add_argument("predictions", help="predictions JSONL")
    p_eval.add_argument("--task", choices=["extractive", "yesno"], required=True)
    p_eval.add_argument("--out", help="also write the report JSON here")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
