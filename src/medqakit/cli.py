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
import importlib
import json
import math
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from . import __version__, formats
from .bm25 import Bm25Params
from .corpus import DatasetSubsetId, QAPair, parse_iso_date
from .defaults import (
    COVID_CUTOFF_DATE,
    COVID_PHRASES,
    DEFAULT_HOLDOUT_FRACTIONS,
    SCHEDULE_IDS,
    check_one_line,
)
from .digest import sha256
from .errors import (
    INTEGER,
    STRINGS,
    ConfigError,
    ContractViolation,
    ValidationError,
    check,
    expected,
)

ENV_OUTPUT_DIR = "MEDQAKIT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

# Source records `label` weak-labels per build_prime_subset call.
_LABEL_BATCH = 256

# The functions each command calls as attributes of this module, `_cli.NAME`,
# and their modules. Each is imported on its first lookup, inside the command
# that needs it, so a command loads only the modules it runs, and a wrapper
# bound here before a command runs (a tracer, a test) sees every call.
_COMMAND_FUNCTIONS = {
    "build_prime_subset": "weak_label",
    "build_artificial_pairs": "covid",
    "build_review_candidates": "covid",
    "export_review_queue": "covid",
    "import_review_queue": "covid",
    "default_lemma_lexicon": "morph",
    "default_morpheme_lexicon": "morph",
    "emit_schedule": "schedule",
    "evaluate": "metrics",
}
_cli = sys.modules[__name__]


def __getattr__(name: str) -> Any:
    module = _COMMAND_FUNCTIONS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


def _object_of(entry: Callable[[str, Any], Any]):
    """A field check for an object whose values `entry` checks as `where.name`."""

    def checked(where: str, value: Any) -> dict:
        if not isinstance(value, dict):
            raise expected(where, "an object", value)
        return {name: entry(f"{where}.{name}", v) for name, v in value.items()}

    return checked


def _is_path(value: Any) -> bool:
    return isinstance(value, str) and "\0" not in value


def _path(what: str, ok: Callable[[Any], bool], convert: Callable[[Any], Any] = lambda v: v):
    """`check(what, ok, convert)` that refuses an empty path first: Path("")
    is the working directory, where a user's own file could be overwritten."""
    checked = check(what, ok, convert)

    def nonempty(where: str, value: Any) -> Any:
        if value == "" or (type(value) is list and "" in value):
            raise ConfigError(f"{where}: expected a path, got an empty string")
        return checked(where, value)

    return nonempty


def _number(where: str, value: Any) -> float:
    """A finite float: NaN and the infinities have no JSON form to echo."""
    if type(value) not in (int, float):
        raise expected(where, "a number", value)
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: expected a finite number, got an integer too large") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {number}")
    return number


def _date(where: str, value: Any) -> str:
    try:
        return parse_iso_date(value).isoformat()
    except ValueError:
        raise expected(where, "an ISO date such as 2019-11-01", value) from None


def _fraction(where: str, value: Any) -> float:
    if where.rpartition(".")[2] not in _SUBSETS:
        raise ConfigError(f"{where}: unknown subset; expected one of {_SUBSETS}")
    fraction = _number(where, value)
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
    if not phrases:
        raise ConfigError(f"{where}: expected at least one phrase")
    check_one_line(where, phrases)
    return phrases


def _once_each(where: str, values: list[str]) -> list[str]:
    repeated = next((v for k, v in enumerate(values) if v in values[:k]), None)
    if repeated is not None:
        raise ConfigError(f"{where}: {repeated!r} is listed twice")
    return values


def _schedule_ids(where: str, value: Any) -> list[str]:
    ids = _once_each(where, STRINGS(where, value))
    if not ids:
        raise ConfigError(f"{where}: expected at least one schedule id")
    unknown = next((sid for sid in ids if sid not in SCHEDULE_IDS), None)
    if unknown is not None:
        raise ConfigError(f"{where}: unknown schedule {unknown!r}; expected one of {SCHEDULE_IDS}")
    return ids


def _path_setting(where: str, value: Any) -> Any:
    lexicon = where.rpartition(".")[2] in ("morpheme_lexicon", "lemma_exceptions")
    return (_LEXICON if lexicon else _FILE)(where, value)


_SUBSETS = [s.value for s in DatasetSubsetId]
_DIRECTORY = _path("a path", _is_path, lambda v: str(Path(v)))
_FILE = _path("a path or null", lambda v: v is None or _is_path(v))
_LEXICON = _path(
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
    ConfigField("bm25.k1", _number, Bm25Params().k1, flag="k1"),
    ConfigField("bm25.b", _number, Bm25Params().b, flag="b"),
    ConfigField("covid_filter.phrases", _phrases, list(COVID_PHRASES)),
    ConfigField("covid_filter.cutoff_date", _date, COVID_CUTOFF_DATE.isoformat()),
    ConfigField("curation.queue_depth", _queue_depth, 50),
    ConfigField(
        "split_fractions",
        _object_of(_fraction),
        {s.value: f for s, f in DEFAULT_HOLDOUT_FRACTIONS.items()},
    ),
    ConfigField("schedules", _schedule_ids, list(SCHEDULE_IDS), flag="schedules"),
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
        return sha256(canonical.encode("utf-8")).hexdigest()

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
    from .weak_label import PRIME_SUBSET

    config = load_run_config(args)
    subsets = args.subsets or [s for s in ("pqa_l", "pqa_a") if config.paths.get(s)]
    _once_each("--subset", subsets)
    if not subsets:
        raise ConfigError("no PQA source paths configured (paths.pqa_l / paths.pqa_a)")
    _echo_config(config)
    written = {}
    for name in subsets:
        subset = DatasetSubsetId(name)
        instances = formats.iter_source_instances(_require_path(config, name))
        skipped = 0

        def pairs() -> Iterator[QAPair]:
            # labeled a batch at a time, so memory does not grow with the source
            nonlocal skipped
            for batch in formats.batched(instances, _LABEL_BATCH):
                records, n_skipped = _cli.build_prime_subset(batch, subset, config.bm25)
                skipped += n_skipped
                yield from (r.pair for r in records)

        target = PRIME_SUBSET[subset].value
        out_path = config.output_dir / f"{target}.json"
        emitted = formats.write_squad(out_path, pairs(), config.provenance)
        written[target] = {"emitted": emitted, "skipped": skipped, "source": name}
        print(f"{name} -> {out_path}  emitted={emitted} skipped={skipped}")
    _write_summary(config, "label", subsets=written)
    return EXIT_OK


def _template_questions(config: RunConfig):
    """The questions instantiated from the configured (or packaged) template
    file, and its vocabularies; errors name the file."""
    from importlib import resources

    from .covid import instantiate_templates, load_template_config

    templates_path = config.paths.get("templates")
    with resources.as_file(resources.files("medqakit.data") / "covid_templates.json") as builtin:
        path = Path(templates_path) if templates_path else builtin
        templates, vocabs = load_template_config(path)
        try:
            return instantiate_templates(templates, vocabs), vocabs
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def cmd_curate(args: argparse.Namespace) -> int:
    from .covid import CovidFilterPolicy, alias_lookup, build_search_queries

    config = load_run_config(args)
    _echo_config(config)
    policy = CovidFilterPolicy(
        phrases=tuple(config.values["covid_filter.phrases"]),
        cutoff_date=parse_iso_date(config.values["covid_filter.cutoff_date"]),
    )

    if args.mode == "artificial":
        corpus = formats.iter_abstracts(_require_path(config, "covid_corpus"))
        out_path = config.output_dir / "d4.json"
        emitted, skipped = _cli.build_artificial_pairs(
            corpus, out_path, policy, config.bm25, config.provenance
        )
        _write_summary(config, "curate_artificial", emitted=emitted, skipped=skipped)
        print(f"artificial -> {out_path}  emitted={emitted} skipped={skipped}")
        return EXIT_OK

    if args.mode == "templates-export":
        questions, vocabs = _template_questions(config)
        lookup = alias_lookup(vocabs)
        queries = build_search_queries(questions, policy, term_lookup=lookup)
        queries_path = config.output_dir / "search_queries.txt"
        formats.write_text_atomic(queries_path, "\n".join(queries) + "\n")

        corpus = formats.iter_abstracts(_require_path(config, "covid_corpus"))
        candidates = _cli.build_review_candidates(
            questions,
            corpus,
            policy,
            term_lookup=lookup,
            queue_depth=config.queue_depth,
        )
        queue_path = config.output_dir / "review_queue.tsv"
        _cli.export_review_queue(candidates, queue_path)
        rows = sum(len(c.candidate_sentences) for c in candidates)
        counts = {"questions": len(questions), "candidates": len(candidates), "rows": rows}
        _write_summary(config, "curate_export", **counts)
        print(f"templates-export -> {queue_path}  questions={len(questions)} candidates={len(candidates)}")
        return EXIT_OK

    if args.mode == "templates-import":
        review_path = Path(args.review) if args.review else _require_path(config, "review_queue")
        pairs, unreviewed = _cli.import_review_queue(review_path)
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
    from .morph import load_lemma_lexicon, load_morpheme_lexicon
    from .schedule import YESNO_SUBSETS, get_schedule, read_datasets

    config = load_run_config(args)
    _echo_config(config)
    schedules = [get_schedule(s) for s in config.schedules]

    fractions = {DatasetSubsetId(k): v for k, v in config.split_fractions.items()}
    subsets = {stage.subset for schedule in schedules for stage in schedule.stages}

    def path_of(subset: DatasetSubsetId) -> Path:
        if subset in YESNO_SUBSETS:
            return _require_path(config, subset.value)
        path = config.output_dir / f"{subset.value}.json"
        if not path.exists():
            raise ValidationError(
                f"subset {subset.value!r} is not materialized (expected {path}); "
                "run 'medqakit label' / 'medqakit curate' first"
            )
        return path

    datasets, split, folds = read_datasets(subsets, path_of, config.seed, fractions)
    lems = morphs = None
    if any(stage.chain is not None for s in schedules for stage in s.stages):
        morphs = _load_lexicon(
            config, "morpheme_lexicon", _cli.default_morpheme_lexicon, load_morpheme_lexicon
        )
        lems = _load_lexicon(
            config, "lemma_exceptions", _cli.default_lemma_lexicon, load_lemma_lexicon
        )

    print(f"{'schedule':<10} {'stage':>5} {'subset':<7} {'n':>7}")
    manifests = _cli.emit_schedule(
        schedules, datasets, split, config.output_dir / "schedules",
        folds=folds, lems=lems, morphs=morphs, provenance=config.provenance,
    )
    manifest_index = []
    for schedule, (manifest_path, stages) in zip(schedules, manifests):
        for stage in stages:
            print(
                f"{schedule.schedule_id:<10} {stage['stage_index']:>5} "
                f"{stage['subset']:<7} {stage['n_instances']:>7}"
            )
        manifest_index.append(str(manifest_path.relative_to(config.output_dir)))
    _write_summary(config, "schedule", manifests=manifest_index)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import ScoringError

    if args.task == "extractive":
        golds = formats.iter_squad(Path(args.gold), subset=DatasetSubsetId.D1)
    else:
        golds = formats.iter_yesno(Path(args.gold))
    predictions = formats.read_predictions(Path(args.predictions))
    # evaluate reads both files in step; each is closed here on every exit,
    # also when the other one or the scoring fails first
    with closing(golds), closing(predictions):
        try:
            report = _cli.evaluate(golds, predictions, args.task)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the I/O code here
        if exc.code == 2:
            return EXIT_VALIDATION
        raise
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
