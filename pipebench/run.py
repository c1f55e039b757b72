"""End-to-end and per-layer benchmark of the medqakit pipeline.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's inputs from
the seed, works out the expected outputs on its own, then runs whole
rounds of the CLI pipeline, one command after another, each in a fresh
process, until S seconds have passed (at least two rounds):

    label, curate artificial, curate templates-export, a scripted review,
    curate templates-import, schedule, eval

Every round checks the outputs. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, over all rounds of the run; with --trace 1 rounds
alternate between untraced and traced, and the metrics are the per-layer
ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = HERE / "_work"

# Fresh starts for setup_s before each round, so that they sample the
# machine at several moments of the run; one warm-up start comes first.
SETUP_STARTS_PER_ROUND = 3
COMMAND_TIMEOUT_S = 120
MIN_ROUNDS = 2

# (metric key, CLI arguments); the scripted review runs before templates-import.
COMMANDS = (
    ("label", ["label", "--config", "label_config.json"]),
    ("curate_artificial", ["curate", "artificial", "--config", "config.json"]),
    ("templates_export", ["curate", "templates-export", "--config", "config.json"]),
    ("templates_import",
     ["curate", "templates-import", "--config", "config.json", "--review", "reviewed.tsv"]),
    ("schedule", ["schedule", "--config", "config.json"]),
    ("eval", ["eval", "out/d2.json", "predictions.jsonl", "--task", "extractive"]),
)
# A known fault, counted as failed while it lasts: make_folds ignores the d1
# holdout, whose ids are PQA-L ids, and emit_schedule drops them from the
# PQA-L stage, so validation-fold ids go missing. Its inputs do not depend on
# --seed, so it fails with exactly these problems; any other failure of the
# same check is unexpected.
KNOWN_FAILURES = {
    ("label-curate", "fold_coverage:baseline: " + "; ".join(
        ["baseline: 53 of 500 validation ids are not in the pqa_l stage"]
        + [f"baseline fold {k}: {n} training ids, manifest says 450"
           for k, n in enumerate((406, 401, 402, 401, 402, 399, 405, 402, 405, 400))]
    )),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Spawned:
    code: int
    wall_s: float
    peak_rss_mb: float


class Spawner:
    """Starts every child from a small helper process (`launch.py spawner`),
    which times it and reads its own rusage with wait4. Linux carries the
    starting process's high-water RSS into the child's ru_maxrss through
    fork and exec, so children started from this larger process would
    report its RSS as their peak."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), "spawner"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path) -> Spawned:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout_s": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        return Spawned(reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    n_pairs: int = 0
    n_instances: int = 0
    duplicate_stage_files: int = 0
    output_bytes: int = 0
    spans: dict = field(default_factory=dict)  # layer -> self seconds, summed over commands
    counts: dict = field(default_factory=dict)
    decompose_probe: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.walls.values())


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.name = workload
        self.seed = seed
        self.dir = run_dir
        self.env = {k: v for k, v in os.environ.items() if k != "MEDQAKIT_OUTPUT_DIR"}
        self.env["PYTHONPATH"] = str(SRC)
        self.spawner = Spawner(self.env)
        self.spawn = self.spawner.run
        self.checked: tuple[str, dict] | None = None  # first round's digest and check outcome
        self.rounds = 0

    def child_env(self, hash_seed: int) -> dict:
        return dict(self.env, PYTHONHASHSEED=str(hash_seed))

    def prepare(self) -> None:
        self.workload = workloads.generate(self.name, self.seed, self.dir, REPO)
        self.expected = checks.expect(self.workload, REPO, self.dir / "predictions.jsonl")
        tokens = "\n".join(self.expected.tokens) + "\n"
        (self.dir / "tokens.txt").write_text(tokens, encoding="utf-8")

    def _argv(self, args: list[str], spans: Path | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "medqakit.cli", *args]
        return [sys.executable, str(HERE / "launch.py"), "--trace", str(spans), "cli", *args]

    def setup_probe(self, traced: bool) -> float:
        """One fresh interpreter until ready: import medqakit.cli, parse the
        config, load both default lexicons. Returns its wall time, or with
        tracing the time spent loading the lexicons."""
        argv = [sys.executable, str(HERE / "launch.py"), "setup", "config.json"]
        spans = self.dir / "setup-spans.json"
        if traced:
            argv[2:2] = ["--trace", str(spans)]
        logs = (self.dir / "setup.out", self.dir / "setup.err")
        ran = self.spawn(argv, self.dir, self.child_env(0), *logs)
        if ran.code != 0:
            raise RuntimeError("setup probe failed: " + logs[1].read_text()[-2000:])
        if traced:
            return json.loads(spans.read_text())["by_layer"]["morph.lexicon_load"]["total_s"]
        return ran.wall_s

    def round(self, traced: bool) -> Round:
        index = self.rounds
        self.rounds += 1
        result = Round(traced=traced)
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        for stale in self.dir.glob("cmd-*"):
            stale.unlink()
        env = self.child_env(1000 * index + 1)
        trace_dir = self.dir / "trace"
        if traced:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        failed_commands = set()
        for key, args in COMMANDS:
            if key == "templates_import" and "templates_export" not in failed_commands:
                checks.review(out / "review_queue.tsv", self.dir / "reviewed.tsv")
            spans = trace_dir / f"{key}.json" if traced else None
            logs = (self.dir / f"cmd-{key}.out", self.dir / f"cmd-{key}.err")
            ran = self.spawn(self._argv(args, spans), self.dir, env, *logs)
            result.attempted += 1
            result.walls[key] = ran.wall_s
            result.peak_rss_mb = max(result.peak_rss_mb, ran.peak_rss_mb)
            if ran.code != 0:
                failed_commands.add(key)
                err = (self.dir / f"cmd-{key}.err").read_text(errors="replace").strip().splitlines()
                result.failures.append(f"command {key}: exit {ran.code}: {err[-1] if err else ''}")
            elif traced:
                self._add_spans(result, json.loads(spans.read_text()))
        self._check(result, out, index, traced)
        return result

    def _add_spans(self, result: Round, trace: dict) -> None:
        for layer, entry in trace["by_layer"].items():
            result.spans[layer] = result.spans.get(layer, 0.0) + entry["self_s"]
        for counter, value in trace["counts"].items():
            result.counts[counter] = result.counts.get(counter, 0) + value

    def _check(self, result: Round, out: Path, index: int, traced: bool) -> None:
        """One operation per check group and per yes/no manifest. Outputs
        byte-identical to ones already checked keep that check's outcome."""
        digest, result.output_bytes = checks.tree_digest(out, self.dir / "cmd-eval.out")
        if self.checked is not None and digest == self.checked[0]:
            outcome = self.checked[1]
        else:
            outcome = self._check_outputs(out)
            self.checked = self.checked or (digest, outcome)
        result.n_pairs, result.n_instances, result.duplicate_stage_files = outcome["sizes"]
        problems = dict(outcome["groups"])
        problems["decompose"] = _guard(lambda: self._decompose_probe(result, traced))
        problems["rerun"] = (
            [] if digest == self.checked[0]
            else [f"round {index} outputs differ from the first round's (PYTHONHASHSEED differs)"]
        )
        for sid in self.workload.shape.schedules:
            if sid in workloads.SCHEDULES_YESNO:
                no_manifest = ["no manifest to check"]
                problems[f"fold_coverage:{sid}"] = outcome["folds"].get(sid, no_manifest)
        result.attempted += len(problems)
        result.failures += [f"{name}: " + "; ".join(p) for name, p in problems.items() if p]

    def _check_outputs(self, out: Path) -> dict:
        sizes = [0, 0, 0]
        folds: dict[str, list[str]] = {}

        def answers():
            problems, sizes[0] = checks.check_answers(out, self.expected)
            return problems

        def schedules():
            report = checks.check_schedules(out, self.expected)
            sizes[1], sizes[2] = report.n_instances, report.duplicate_stage_files
            folds.update(report.folds)
            return report.problems

        eval_report = self.dir / "cmd-eval.out"
        groups = {
            "answers": _guard(answers),
            "counts": _guard(lambda: checks.check_counts(out, self.expected, eval_report)),
            "schedules": _guard(schedules),
        }
        return {"groups": groups, "folds": folds, "sizes": tuple(sizes)}

    def _decompose_probe(self, result: Round, traced: bool) -> list[str]:
        probe = self.dir / "decompose.json"
        argv = [sys.executable, str(HERE / "launch.py"), "decompose", "tokens.txt", str(probe)]
        if traced:
            argv.append("--warm")
        logs = (self.dir / "probe.out", self.dir / "probe.err")
        ran = self.spawn(argv, self.dir, self.child_env(0), *logs)
        if ran.code != 0:
            return [f"decompose probe exit {ran.code}"]
        result.decompose_probe = json.loads(probe.read_text())
        return checks.check_decompose(probe, self.expected)


def _guard(check) -> list[str]:
    """A check that cannot read what it checks fails with the reason."""
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def end_to_end(rounds: list[Round], setup: list[float]) -> dict:
    """Times and rates over the whole run: work summed over the rounds
    divided by their summed wall time. The machine switches between speed
    phases about 1.5x apart, so per-round times are bimodal; the median of
    a handful of them jumps between the modes, while the run's mean moves
    only with the share of time spent in each."""

    def wall(*keys: str) -> float:
        return sum(r.walls[k] for r in rounds for k in keys)

    def total(attr: str) -> int:
        return sum(getattr(r, attr) for r in rounds)

    n = len(rounds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (sum(r.total_s for r in rounds) / n, "s"),
        "label_pairs_per_s": (total("n_pairs") / wall("label", "curate_artificial"), "1/s"),
        "review_queue_s": (wall("templates_export", "templates_import") / n, "s"),
        "stage_instances_per_s": (total("n_instances") / wall("schedule"), "1/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
        "output_mb": (rounds[-1].output_bytes / 1e6, "MB"),
    }


LAYER_SPANS = {
    "corpus.segment_s": "corpus.segment",
    "corpus.parse_s": "corpus.parse",
    "bm25.best_sentence_s": "bm25.best_sentence",
    "weak_label.label_s": "weak_label.label",
    "covid.artificial_s": "covid.artificial",
    "covid.review_search_s": "covid.review_search",
    "covid.import_s": "covid.import",
    "morph.decompose_s": "morph.decompose",
    "morph.lemmatize_s": "morph.lemmatize",
    "morph.transform_s": "morph.transform",
    "schedule.emit_s": "schedule.emit",
    "formats.read_s": "formats.read",
    "formats.write_s": "formats.write",
    "metrics.evaluate_s": "metrics.evaluate",
}
LAYER_COUNTS = ("covid.filter_calls", "morph.decompose_calls", "formats.bytes_written")


def per_layer(untraced: list[Round], traced: list[Round], lexicon_load: list[float]) -> dict:
    def med(rounds: list[Round], fn) -> float:
        return statistics.median(fn(r) for r in rounds)

    metrics: dict[str, tuple[float, str]] = {}
    for key, _args in COMMANDS:
        metrics[f"cli.{key}_s"] = (med(untraced, lambda r: r.walls[key]), "s")
    for metric, layer in LAYER_SPANS.items():
        metrics[metric] = (med(traced, lambda r: r.spans.get(layer, 0.0)), "s")
    for counter in LAYER_COUNTS:
        unit = "B" if counter == "formats.bytes_written" else "count"
        metrics[counter] = (med(traced, lambda r: r.counts.get(counter, 0)), unit)
    metrics["morph.lexicon_load_s"] = (statistics.median(lexicon_load), "s")
    n_tokens = len(traced[0].decompose_probe["tokens"])
    for kind in ("cold", "warm"):
        metrics[f"morph.decompose_{kind}_words_per_s"] = (
            med(traced, lambda r: n_tokens / r.decompose_probe[f"{kind}_s"]), "1/s")
    metrics["schedule.duplicate_stage_files"] = (traced[-1].duplicate_stage_files, "count")
    metrics["trace.overhead_s"] = (
        med(traced, lambda r: r.total_s) - med(untraced, lambda r: r.total_s), "s")
    return metrics


def trace_report(untraced: list[Round], traced: list[Round], metrics: dict) -> str:
    """Self time per layer in the traced rounds, with its share of the
    traced command time, and the tracing overhead."""
    total = statistics.median(r.total_s for r in traced)
    schedule = statistics.median(r.walls["schedule"] for r in traced)
    lines = [f"traced command time {total:.3f} s (median of {len(traced)} rounds); "
             f"untraced {statistics.median(r.total_s for r in untraced):.3f} s; "
             f"overhead {metrics['trace.overhead_s'][0]:.3f} s"]
    for metric in LAYER_SPANS:
        value = metrics[metric][0]
        lines.append(f"  {metric:<24} {value:9.3f} s  {100 * value / total:5.1f}% of traced time")
    morph = sum(metrics[f"morph.{m}_s"][0] for m in ("decompose", "lemmatize", "transform"))
    lines.append(
        f"  morph self time is {100 * morph / schedule:.1f}% of traced schedule ({schedule:.3f} s)"
    )
    return "\n".join(lines)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "medqakit" / "cli.py").is_file():
        log(f"error: no medqakit sources under {SRC}; run from a checkout of the repository")
        return 2
    run_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, run_dir)
    try:
        t0 = time.perf_counter()
        bench.prepare()
        log(f"generated {args.workload} seed {args.seed} in {time.perf_counter() - t0:.1f} s")
        bench.setup_probe(bool(args.trace))  # warm-up
        setup: list[float] = []
        rounds: list[Round] = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            setup += [bench.setup_probe(bool(args.trace)) for _ in range(SETUP_STARTS_PER_ROUND)]
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(bench.round(traced))
            r = rounds[-1]
            log(f"round {len(rounds)}{' traced' if traced else ''}: total {r.total_s:.2f} s "
                + " ".join(f"{k}={v:.2f}" for k, v in r.walls.items())
                + (f" FAILED: {r.failures}" if r.failures else ""))

        untraced = [r for r in rounds if not r.traced]
        traced = [r for r in rounds if r.traced]
        if args.trace:
            metrics = per_layer(untraced, traced, setup)
            report = trace_report(untraced, traced, metrics)
            (run_dir / "trace" / "report.txt").write_text(report + "\n", encoding="utf-8")
            log(report)
        else:
            metrics = end_to_end(rounds, setup)
        failures = [f for r in rounds for f in r.failures]
        unexpected = [f for f in failures if (args.workload, f) not in KNOWN_FAILURES]
        for failure in sorted(set(failures)):
            known = failure not in unexpected
            log(("known fault, counted as failed: " if known else "FAILED: ") + failure)
        result = {
            "correct": not unexpected,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(len(r.failures) for r in rounds),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    finally:
        bench.spawner.close()
        for path in run_dir.iterdir():
            if path.name != "trace":
                shutil.rmtree(path) if path.is_dir() else path.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
