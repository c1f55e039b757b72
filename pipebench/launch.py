"""Child-process entry points of the pipeline benchmark.

    python launch.py [--trace SPANS] setup CONFIG
        Fresh-start probe: import medqakit.cli, parse CONFIG the way the
        `schedule` command does, load both default lexicons, exit.
    python launch.py [--trace SPANS] cli ARGS...
        Run `medqakit ARGS...` in this process.
    python launch.py decompose TOKENS OUT [--warm]
        Decompose every token of TOKENS (one per line) on a fresh default
        lexicon, then again on the same lexicon with --warm; write the parts
        and both pass times to OUT as JSON.
    python launch.py spawner
        Run the commands requested on stdin, one JSON line each, and answer
        each with its exit code, wall time and peak RSS.

With --trace, the public functions each layer's caller looks up are
replaced, in the caller's namespace, by wrappers that record a span (name,
start, end, parent) per call. Spans stay in memory and are written to SPANS
as JSON when the command ends, with per-layer totals and self times. Untraced
runs of the pipeline do not go through this file: they run
`python -m medqakit.cli` directly.
"""

from __future__ import annotations

import sys
import time

# (module, attribute looked up by the caller, layer). A layer's self time is
# its spans' time minus the time of the spans they contain.
SPANNED = (
    ("medqakit.corpus", "parse_abstract_record", "corpus.parse"),
    ("medqakit.weak_label", "segment_sentences", "corpus.segment"),
    ("medqakit.covid", "segment_sentences", "corpus.segment"),
    ("medqakit.weak_label", "best_sentence", "bm25.best_sentence"),
    ("medqakit.cli", "build_prime_subset", "weak_label.label"),
    ("medqakit.cli", "build_artificial_pairs", "covid.artificial"),
    ("medqakit.cli", "build_review_candidates", "covid.review_search"),
    ("medqakit.cli", "import_review_queue", "covid.import"),
    ("medqakit.cli", "export_review_queue", "formats.write"),
    ("medqakit.cli", "default_morpheme_lexicon", "morph.lexicon_load"),
    ("medqakit.cli", "default_lemma_lexicon", "morph.lexicon_load"),
    ("medqakit.morph", "decompose", "morph.decompose"),
    ("medqakit.morph", "lemmatize_token", "morph.lemmatize"),
    ("medqakit.schedule", "transform_dataset", "morph.transform"),
    ("medqakit.cli", "emit_schedule", "schedule.emit"),
    ("medqakit.cli", "evaluate", "metrics.evaluate"),
    # cli and schedule call these as attributes of the formats module
    ("medqakit.formats", "read_source_instances", "formats.read"),
    ("medqakit.formats", "read_abstracts", "formats.read"),
    ("medqakit.formats", "read_yesno", "formats.read"),
    ("medqakit.formats", "read_squad", "formats.read"),
    ("medqakit.formats", "read_predictions", "formats.read"),
    ("medqakit.formats", "write_text_atomic", "formats.write"),
    ("medqakit.formats", "write_json_atomic", "formats.write"),
    ("medqakit.formats", "write_squad", "formats.write"),
    ("medqakit.formats", "write_yesno", "formats.write"),
)
# Calls counted without a span: every rule that filters abstracts.
COUNTED = (
    ("medqakit.covid", "covid_filter", "covid.filter_calls"),
    ("medqakit.covid", "_mentions_terms", "covid.filter_calls"),
    ("medqakit.morph", "decompose", "morph.decompose_calls"),
)
# Writers whose output file sizes add up to formats.bytes_written.
BYTES_WRITTEN = (("medqakit.formats", "write_text_atomic"), ("medqakit.cli", "export_review_queue"))


class Tracer:
    """Spans as parallel lists, kept in memory until `write`."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def _layer(self, layer: str) -> int:
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_ids[layer]

    def span(self, fn, layer: str):
        layer_id = self._layer(layer)
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(name)
            name.append(layer_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            start[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def count(self, fn, counter: str):
        counts = self.counts
        counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def bytes_written(self, fn):
        import os

        counts = self.counts
        counts.setdefault("formats.bytes_written", 0)

        def measured(*args, **kwargs):
            result = fn(*args, **kwargs)
            path = args[1] if fn.__name__ == "export_review_queue" else args[0]
            counts["formats.bytes_written"] += os.path.getsize(path)
            return result

        return measured

    def install(self) -> None:
        import importlib

        def patch(module_name, attr, make):
            module = importlib.import_module(module_name)
            setattr(module, attr, make(getattr(module, attr)))

        for module_name, attr in BYTES_WRITTEN:
            patch(module_name, attr, self.bytes_written)
        for module_name, attr, counter in COUNTED:
            patch(module_name, attr, lambda fn, c=counter: self.count(fn, c))
        for module_name, attr, layer in SPANNED:
            patch(module_name, attr, lambda fn, l=layer: self.span(fn, l))

    def write(self, path: str) -> None:
        import json

        n = len(self.name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        layers = {
            layer: {"spans": 0, "total_s": 0.0, "self_s": 0.0} for layer in self.layers
        }
        for i in range(n):
            entry = layers[self.layers[self.name[i]]]
            duration = self.end[i] - self.start[i]
            entry["spans"] += 1
            entry["self_s"] += duration - child_time[i]
            if self.parent[i] < 0 or self.name[self.parent[i]] != self.name[i]:
                entry["total_s"] += duration
        spans = {
            "layers": self.layers,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"by_layer": layers, "counts": self.counts, "spans": spans}, handle)


def _setup(config_path: str) -> None:
    from medqakit import cli

    args = cli.build_parser().parse_args(["schedule", "--config", config_path])
    cli.load_run_config(args)
    cli.default_morpheme_lexicon()
    cli.default_lemma_lexicon()


def _decompose(tokens_path: str, out_path: str, warm: bool) -> None:
    import json

    from medqakit.morph import decompose, default_morpheme_lexicon

    with open(tokens_path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    lexicon = default_morpheme_lexicon()
    t0 = time.perf_counter()
    found = [decompose(token, lexicon) for token in tokens]
    cold_s = time.perf_counter() - t0
    warm_s = None
    if warm:
        t0 = time.perf_counter()
        for token in tokens:
            decompose(token, lexicon)
        warm_s = time.perf_counter() - t0
    parts = [
        None if d is None else [[p.morpheme, p.mtype.value] for p in d.parts] for d in found
    ]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"tokens": tokens, "parts": parts, "cold_s": cold_s, "warm_s": warm_s}, handle)


def _spawner() -> None:
    import json
    import os
    import subprocess
    import threading

    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"], stdout=out, stderr=err
            )
            timer = threading.Timer(request["timeout_s"], proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


def main(argv: list[str]) -> int:
    tracer = None
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    if mode == "spawner":
        _spawner()
        return 0
    if mode == "decompose":
        _decompose(rest[0], rest[1], "--warm" in rest[2:])
        return 0
    code = 0
    try:
        if mode == "setup":
            _setup(rest[0])
        elif mode == "cli":
            from medqakit import cli

            code = cli.main(rest)
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    finally:
        if tracer is not None:
            tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
