"""Peak memory of the commands that read PQA-A or the abstract corpus, at
two sizes.

    PYTHONPATH=src python tests/scale_memory.py [WORK_DIR]

For 6k and then 60k PQA-A records (made by `tests.test_cli.write_sources`)
and as many abstracts (made by `tests.test_cli.write_corpus`, in pmid
order), it runs, each in a fresh child process:

    label
    schedule --schedule 2 --schedule baseline
    schedule --schedule I
    schedule --schedule baseline --schedule I ... --schedule XII
    eval out/d2.json predictions.jsonl --task extractive
    curate artificial
    curate templates-export
    curate templates-import    (on the queue with the first row of each group marked)
    schedule --schedule 4
    curate artificial          (on the corpus with its lines shuffled)

where the predictions hold one line per gold id. It reads each child's peak
RSS with os.wait4 and prints one line per measured command, with both peaks
and their growth per added record. The temporary inputs go under WORK_DIR
(default: the system's). Each bound is on growth, not on the 60k/6k ratio:
the 6k peak is mostly the interpreter's floor, so a ratio bound would
tighten whenever start-up sheds memory, with no change in growth. The
bounds below that stood in for a 1.25 ratio are at most what that ratio
allowed at the 6k peaks of Python 3.11 when it was replaced (16.5-17.4 MB).
It exits 1 if the shuffled corpus gives other d4 bytes than the sorted one,
or if

- the peak of `label` or of any of the first three `schedule` runs grows
  by more than 0.075 KiB per added PQA-A record (4 MB over the 54k
  added). They stream every large input, and `schedule` writes
  every stage of PQA-A, through each transformation chain, from one pass
  over it a batch at a time (13 stages with the 13 yes/no schedules);
- the peak of `schedule 4` grows by more than 0.12 KiB per added d4 pair
  (about 19k at 60k). It reads d1, d3 and d4 twice: a first pass draws the
  split from their ids, sorted one subset at a time and dropped after the
  draw, and a second one writes the stages as it reads (about 0.07 KiB per
  pair; 0.09-0.11 while d4 went to a spool that kept each pair's id and
  offsets, and the bound was 0.22);
- the peak of `eval` grows by more than 0.2 KiB per added gold record. eval
  reads the gold file and the predictions in step; with the predictions in
  gold order it holds none of them, only each gold's id and scores, so
  that the sums run in gold id order (about 0.14 KiB per record on CPython
  3.11). Indexing every prediction's text cost about 0.26 KiB, and holding
  each gold's normalized answer beside every prediction about 0.55 KiB;
- the peak of either `curate artificial` run grows by more than 0.23 KiB
  per added d4 pair: it holds the corpus reader's set of the pmids seen so
  far, and each pair's id and offsets (together about 0.2 KiB per pair, at
  about 3 abstracts to a pair); keeping every pair cost about 0.93 KiB;
- the peak of `curate templates-export` grows by more than 0.25 KiB per
  added abstract. It keeps only each question's queue, and the corpus
  reader's set of the pmids seen so far (about 0.06 KiB per abstract, 0.09
  while the set held each pmid as a string); keeping every eligible
  abstract cost about 0.85 KiB.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_cli import mark_first_per_group, write_corpus, write_sources  # noqa: E402

SIZES = (6_000, 60_000)
YESNO_SCHEDULES = (
    "baseline", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII"
)
# command: (the records its growth is counted per, the most KiB each may add)
MAX_GROWTH_KB = {
    "label": ("PQA-A record", 0.075),
    "schedule": ("PQA-A record", 0.075),
    "schedule I": ("PQA-A record", 0.075),
    "schedule yes/no": ("PQA-A record", 0.075),
    "eval": ("gold", 0.2),
    "artificial": ("d4 pair", 0.23),
    "export": ("abstract", 0.25),
    "schedule 4": ("d4 pair", 0.12),
    "artificial shuffled": ("d4 pair", 0.23),
}


# A child's peak RSS counts the memory of the process that started it (the
# kernel records it at exec), so each command is started by this small
# process, not by the script, which holds the generated records.
SPAWN = """
import os, subprocess, sys
with open("stderr.txt", "wb") as err:
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=err)
    _pid, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(root: Path, *args: str) -> float:
    """Run `medqakit ARGS` in root; its peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", SPAWN, sys.executable, "-m", "medqakit.cli", *args]
    spawned = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    code, maxrss_kb = map(int, spawned.stdout.split())
    if code != 0:
        sys.exit(f"medqakit {' '.join(args)} exited {code}:\n{(root / 'stderr.txt').read_text()}")
    return maxrss_kb / 1024


def measure(root: Path, n: int) -> tuple[dict[str, float], dict[str, int]]:
    """Each command's peak RSS in MB, and the number of records of each kind."""
    root.mkdir(parents=True)
    write_sources(root, n_a=n)
    write_corpus(root, n=n)
    config = {
        "seed": 13,
        "output_dir": "out",
        "paths": {"pqa_l": "pqa_l.jsonl", "pqa_a": "pqa_a.jsonl", "covid_corpus": "covid.jsonl"},
    }
    (root / "config.json").write_text(json.dumps(config))
    peaks = {"label": peak_rss_mb(root, "label", "--config", "config.json")}
    peaks["schedule"] = peak_rss_mb(
        root, "schedule", "--config", "config.json", "--schedule", "2", "--schedule", "baseline"
    )
    peaks["schedule I"] = peak_rss_mb(root, "schedule", "--config", "config.json", "--schedule", "I")
    yesno = [arg for sid in YESNO_SCHEDULES for arg in ("--schedule", sid)]
    peaks["schedule yes/no"] = peak_rss_mb(root, "schedule", "--config", "config.json", *yesno)
    articles = json.loads((root / "out" / "d2.json").read_text(encoding="utf-8"))["data"]
    ids = [qa["id"] for a in articles for p in a["paragraphs"] for qa in p["qas"]]
    del articles
    with open(root / "predictions.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"id": i, "predicted_text": i}) + "\n" for i in ids)
    peaks["eval"] = peak_rss_mb(
        root, "eval", "out/d2.json", "predictions.jsonl", "--task", "extractive"
    )
    peaks["artificial"] = peak_rss_mb(root, "curate", "artificial", "--config", "config.json")
    d4 = (root / "out" / "d4.json").read_bytes()
    peaks["export"] = peak_rss_mb(root, "curate", "templates-export", "--config", "config.json")
    mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
    review = ["--review", "reviewed.tsv"]
    peak_rss_mb(root, "curate", "templates-import", "--config", "config.json", *review)
    peaks["schedule 4"] = peak_rss_mb(root, "schedule", "--config", "config.json", "--schedule", "4")
    corpus = root / "covid.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(n).shuffle(lines)
    corpus.write_text("".join(lines), encoding="utf-8")
    del lines
    peaks["artificial shuffled"] = peak_rss_mb(
        root, "curate", "artificial", "--config", "config.json"
    )
    if (root / "out" / "d4.json").read_bytes() != d4:
        sys.exit(f"{n} abstracts: the shuffled corpus gives other d4 bytes than the sorted one")
    summary = json.loads((root / "out" / "curate_artificial_summary.json").read_text())
    counts = {"PQA-A record": n, "gold": len(ids), "d4 pair": summary["emitted"], "abstract": n}
    return peaks, counts


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(dir=argv[0] if argv else None) as work:
        (small, n_small), (large, n_large) = (measure(Path(work) / str(n), n) for n in SIZES)
    status = 0
    for command in small:
        unit, bound = MAX_GROWTH_KB[command]
        growth_mb = large[command] - small[command]
        growth_kb = growth_mb * 1024 / (n_large[unit] - n_small[unit])
        line = (
            f"{command:<19} {SIZES[0]}: {small[command]:6.1f} MB  {SIZES[1]}: "
            f"{large[command]:6.1f} MB  {growth_mb:+5.1f} MB, {growth_kb:.3f} KiB per added {unit}"
        )
        if growth_kb > bound:
            line += f"  FAIL (above {bound} KiB per added {unit})"
            status = 1
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
