"""Peak memory of `schedule` and `eval` at two PQA-A sizes.

    PYTHONPATH=src python tests/scale_memory.py [WORK_DIR]

For 6k and then 60k PQA-A records (made by `tests.test_cli.write_sources`),
it runs, each in a fresh child process:

    label
    schedule --schedule 2 --schedule baseline
    eval out/d2.json predictions.jsonl --task extractive

where the predictions hold one line per gold id. It reads each child's peak
RSS with os.wait4 and prints one line per command, with both peaks. The
temporary inputs go under WORK_DIR (default: the system's). It exits 1 if

- at 60k, the peak of `schedule` is above 1.25x its peak at 6k: it streams
  every large input, so its memory must not grow with PQA-A;
- the peak of `eval` grows by more than 1 KiB per added gold record. eval
  streams the gold file, but aligning by id means holding every prediction
  and each gold's id and normalized answer (about 0.5 KiB per record on
  CPython 3.11); decoding the whole gold file instead costs over 2 KiB per
  record (json.load alone takes about 2.85x the file's size).

`label` still holds its sources and is only reported.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_cli import write_sources  # noqa: E402

SIZES = (6_000, 60_000)
MAX_SCHEDULE_RATIO = 1.25
MAX_EVAL_GROWTH_KB_PER_RECORD = 1.0


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


def measure(root: Path, n_a: int) -> tuple[dict[str, float], int]:
    """Each command's peak RSS in MB, and the number of gold records."""
    root.mkdir(parents=True)
    write_sources(root, n_a=n_a)
    config = {
        "seed": 13,
        "output_dir": "out",
        "paths": {"pqa_l": "pqa_l.jsonl", "pqa_a": "pqa_a.jsonl"},
    }
    (root / "config.json").write_text(json.dumps(config))
    peaks = {"label": peak_rss_mb(root, "label", "--config", "config.json")}
    peaks["schedule"] = peak_rss_mb(
        root, "schedule", "--config", "config.json", "--schedule", "2", "--schedule", "baseline"
    )
    articles = json.loads((root / "out" / "d2.json").read_text(encoding="utf-8"))["data"]
    ids = [qa["id"] for a in articles for p in a["paragraphs"] for qa in p["qas"]]
    del articles
    with open(root / "predictions.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps({"id": i, "predicted_text": i}) + "\n" for i in ids)
    peaks["eval"] = peak_rss_mb(
        root, "eval", "out/d2.json", "predictions.jsonl", "--task", "extractive"
    )
    return peaks, len(ids)


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(dir=argv[0] if argv else None) as work:
        (small, n_small), (large, n_large) = (measure(Path(work) / str(n), n) for n in SIZES)
    status = 0
    for command in small:
        ratio = large[command] / small[command]
        growth_kb = (large[command] - small[command]) * 1024 / (n_large - n_small)
        line = (
            f"{command:<9} {SIZES[0]}: {small[command]:6.1f} MB  {SIZES[1]}: "
            f"{large[command]:6.1f} MB  ratio {ratio:.2f}  {growth_kb:.2f} KiB per added gold"
        )
        if command == "schedule" and ratio > MAX_SCHEDULE_RATIO:
            line += f"  FAIL (ratio above {MAX_SCHEDULE_RATIO})"
            status = 1
        if command == "eval" and growth_kb > MAX_EVAL_GROWTH_KB_PER_RECORD:
            line += f"  FAIL (above {MAX_EVAL_GROWTH_KB_PER_RECORD} KiB per added gold)"
            status = 1
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
