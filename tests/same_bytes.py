"""Whether this checkout's commands give what another revision's give.

    python tests/same_bytes.py PARENT_REV [SEED ...]

For each pipebench workload (label-curate, morph-longtail) and each seed
(301 and 7 by default), it generates the inputs once, as
`pipebench/run.py` does: `workloads.generate`, then `checks.expect` for the
eval predictions. It then runs one round of run.py's six commands, with its
scripted review before `curate templates-import`, on each side: PARENT_REV's
`src`, exported with `git archive` into a temporary directory, and this
checkout's `src`. Both sides run in a fresh copy of the inputs at the same
path, with the same PYTHONHASHSEED. It compares every command's exit code,
stdout and stderr, and every file under `out/`, prints one line per
workload and seed, and exits 1 on any difference.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "pipebench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("label-curate", "morph-longtail")
SEEDS = (301, 7)


def export_src(rev: str, dest: Path) -> Path:
    """REV's `src` directory, exported under dest."""
    dest.mkdir(parents=True)
    git = ["git", "-C", str(ROOT), "archive", rev, "src"]
    archive = subprocess.Popen(git, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")
    return dest / "src"


def round_outputs(src: Path, inputs: Path, run_dir: Path) -> dict[str, str]:
    """One round of run.py's commands with medqakit from src, in a fresh
    copy of inputs at run_dir: each command's exit code and the sha256 of
    its stdout and stderr, and the sha256 of each file under out/."""
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(inputs, run_dir)
    env = {k: v for k, v in os.environ.items() if k != "MEDQAKIT_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="1")
    seen: dict[str, str] = {}
    for key, args in run.COMMANDS:
        if key == "templates_import" and seen["templates_export exit"] == "0":
            checks.review(run_dir / "out" / "review_queue.tsv", run_dir / "reviewed.tsv")
        done = subprocess.run(
            [sys.executable, "-m", "medqakit.cli", *args],
            cwd=run_dir, env=env, capture_output=True, timeout=run.COMMAND_TIMEOUT_S,
        )
        seen[f"{key} exit"] = str(done.returncode)
        seen[f"{key} stdout"] = hashlib.sha256(done.stdout).hexdigest()
        seen[f"{key} stderr"] = hashlib.sha256(done.stderr).hexdigest()
    for path in sorted((run_dir / "out").rglob("*")):
        if path.is_file():
            seen[str(path.relative_to(run_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return seen


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    rev, seeds = argv[0], [int(seed) for seed in argv[1:]] or SEEDS
    status = 0
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        sides = (export_src(rev, work / "parent"), ROOT / "src")
        for name in WORKLOADS:
            for seed in seeds:
                inputs = work / "inputs"
                shutil.rmtree(inputs, ignore_errors=True)
                workload = workloads.generate(name, seed, inputs, ROOT)
                checks.expect(workload, ROOT, inputs / "predictions.jsonl")
                parent, this = (round_outputs(src, inputs, work / "run") for src in sides)
                keys = parent.keys() | this.keys()
                differ = sorted(k for k in keys if parent.get(k) != this.get(k))
                files = sum(1 for k in this if k.startswith("out"))
                verdict = f"{len(differ)} differ: {', '.join(differ)}" if differ else "identical"
                commands = len(run.COMMANDS)
                print(f"{name} seed {seed}: {commands} commands, {files} files under out/: {verdict}")
                status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
