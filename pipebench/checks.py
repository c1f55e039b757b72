"""Expected outputs, worked out from the generated inputs alone, and the
checks that compare the program's outputs with them.

`expect` runs once per benchmark run, before anything is timed. Each check
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import oracle
from workloads import QUEUE_DEPTH, Workload, package_data

_WORD_RE = re.compile(r"[A-Za-z]+")
_AUG_RE = re.compile(r"#aug\d+$")
MAX_PROBLEMS = 5
# The documented default holdout: 10% of d1, d3 and d4, rounded half up, of
# each of them that the requested schedules train on. Nothing else is held out.
HOLDOUT_FRACTION = {"d1": 0.10, "d3": 0.10, "d4": 0.10}
SCHEDULE_SUBSETS = {"1": ("d1",), "2": ("d2", "d1"), "3": ("d2", "d1", "d3"),
                    "4": ("d2", "d1", "d3", "d4")}
YESNO_SUBSETS = ("pqa_l", "pqa_a")


@dataclass
class Expected:
    pairs: dict[str, dict[str, tuple[str, str, int]]]  # subset -> id -> (context, answer, start)
    label_skipped: dict[str, int]
    d4_skipped: int
    n_questions: int
    review_groups: list[tuple[str, str, list[str]]]  # (question, pmid, sentences)
    d3: list[tuple[str, str, str, int]]  # (question, context, answer, start)
    unreviewed: list[tuple[str, str]]
    sources: dict[str, tuple[str, str]]  # yes/no id -> (question, context)
    tokens: list[str]
    decompositions: list[list[list[str]] | None]
    eval_scores: tuple[float, float]
    schedules: tuple[str, ...]


def _anchored(sentences: list[str], index: int) -> tuple[str, str, int]:
    context = " ".join(sentences)
    start = sum(len(s) + 1 for s in sentences[:index])
    return context, sentences[index], start


def _review_choice(question: str, pmid: str, n: int) -> int | None:
    """The scripted reviewer: leaves one group in ten unreviewed and marks a
    fixed pseudo-random sentence in the others."""
    h = int.from_bytes(hashlib.sha256(f"{question}\t{pmid}".encode()).digest()[:8], "big")
    return None if h % 10 == 0 else (h // 10) % n


def review(queue_path: Path, reviewed_path: Path) -> None:
    """Mark one row per (question, pmid) group, as a reviewer would."""
    lines = queue_path.read_text(encoding="utf-8").splitlines()
    groups: dict[tuple[str, str], int] = {}
    for line in lines[1:]:
        question, pmid = line.split("\t")[:2]
        groups[(question, pmid)] = groups.get((question, pmid), 0) + 1
    out = [lines[0]]
    for line in lines[1:]:
        question, pmid, index, text, _selected = line.split("\t")
        choice = _review_choice(question, pmid, groups[(question, pmid)])
        out.append("\t".join((question, pmid, index, text, "x" if choice == int(index) else "")))
    reviewed_path.write_text("\n".join(out) + "\n", encoding="utf-8")


def _perturb(rng: random.Random, answer: str, other: str) -> str:
    words = answer.split()
    roll = rng.random()
    if roll < 0.3:
        return answer
    if roll < 0.45:
        return "The " + answer.lower().rstrip(".") + "!"
    if roll < 0.75:
        return " ".join(words[: max(1, len(words) // 2)])
    if roll < 0.9:
        return " ".join(words + other.split()[:3])
    return other


def expect(workload: Workload, repo: Path, predictions_path: Path) -> Expected:
    pairs: dict[str, dict[str, tuple[str, str, int]]] = {"d1": {}, "d2": {}, "d4": {}}
    for subset, records in (("d1", workload.pqa_l), ("d2", workload.pqa_a)):
        for r in records:
            index = oracle.best_sentence_index(r.question, r.sentences)
            pairs[subset][r.id] = _anchored(r.sentences, index)

    d4_skipped = 0
    eligible = []
    for a in sorted(workload.abstracts, key=lambda a: a.record["pmid"]):
        if not oracle.passes_covid_filter(a.record):
            continue
        eligible.append(a)
        question = oracle.question_of(a.record)
        conclusion = oracle.conclusion_index(a.record)
        if question is None or conclusion is None or not a.sentences[conclusion]:
            d4_skipped += 1
            continue
        sentences = a.sentences[conclusion]
        index = oracle.best_sentence_index(question, sentences)
        pairs["d4"]["d4-" + a.record["pmid"]] = _anchored(sentences, index)

    # Ordinary abstracts always have a question and a conclusion, so only
    # the degenerate ones the generator wrote on purpose are skipped.
    known = sum(n for kind, n in workload.degenerate_abstracts.items() if kind != "no_date")
    if d4_skipped != known:
        raise RuntimeError(f"generator wrote {d4_skipped} skippable abstracts, meant {known}")

    templates = package_data(repo) / "covid_templates.json"
    aliases = oracle.term_aliases(templates)
    questions = oracle.template_questions(templates)
    texts = {a.record["pmid"]: oracle.term_texts(a.record) for a in eligible}
    groups = []
    for question, params in questions:
        taken = 0
        for a in eligible:
            if taken >= QUEUE_DEPTH:
                break
            found = texts[a.record["pmid"]]
            if not all(oracle.mentions(found, aliases.get(p, (p,))) for p in params):
                continue
            sentences = [s for i in oracle.answer_section_indices(a.record) for s in a.sentences[i]]
            if sentences:
                groups.append((question, a.record["pmid"], sentences))
                taken += 1
    d3, unreviewed = [], []
    for question, pmid, sentences in groups:
        choice = _review_choice(question, pmid, len(sentences))
        if choice is None:
            unreviewed.append((question, pmid))
        else:
            d3.append((question,) + _anchored(sentences, choice))

    sources = {r.id: (r.question, r.context) for r in workload.pqa_l + workload.pqa_a}
    tokens = sorted({w.lower() for q, c in sources.values() for w in _WORD_RE.findall(q + " " + c)})
    lexicon = oracle.load_lexicon(package_data(repo) / "neoclassical_forms.txt")
    decompositions = []
    for token in tokens:
        parts = oracle.decompose(token, lexicon)
        decompositions.append(None if parts is None else [list(p) for p in parts])

    rng = random.Random(workload.seed)
    golds = {pair_id: answer for pair_id, (_c, answer, _s) in pairs["d2"].items()}
    answers = list(golds.values())
    predictions = {
        pair_id: _perturb(rng, answer, rng.choice(answers)) for pair_id, answer in golds.items()
    }
    predictions_path.write_text(
        "".join(json.dumps({"id": k, "predicted_text": v}) + "\n" for k, v in predictions.items()),
        encoding="utf-8",
    )
    return Expected(
        pairs=pairs,
        label_skipped={"d1": 0, "d2": sum(workload.degenerate_sources.values())},
        d4_skipped=d4_skipped,
        n_questions=len(questions),
        review_groups=groups,
        d3=d3,
        unreviewed=unreviewed,
        sources=sources,
        tokens=tokens,
        decompositions=decompositions,
        eval_scores=oracle.squad_scores(golds, predictions),
        schedules=workload.shape.schedules,
    )


def read_squad(path: Path) -> list[dict]:
    raw = json.loads(path.read_text(encoding="utf-8"))
    out = []
    for article in raw["data"]:
        for paragraph in article["paragraphs"]:
            for qa in paragraph["qas"]:
                answer = qa["answers"][0]
                out.append(
                    {
                        "id": qa["id"],
                        "question": qa["question"],
                        "context": paragraph["context"],
                        "answer": answer["text"],
                        "start": answer["answer_start"],
                    }
                )
    return out


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems


def check_answers(out: Path, exp: Expected) -> tuple[list[str], int]:
    """Every pair is anchored and its answer is the sentence the benchmark's
    own BM25 picks (d1, d2, d4) or the one the reviewer marked (d3).
    Returns the problems and the number of d1+d2+d4 pairs."""
    problems = []
    n_pairs = 0
    for subset in ("d1", "d2", "d4"):
        got = read_squad(out / f"{subset}.json")
        n_pairs += len(got)
        want = exp.pairs[subset]
        if [p["id"] for p in got] != list(want):
            problems.append(f"{subset}: ids differ ({len(got)} written, {len(want)} expected)")
        for p in got:
            context, answer, start = p["context"], p["answer"], p["start"]
            if context[start : start + len(answer)] != answer:
                problems.append(f"{subset} {p['id']}: answer not anchored at {start}")
            elif want.get(p["id"]) != (context, answer, start):
                problems.append(
                    f"{subset} {p['id']}: answer {answer[:40]!r} is not the BM25-best sentence"
                )
    d3 = read_squad(out / "d3.json")
    for p in d3:
        if p["context"][p["start"] : p["start"] + len(p["answer"])] != p["answer"]:
            problems.append(f"d3 {p['id']}: answer not anchored")
    got = sorted((p["question"], p["context"], p["answer"], p["start"]) for p in d3)
    if got != sorted(exp.d3):
        problems.append(f"d3: {len(got)} pairs differ from the {len(exp.d3)} reviewed selections")
    return _limit(problems), n_pairs


def check_counts(out: Path, exp: Expected, eval_stdout: Path) -> list[str]:
    """Summaries, d4 ids, review-queue groups and eval scores against the
    documented rules re-implemented in oracle.py."""
    problems = []
    label = json.loads((out / "label_summary.json").read_text(encoding="utf-8"))["subsets"]
    for subset, skipped in exp.label_skipped.items():
        got = (label[subset]["emitted"], label[subset]["skipped"])
        want = (len(exp.pairs[subset]), skipped)
        if got != want:
            problems.append(f"label {subset}: emitted/skipped {got}, expected {want}")
    artificial = json.loads((out / "curate_artificial_summary.json").read_text(encoding="utf-8"))
    got = (artificial["emitted"], artificial["skipped"])
    want = (len(exp.pairs["d4"]), exp.d4_skipped)
    if got != want:
        problems.append(f"curate artificial: emitted/skipped {got}, expected {want}")

    queries = (out / "search_queries.txt").read_text(encoding="utf-8").splitlines()
    if len(queries) != exp.n_questions:
        problems.append(f"{len(queries)} search queries for {exp.n_questions} questions")
    rows: dict[tuple[str, str], list[str]] = {}
    for line in (out / "review_queue.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        question, pmid, index, text, _ = line.split("\t")
        group = rows.setdefault((question, pmid), [])
        if int(index) != len(group):
            problems.append(f"review queue ({question[:30]!r}, {pmid}): index {index} out of order")
        group.append(text)
    got_groups = [(q, p, s) for (q, p), s in rows.items()]
    if got_groups != exp.review_groups:
        problems.append(
            f"review queue: {len(got_groups)} groups differ "
            f"from the {len(exp.review_groups)} expected"
        )
    imported = json.loads((out / "curate_import_summary.json").read_text(encoding="utf-8"))
    got = (imported["emitted"], sorted(map(tuple, imported["unreviewed"])))
    if got != (len(exp.d3), sorted(exp.unreviewed)):
        problems.append(
            f"templates-import: {imported['emitted']} emitted, "
            f"{len(imported['unreviewed'])} unreviewed"
        )

    report = json.loads(eval_stdout.read_text(encoding="utf-8"))
    em, f1 = exp.eval_scores
    if report.get("n") != len(exp.pairs["d2"]) or not (
        abs(report.get("exact_match", -1) - em) <= 1e-9 * max(1.0, em)
        and abs(report.get("f1", -1) - f1) <= 1e-9 * max(1.0, f1)
    ):
        problems.append(f"eval {report} != own scoring EM {em} F1 {f1}")
    return _limit(problems)


def check_decompose(probe_path: Path, exp: Expected) -> list[str]:
    """The program's decompose against the segmentation enumerator."""
    probe = json.loads(probe_path.read_text(encoding="utf-8"))
    if probe["tokens"] != exp.tokens:
        return ["decompose probe saw other tokens"]
    problems = [
        f"decompose({token!r}) = {got}, enumerator gives {want}"
        for token, got, want in zip(exp.tokens, probe["parts"], exp.decompositions)
        if got != want
    ]
    return _limit(problems)


def _expected_holdout(out: Path, exp: Expected) -> dict[str, tuple[int, set[str]]]:
    """Subset -> (how many ids are held out, the ids they come from). d3's
    ids come from the program's d3.json, whose pairs check_answers matches
    with the reviewed selections."""
    trained = {s for sid in exp.schedules for s in SCHEDULE_SUBSETS.get(sid, YESNO_SUBSETS)}
    ids = {"d1": set(exp.pairs["d1"]), "d4": set(exp.pairs["d4"])}
    if "d3" in trained:
        ids["d3"] = {p["id"] for p in read_squad(out / "d3.json")}
    return {
        subset: (int(len(ids[subset]) * fraction + 0.5), ids[subset])
        for subset, fraction in HOLDOUT_FRACTION.items()
        if subset in trained
    }


def _check_split(sid: str, split: dict, holdout: dict) -> list[str]:
    """The manifest's test pool holds, per expected subset, the expected
    number of distinct ids of that subset, and nothing else."""
    problems = []
    if set(split) != set(holdout):
        problems.append(f"{sid}: test pool subsets {sorted(split)}, expected {sorted(holdout)}")
    for subset, ids in split.items():
        k, pool = holdout.get(subset, (0, set()))
        if len(set(ids)) != len(ids) or len(ids) != k or not set(ids) <= pool:
            problems.append(
                f"{sid}: test pool of {subset} has {len(ids)} ids ({len(set(ids) - pool)} "
                f"not {subset} ids), expected {k} distinct {subset} ids"
            )
    return problems


@dataclass
class ScheduleReport:
    problems: list[str]
    folds: list[tuple[str, list[str]]]  # (schedule id, problems) per yes/no manifest
    n_instances: int
    duplicate_stage_files: int


def _read_stage(path: Path) -> list[dict]:
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    return read_squad(path)


def check_schedules(out: Path, exp: Expected) -> ScheduleReport:
    """Stage counts match the manifests; each manifest's test pool is the
    expected share of the expected subsets; no stage id or augmentation
    base id is in it; every #augk id has its base id; form replacement
    (IV) with spaces removed equals its input; every transformed stage
    differs from the baseline's; and, per yes/no manifest, fold coverage:
    every validation-fold id is in the human-labelled stage, and each fold
    leaves train_size ids to train on."""
    problems: list[str] = []
    folds: list[tuple[str, list[str]]] = []
    summary = json.loads((out / "schedule_summary.json").read_text(encoding="utf-8"))
    digests: dict[tuple[str, int], str] = {}  # (schedule id, stage index) -> sha256
    duplicates = 0
    n_instances = 0
    holdout = _expected_holdout(out, exp)
    for manifest_rel in summary["manifests"]:
        manifest_path = out / manifest_rel
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        sid = manifest["schedule_id"]
        split = manifest.get("target_split", {}).get("test_ids", {})
        problems += _check_split(sid, split, holdout)
        test_ids = {i for ids in split.values() for i in ids}
        stage_ids: dict[str, list[str]] = {}
        for stage in manifest["stages"]:
            path = manifest_path.parent / stage["dataset_path"]
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            duplicates += digest in digests.values()
            digests[(sid, stage["stage_index"])] = digest
            rows = _read_stage(path)
            n_instances += stage["n_instances"]
            if len(rows) != stage["n_instances"]:
                problems.append(
                    f"{sid} stage {stage['stage_index']}: {len(rows)} written, "
                    f"manifest says {stage['n_instances']}"
                )
            ids = [r["id"] for r in rows]
            stage_ids[stage["subset"]] = ids
            id_set = set(ids)
            for i in ids:
                base = _AUG_RE.sub("", i)
                if base in test_ids:
                    problems.append(f"{sid} stage {stage['stage_index']}: {i} is in the test pool")
                if base != i and base not in id_set:
                    problems.append(f"{sid} stage {stage['stage_index']}: {i} has no base id")
            if sid == "IV":
                for r in rows:
                    question, context = exp.sources[r["id"]]
                    if (r["question"].replace(" ", ""), r["context"].replace(" ", "")) != (
                        question.replace(" ", ""),
                        context.replace(" ", ""),
                    ):
                        problems.append(f"IV {r['id']}: form replacement changed more than spacing")
        if "folds" in manifest and "pqa_l" in stage_ids:
            fold_problems = []
            layout = manifest["folds"]
            present = {_AUG_RE.sub("", i) for i in stage_ids["pqa_l"]}
            pool = {i for fold in layout["validation_folds"] for i in fold}
            missing = pool - present
            if missing:
                fold_problems.append(
                    f"{sid}: {len(missing)} of {len(pool)} validation ids "
                    "are not in the pqa_l stage"
                )
            for k, fold in enumerate(layout["validation_folds"]):
                train = len(present - set(fold))
                if train != layout["train_size"]:
                    fold_problems.append(
                        f"{sid} fold {k}: {train} training ids, "
                        f"manifest says {layout['train_size']}"
                    )
            folds.append((sid, fold_problems))
    for (sid, index), digest in digests.items():
        if sid != "baseline" and sid.isalpha() and digest == digests.get(("baseline", index)):
            problems.append(f"{sid} stage {index} is byte-equal to baseline's")
    return ScheduleReport(_limit(problems), folds, n_instances, duplicates)


def tree_digest(out: Path, *extra: Path) -> tuple[str, int]:
    """sha256 over every output file's path and bytes, then the extra
    files' bytes; and the total size of the output files."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
    for path in extra:
        h.update(b"\0" + path.read_bytes())
    return h.hexdigest(), size
