"""Seeded synthetic inputs for the pipeline benchmark.

`generate(name, seed, root, repo)` writes the yes/no sources, the abstract
corpus and the run configs under `root` and returns what it wrote, so the
checks can compare the program's outputs with it. It reads the lexicon and
the templates packaged under `repo`. The same name and
seed always give byte-identical files.

Every sentence is words joined by single spaces, starts with a capital
letter and ends in ". "; no sentence holds another terminator, a
parenthesis or an abbreviation, so the sentence boundaries are the ones
the generator chose.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# Plain words: no template parameter or COVID phrase is a substring of any.
FILLER = """
patients outcome outcomes cohort trial trials therapy response responses
severity control controls mortality admission admissions incidence
evidence recovery infection infections marker markers dose doses group
groups study studies risk risks rate rates level levels effect effects
benefit benefits week weeks month months score scores clinical hospital
hospitals treated treating improved improving reduced reducing increased
increasing observed observing measured measuring compared comparing early
late higher lower mild severe acute chronic primary secondary adult adults
child children sample samples baseline follow period periods factor
factors change changes analysis data model models test tests value values
was were is are with without after before during among between and or
of in on for to from by the a an this that these those its their not no
""".split()

# Lemma-sensitive words so schedules I-III always change some text.
PLURALS = ["patients", "outcomes", "trials", "studies", "effects", "doses", "rates", "tests"]

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"

SCHEDULES_EXTRACTIVE = ["1", "2", "3", "4", "baseline"]
SCHEDULES_YESNO = ["baseline"] + "I II III IV V VI VII VIII IX X XI XII".split()


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload."""

    n_pqa_l: int
    pqa_l_sentences: tuple[int, int]
    n_pqa_a: int
    pqa_a_sentences: tuple[int, int]
    sentence_words: tuple[int, int]
    n_abstracts: int
    lexicon_word_share: float  # share of words built from the packaged lexicon
    other_long_word_share: float  # share of non-decomposable words of 6+ letters
    schedules: tuple[str, ...]
    degenerate: int  # records of each degenerate kind


WORKLOADS: dict[str, Shape] = {
    "label-curate": Shape(
        n_pqa_l=1000,
        pqa_l_sentences=(3, 6),
        n_pqa_a=7000,
        pqa_a_sentences=(4, 9),
        sentence_words=(8, 16),
        n_abstracts=7000,
        lexicon_word_share=0.0,
        other_long_word_share=0.0,
        schedules=tuple(SCHEDULES_EXTRACTIVE),
        degenerate=12,
    ),
    "morph-longtail": Shape(
        n_pqa_l=1000,
        pqa_l_sentences=(1, 2),
        n_pqa_a=120,
        pqa_a_sentences=(1, 2),
        sentence_words=(6, 9),
        n_abstracts=4000,
        # 42% of the words of the paper's abstract (PAPER.md) have 6+
        # letters, and the 1.3k-instance yes/no reference set had 8%
        # lexicon words (README.md, "Workloads"). The rest of the long
        # words do not decompose.
        lexicon_word_share=0.08,
        other_long_word_share=0.34,
        schedules=tuple(SCHEDULES_YESNO),
        degenerate=3,
    ),
}

CONFIG_SEED = 13  # fixed: the split and folds do not depend on --seed
QUEUE_DEPTH = 50
PARAM_RATE = 0.02  # share of abstracts that name a random question's template parameters
# Share of abstracts that name the first question's parameters, so that
# its review queue fills to the depth and its scan stops early.
COMMON_PARAM_RATE = 0.03


@dataclass
class SourceRecord:
    id: str
    question: str
    sentences: list[str]
    label: str

    @property
    def context(self) -> str:
        return " ".join(self.sentences)


@dataclass
class Abstract:
    record: dict
    sentences: list[list[str]]  # per section, as written


@dataclass
class Workload:
    seed: int
    shape: Shape
    pqa_l: list[SourceRecord] = field(default_factory=list)
    pqa_a: list[SourceRecord] = field(default_factory=list)
    degenerate_sources: dict[str, int] = field(default_factory=dict)
    abstracts: list[Abstract] = field(default_factory=list)
    degenerate_abstracts: dict[str, int] = field(default_factory=dict)


def _rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _pseudo_word(rng: random.Random) -> str:
    letters = []
    while len(letters) < rng.randint(6, 11):
        letters.append(rng.choice(_CONSONANTS))
        letters.append(rng.choice(_VOWELS))
    return "".join(letters)


def _composite_word(rng: random.Random, lexicon) -> str:
    """A word built from the packaged lexicon: prefix? root root? terminal?."""
    while True:
        parts = []
        if rng.random() < 0.4:
            parts.append(rng.choice(sorted(lexicon["prefix"])))
        parts.append(rng.choice(sorted(lexicon["root"])))
        if rng.random() < 0.4:
            parts.append(rng.choice(sorted(lexicon["root"])))
        if rng.random() < 0.7:
            parts.append(rng.choice(sorted(lexicon["terminal"])))
        word = "".join(parts)
        if len(word) >= oracle.MIN_DECOMPOSE_LENGTH:
            return word


class _Words:
    """Draws words for one workload's vocabulary."""

    def __init__(self, shape: Shape, rng: random.Random, lexicon):
        self.shape = shape
        self.rng = rng
        self.lexicon = lexicon
        self.long_share = shape.lexicon_word_share + shape.other_long_word_share
        # Around the long words, the morph workload uses words too short to
        # decompose, so the long words are the ones drawn below.
        short = self.long_share > 0
        self.filler = [w for w in FILLER if not short or len(w) < oracle.MIN_DECOMPOSE_LENGTH]
        self.plurals = [w for w in PLURALS if not short or len(w) < oracle.MIN_DECOMPOSE_LENGTH]

    def word(self) -> str:
        rng = self.rng
        if self.long_share:
            roll = rng.random()
            if roll < self.shape.lexicon_word_share:
                return _composite_word(rng, self.lexicon)
            if roll < self.long_share:
                return _pseudo_word(rng)
        if rng.random() < 0.08:
            return rng.choice(self.plurals)
        return rng.choice(self.filler)

    def sentence(self) -> str:
        lo, hi = self.shape.sentence_words
        words = [self.word() for _ in range(self.rng.randint(lo, hi))]
        words[0] = words[0][0].upper() + words[0][1:]
        return " ".join(words) + "."

    def question(self, context_words: list[str]) -> str:
        picks = [self.rng.choice(context_words) for _ in range(2)] + [self.word() for _ in range(2)]
        return f"Does {picks[0]} {picks[1]} change {picks[2]} in {picks[3]}?"


def _sources(
    prefix: str, n: int, span: tuple[int, int], words: _Words, width: int
) -> list[SourceRecord]:
    out = []
    for i in range(n):
        sentences = [words.sentence() for _ in range(words.rng.randint(*span))]
        question = words.question(" ".join(sentences).rstrip(".").split())
        label = words.rng.choice(["yes", "no"])
        out.append(SourceRecord(f"{prefix}-{i:0{width}d}", question, sentences, label))
    return out


def _param_sentence(rng: random.Random, questions, params) -> str:
    """A sentence naming every one of a template question's parameters."""
    terms = [rng.choice(questions["aliases"].get(p, (p,))) for p in params]
    return "Patients given " + " and ".join(terms) + " were followed."


def _abstract(i: int, words: _Words, questions, kind: str | None) -> Abstract:
    rng = words.rng
    pmid = f"{300000 + i}"
    covid = kind is not None or rng.random() < 0.6
    pub_date = rng.choice(["2020-02-10", "2020-07-01", "2021-03-15", "2019-11-01"])
    if not covid or rng.random() < 0.15:
        pub_date = rng.choice(["2018-06-01", "2019-05-20", "2019-10-31", "2020-05-05"])
    if kind is not None:
        pub_date = "2020-09-09"
    sections = {
        "background": [words.sentence() for _ in range(rng.randint(1, 3))],
        "methods": [words.sentence() for _ in range(rng.randint(1, 2))],
        "results": [words.sentence() for _ in range(rng.randint(2, 3))],
        "conclusions": [words.sentence() for _ in range(rng.randint(2, 4))],
    }
    keywords = []
    if covid:
        where = rng.random()
        if where < 0.2 or kind is not None:
            sections["background"].insert(0, "COVID-19 cases were studied in this cohort.")
        elif where < 0.4:
            keywords.append("SARS-CoV-2")
        elif where < 0.7:
            sections["results"].append("The novel coronavirus spread in this group.")
        else:
            sections["conclusions"].insert(0, "COVID-19 outcomes were assessed in this cohort.")
    for rate, pick in ((PARAM_RATE, rng.choice), (COMMON_PARAM_RATE, lambda q: q[0])):
        if rng.random() < rate:
            _question, params = pick(questions["list"])
            section = rng.choice(["background", "results", "conclusions"])
            sections[section].append(_param_sentence(rng, questions, params))
    title = words.question(" ".join(sections["conclusions"]).rstrip(".").split())
    ordered = [(label, sections[label]) for label in ("background", "methods", "results")]
    conclusion_label = rng.choice(["conclusions", "conclusion", "answer"])
    if rng.random() < 0.2:
        ordered.insert(0, ("question", [title]))
        title = f"Report {pmid} on {words.word()} care"
    ordered.append((conclusion_label, sections["conclusions"]))

    if kind == "no_date":
        pub_date = None
    elif kind == "no_question":
        ordered = [(label, s) for label, s in ordered if label != "question"]
        title = f"Report {pmid} on {words.word()} care"
    elif kind == "no_conclusion":
        ordered = [(label, s) for label, s in ordered if label != conclusion_label]
    elif kind == "empty_conclusion":
        ordered = [(label, s) for label, s in ordered if label != conclusion_label]
        ordered.append((conclusion_label, []))

    record = {
        "pmid": pmid,
        "title": title,
        "pub_date": pub_date,
        "keywords": keywords,
        "sections": [{"label": label, "text": " ".join(s)} for label, s in ordered],
    }
    return Abstract(record=record, sentences=[s for _, s in ordered])


DEGENERATE_ABSTRACT_KINDS = ("no_date", "no_question", "no_conclusion", "empty_conclusion")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )


def _source_row(r: SourceRecord) -> dict:
    return {"id": r.id, "question": r.question, "context": r.context, "label": r.label}


def package_data(repo: Path) -> Path:
    return repo / "src" / "medqakit" / "data"


def generate(name: str, seed: int, root: Path, repo: Path) -> Workload:
    shape = WORKLOADS[name]
    data = package_data(repo)
    lexicon = oracle.load_lexicon(data / "neoclassical_forms.txt")
    templates = data / "covid_templates.json"
    questions = {
        "list": oracle.template_questions(templates),
        "aliases": oracle.term_aliases(templates),
    }
    root.mkdir(parents=True, exist_ok=True)
    workload = Workload(seed=seed, shape=shape)

    words = _Words(shape, _rng(seed, f"{name}:pqa"), lexicon)
    workload.pqa_l = _sources("pqa_l", shape.n_pqa_l, shape.pqa_l_sentences, words, 4)
    workload.pqa_a = _sources("pqa_a", shape.n_pqa_a, shape.pqa_a_sentences, words, 6)
    _write_jsonl(root / "pqa_l.jsonl", map(_source_row, workload.pqa_l))
    _write_jsonl(root / "pqa_a.jsonl", map(_source_row, workload.pqa_a))

    # The raw PQA-A source adds records the labeler must skip. The yes/no
    # reader that `schedule` uses rejects them, so only `label` reads it.
    raw = [_source_row(r) for r in workload.pqa_a]
    k = shape.degenerate
    for j in range(k):
        raw.insert(
            (j * 7919) % len(raw),
            {"id": f"pqa_a-noq-{j}", "question": " " * (j % 2),
             "context": "Some text here.", "label": "yes"},
        )
        raw.insert(
            (j * 104729) % len(raw),
            {"id": f"pqa_a-noc-{j}", "question": "Does it work?",
             "context": "  " * (j % 2), "label": "no"},
        )
    workload.degenerate_sources = {"empty_question": k, "empty_conclusions": k}
    _write_jsonl(root / "pqa_a_raw.jsonl", raw)

    words = _Words(shape, _rng(seed, f"{name}:abstracts"), lexicon)
    kinds: list[str | None] = [None] * shape.n_abstracts
    for j, kind in enumerate(DEGENERATE_ABSTRACT_KINDS):
        for m in range(k):
            kinds[(m * len(DEGENERATE_ABSTRACT_KINDS) + j) * 37 % shape.n_abstracts] = kind
    workload.abstracts = [_abstract(i, words, questions, kind) for i, kind in enumerate(kinds)]
    workload.degenerate_abstracts = {kind: kinds.count(kind) for kind in DEGENERATE_ABSTRACT_KINDS}
    _write_jsonl(root / "abstracts.jsonl", (a.record for a in workload.abstracts))

    config = {
        "seed": CONFIG_SEED,
        "output_dir": "out",
        "paths": {
            "pqa_l": "pqa_l.jsonl", "pqa_a": "pqa_a.jsonl", "covid_corpus": "abstracts.jsonl"
        },
        "curation": {"queue_depth": QUEUE_DEPTH},
        "schedules": list(shape.schedules),
    }
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    config["paths"] = dict(config["paths"], pqa_a="pqa_a_raw.jsonl")
    (root / "label_config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return workload
