import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from medqakit import (
    MorphemeEntry,
    MorphemeLexicon,
    MorphemeType,
    default_lemma_lexicon,
    default_morpheme_lexicon,
    formats,
)
from medqakit.covid import build_artificial_pairs


def tree_sha256(root):
    """{path relative to root: sha256 of its bytes} for every file under root."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def artificial_pairs(corpus, *args):
    """The pairs `build_artificial_pairs(corpus, path, *args)` writes to a
    temporary d4 file, read back, and its skip count."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d4.json"
        _emitted, skipped = build_artificial_pairs(corpus, path, *args)
        return formats.read_squad(path), skipped


# Worked example: template question over a four-sentence conclusions paragraph;
# the first sentence is the manually identified answer.
DIABETES_QUESTION = "What risks do patients with diabetes face with respect to COVID-19?"
DIABETES_ANSWER = (
    "There is evidence of increased incidence and severity of COVID-19 in patients with diabetes."
)
DIABETES_CONTEXT = (
    DIABETES_ANSWER
    + " COVID-19 could have effect on the pathophysiology of diabetes."
    + " Blood glucose control is important not only for patients who are infected with"
    + " COVID-19, but also for those without the disease."
    + " Innovations like telemedicine are useful to treat patients with diabetes in"
    + " today's times."
)

# Golden sentence for the lemma transformations.
OPTOTYPE_ORIGINAL = (
    "The ability to recognize different optotypes differs even if their critical details"
    " appear under the same visual angle."
)
OPTOTYPE_LEMMAS_REPLACED = (
    "The ability to recognize different optotype differ even if their critical detail"
    " appear under the same visual angle."
)
OPTOTYPE_LEMMAS_CONCATENATED = (
    "The ability to recognize different optotypes optotype differs differ even if their"
    " critical details detail appear under the same visual angle."
)


@pytest.fixture(scope="session")
def lemma_lexicon():
    return default_lemma_lexicon()


@pytest.fixture(scope="session")
def morpheme_lexicon():
    return default_morpheme_lexicon()


@pytest.fixture(scope="session")
def tiny_morpheme_lexicon():
    return MorphemeLexicon(
        [
            MorphemeEntry("dacryo", "tear", MorphemeType.ROOT),
            MorphemeEntry("aden", "gland", MorphemeType.ROOT),
            MorphemeEntry("itis", "inflammation", MorphemeType.TERMINAL),
        ]
    )


_WORDS = (
    "alpha beta gamma delta outcome cohort trial patients diabetes asthma obesity"
    " treatment response therapy severity glucose telemedicine evidence incidence"
    " control disease infection recovery mortality admission biomarker".split()
)


def make_sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(4, 9))]
    return (" ".join(words)).capitalize() + "."


def make_paragraph(rng: random.Random, n_sentences: int | None = None) -> str:
    n = n_sentences if n_sentences is not None else rng.randint(1, 5)
    return " ".join(make_sentence(rng) for _ in range(n))


def make_question(rng: random.Random) -> str:
    return f"Does {rng.choice(_WORDS)} affect {rng.choice(_WORDS)} in {rng.choice(_WORDS)}?"


def make_abstract_record(rng: random.Random, pmid: str) -> dict:
    covid = rng.random() < 0.6
    conclusions = make_paragraph(rng)
    if covid:
        conclusions = "COVID-19 outcomes were assessed in this cohort. " + conclusions
    return {
        "pmid": pmid,
        "title": make_question(rng) if rng.random() < 0.7 else f"Report {pmid}",
        "pub_date": rng.choice(["2019-05-01", "2020-03-01", "2020-11-15", "2021-06-30"]),
        "keywords": ["SARS-CoV-2"] if rng.random() < 0.2 else [],
        "sections": [
            {"label": "background", "text": make_paragraph(rng)},
            {"label": "results", "text": make_paragraph(rng)},
            {"label": rng.choice(["conclusions", "conclusion", "answer"]), "text": conclusions},
        ],
    }


def make_corpus_lines(n: int, seed: int = 20201101) -> list[str]:
    rng = random.Random(seed)
    return [json.dumps(make_abstract_record(rng, f"{10000 + i}")) for i in range(n)]
