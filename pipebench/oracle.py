"""Computations made apart from medqakit, used to check its outputs.

Each function re-implements a rule from the package README or docstrings
with the simplest code that states it: BM25 by direct scoring, combining-form
decomposition by enumerating every segmentation, the COVID and term filters
rule by rule, and SQuAD-style EM/F1. Nothing here imports medqakit.
"""

from __future__ import annotations

import json
import math
import re
import string
from collections import Counter
from datetime import date
from pathlib import Path

# -- BM25 weak labels ---------------------------------------------------------

_TOKEN_RE = re.compile(r"[0-9a-z]+")
# The 33-word English stopword list the weak labeler applies to queries.
QUERY_STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)
K1, B = 1.2, 0.75


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def best_sentence_index(question: str, sentences: list[str], stopwords=QUERY_STOPWORDS) -> int:
    """Index of the BM25-best sentence; smoothed idf over these sentences
    alone, stopwords dropped from the query only, earliest index on ties."""
    query = [t for t in tokenize(question) if t not in stopwords]
    docs = [tokenize(s) for s in sentences]
    n = len(docs)
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    avgdl = sum(len(d) for d in docs) / n
    best, best_score = 0, -1.0
    for i, doc in enumerate(docs):
        tf = Counter(doc)
        norm = K1 * (1.0 - B + B * (len(doc) / avgdl if avgdl else 0.0))
        score = 0.0
        for token in query:
            freq = tf.get(token, 0)
            if freq == 0:
                continue
            idf = math.log(1.0 + (n - df[token] + 0.5) / (df[token] + 0.5))
            score += idf * (freq * (K1 + 1.0)) / (freq + norm)
        if score > best_score:
            best, best_score = i, score
    return best


# -- combining-form decomposition ----------------------------------------------

MIN_DECOMPOSE_LENGTH = 6
_PATTERNS = (
    ("root",),
    ("prefix", "root"),
    ("root", "root"),
    ("root", "terminal"),
    ("prefix", "root", "root"),
    ("prefix", "root", "terminal"),
    ("root", "root", "terminal"),
    ("prefix", "root", "root", "terminal"),
)
_TYPE_RANK = {"prefix": 0, "root": 1, "terminal": 2}


def load_lexicon(path: Path) -> dict[str, dict[str, str]]:
    """MORPHEME|MEANING|TYPE lines -> {type: {morpheme: meaning}}."""
    lexicon: dict[str, dict[str, str]] = {t: {} for t in _TYPE_RANK}
    for line in path.read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            morpheme, meaning, mtype = (f.strip() for f in body.split("|"))
            lexicon[mtype.lower()][morpheme.lower()] = meaning
    return lexicon


def _segmentations(word: str, pattern: tuple[str, ...], lexicon, pos: int = 0):
    if not pattern:
        if pos == len(word):
            yield ()
        return
    for end in range(pos + 1, len(word) + 1):
        piece = word[pos:end]
        if piece in lexicon[pattern[0]]:
            for rest in _segmentations(word, pattern[1:], lexicon, end):
                yield ((piece, pattern[0]),) + rest


def decompose(word: str, lexicon) -> list[tuple[str, str]] | None:
    """Every segmentation matching prefix? root root? terminal?; the fewest
    parts win, then longer parts from the left, then type order."""
    if len(word) < MIN_DECOMPOSE_LENGTH or not word.isalpha() or word != word.lower():
        return None
    best_key, best = None, None
    for pattern in _PATTERNS:
        for parts in _segmentations(word, pattern, lexicon):
            key = (
                len(parts),
                tuple(-len(m) for m, _ in parts),
                tuple(_TYPE_RANK[t] for _, t in parts),
            )
            if best_key is None or key < best_key:
                best_key, best = key, list(parts)
    return best


# -- COVID curation rules ------------------------------------------------------

COVID_PHRASES = ("COVID", "SARS-CoV-2", "novel coronavirus")
CUTOFF = date(2019, 11, 1)
_CONCLUSION_INCLUDE = ("ANSWER", "CONCLUSION", "CONCULSION", "CONLUSION")
_CONCLUSION_EXCLUDE = ("RESULT", "SUMMARY", "FINDING", "DISCUSSION")


def _labels(record: dict) -> list[str]:
    return [str(s["label"]).strip().upper() for s in record["sections"]]


def _searchable(record: dict) -> list[str]:
    texts = []
    for section, label in zip(record["sections"], _labels(record)):
        texts += [section["text"], label]
    return texts + list(record.get("keywords") or ())


def passes_covid_filter(record: dict) -> bool:
    """Dated on/after the cutoff and a phrase in a section text, a section
    label or a keyword (case-insensitive); the title is not searched."""
    if not record.get("pub_date"):
        return False
    if date.fromisoformat(record["pub_date"]) < CUTOFF:
        return False
    needles = [p.lower() for p in COVID_PHRASES]
    return any(n in h.lower() for h in _searchable(record) for n in needles)


def question_of(record: dict) -> str | None:
    for section, label in zip(record["sections"], _labels(record)):
        if label == "QUESTION" and section["text"].strip():
            return section["text"].strip()
    title = record.get("title", "")
    return title.strip() if "?" in title else None


def conclusion_index(record: dict) -> int | None:
    for i, label in enumerate(_labels(record)):
        if any(k in label for k in _CONCLUSION_INCLUDE) and not any(
            k in label for k in _CONCLUSION_EXCLUDE
        ):
            return i
    return None


def answer_section_indices(record: dict) -> list[int]:
    """RESULT sections (never DISCUSSION) and the conclusion, in order."""
    conclusion = conclusion_index(record)
    return [
        i
        for i, label in enumerate(_labels(record))
        if ("RESULT" in label and "DISCUSSION" not in label) or i == conclusion
    ]


def term_texts(record: dict) -> list[str]:
    """Lowercased texts the review search matches terms in: the title too."""
    return [record.get("title", "").lower()] + [t.lower() for t in _searchable(record)]


def mentions(texts: list[str], terms: tuple[str, ...]) -> bool:
    return any(term.lower() in text for text in texts for term in terms)


def template_questions(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(question, parameters) for every template instantiation, in order."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    vocabs = {v["name"]: v["values"] for v in raw["vocabularies"]}
    out = []
    for template in raw["templates"]:
        names = template["slot_types"]
        axes: list[list[tuple[str, ...]]] = []
        seen = []
        for name in names:
            values = vocabs[name]
            if isinstance(values[0], list):
                if name not in seen:
                    seen.append(name)
                    axes.append([tuple(v) for v in values])
            else:
                axes.append([(v,) for v in values])
        combos = [()]
        for axis in axes:
            combos = [c + v for c in combos for v in axis]
        for params in combos:
            question = template["pattern"]
            for value in params:
                question = re.sub(r"\[[A-Z][A-Z_]*\]", lambda _m: value, question, count=1)
            out.append((question, params))
    return out


def term_aliases(path: Path) -> dict[str, tuple[str, ...]]:
    raw = json.loads(path.read_text(encoding="utf-8"))
    lookup = {}
    for vocab in raw["vocabularies"]:
        aliases = vocab.get("aliases") or {}
        for value in vocab["values"]:
            for part in value if isinstance(value, list) else [value]:
                lookup[part] = (part,) + tuple(aliases.get(part, ()))
    return lookup


# -- SQuAD scoring ---------------------------------------------------------------

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = str.maketrans("", "", string.punctuation)


def normalize(text: str) -> str:
    return " ".join(_ARTICLES.sub(" ", text.lower().translate(_PUNCT)).split())


def squad_scores(golds: dict[str, str], predictions: dict[str, str]) -> tuple[float, float]:
    """(EM %, F1 %) of predictions against one gold answer per id."""
    em = f1 = 0.0
    for pair_id in sorted(golds):
        pred, gold = normalize(predictions[pair_id]), normalize(golds[pair_id])
        em += pred == gold
        p, g = pred.split(), gold.split()
        overlap = sum((Counter(p) & Counter(g)).values())
        if not p and not g:
            f1 += 1.0
        elif overlap:
            precision, recall = overlap / len(p), overlap / len(g)
            f1 += 2 * precision * recall / (precision + recall)
    n = len(golds)
    return 100.0 * em / n, 100.0 * f1 / n
