"""Cold start: each command imports only the modules it runs and never
`dataclasses` or `logging`, `import medqakit` imports none and keeps every
name, short digests need no OpenSSL, and the config defaults agree with the
modules they stand in for.

The contract is checked on `sys.modules` in a fresh interpreter per
command, not on timings."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import medqakit
from medqakit import CovidFilterPolicy, SplitSpec, digest
from medqakit.cli import CONFIG_FIELDS
from medqakit.schedule import _BY_ID, DEFAULT_HOLDOUT_FRACTIONS

from tests.test_cli import mark_first_per_group, write_config, write_corpus, write_sources

ROOT = Path(__file__).resolve().parent.parent

# Records the modules a command imports beyond those of a bare interpreter.
PROBE = """
import sys
before = set(sys.modules)
from medqakit.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    handle.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# command: (medqakit modules it must not import, one it must import)
CONTRACT = {
    "label": ({"covid", "morph", "schedule"}, "weak_label"),
    "curate artificial": ({"morph", "schedule"}, "covid"),
    "curate templates-export": ({"morph", "schedule"}, "covid"),
    "curate templates-import": ({"morph", "schedule"}, "covid"),
    "schedule": ({"covid", "spool"}, "morph"),
    "eval": ({"covid", "morph", "schedule"}, "metrics"),
}


def python(root: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("MEDQAKIT_OUTPUT_DIR", None)
    return subprocess.run(
        [sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """The modules each command of one pipeline run imported, by command."""
    root = tmp_path_factory.mktemp("cold")
    write_sources(root)
    write_corpus(root)
    config = str(write_config(root))
    gold = root / "out" / "d1.json"
    predictions = root / "predictions.jsonl"
    argvs = {
        "label": ["label", "--config", config],
        "curate artificial": ["curate", "artificial", "--config", config],
        "curate templates-export": ["curate", "templates-export", "--config", config],
        "curate templates-import": [
            "curate", "templates-import", "--config", config, "--review", str(root / "reviewed.tsv")
        ],
        "schedule": ["schedule", "--config", config],
        "eval": ["eval", str(gold), str(predictions), "--task", "extractive"],
    }
    modules = {}
    for command, argv in argvs.items():
        if command == "curate templates-import":
            mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
        if command == "eval":
            articles = json.loads(gold.read_text())["data"]
            ids = [qa["id"] for a in articles for p in a["paragraphs"] for qa in p["qas"]]
            lines = (json.dumps({"id": i, "predicted_text": "x"}) + "\n" for i in ids)
            predictions.write_text("".join(lines))
        listing = root / "modules.txt"
        result = python(root, "-c", PROBE, str(listing), *argv)
        assert result.returncode == 0, (command, result.stderr)
        modules[command] = set(listing.read_text().split("\n"))
    return modules


@pytest.mark.parametrize("command", list(CONTRACT))
def test_each_command_imports_only_the_modules_it_runs(loaded, command):
    forbidden, needed = CONTRACT[command]
    medqakit_modules = {m.partition(".")[2] for m in loaded[command] if m.startswith("medqakit.")}
    assert needed in medqakit_modules
    assert not medqakit_modules & forbidden, sorted(medqakit_modules & forbidden)
    assert "_hashlib" not in loaded[command]
    # records are named tuples; `inspect` is not checked, since from 3.12
    # `importlib.resources` (morph, the template loader) imports it
    assert "dataclasses" not in loaded[command]
    # warnings are printed by `errors.warn`; `tokenize`, `linecache` and
    # `threading` are not checked, since 3.12+ load the first two through
    # `inspect` and 3.10 loads `threading` without `logging`
    assert "logging" not in loaded[command]


def test_import_medqakit_imports_no_submodule(tmp_path):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import medqakit\n"
        "print('\\n'.join(sorted(m for m in set(sys.modules) - before if 'medqakit' in m)))\n"
    )
    result = python(tmp_path, "-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["medqakit"]


# Each name the eager `medqakit/__init__` imported, by the module it came from.
EAGER = {
    "bm25": "Bm25Params best_sentence tokenize",
    "corpus": "AbstractSection DatasetSubsetId Provenance QAPair Sentence StructuredAbstract"
    " YesNoInstance normalize_answer parse_abstract_record segment_sentences",
    "covid": "CovidFilterPolicy CurationCandidate ParameterVocabulary QuestionTemplate"
    " build_artificial_pairs covid_filter extract_conclusion_section extract_question"
    " export_review_queue import_review_queue instantiate_templates",
    "errors": "ConfigError ContractViolation ParseError ValidationError",
    "metrics": "EvalReport Prediction evaluate exact_match token_f1",
    "morph": "Decomposition LemmaLexicon MorphemeEntry MorphemeLexicon MorphemeType"
    " TransformChain TransformKind TransformSpec TransformTarget decompose"
    " default_lemma_lexicon default_morpheme_lexicon lemmatize_token load_lemma_lexicon"
    " load_morpheme_lexicon meanings_of transform_dataset",
    "schedule": "FoldSpec Schedule SplitSpec StageSpec TargetSplit"
    " emit_schedule make_folds make_target_split",
    "weak_label": "SourceInstance WeakLabelRecord build_prime_subset select_answer_sentence"
    " weak_label",
}


def test_every_exported_name_is_the_object_the_eager_package_bound():
    eager = {name: module for module, names in EAGER.items() for name in names.split()}
    assert sorted(medqakit.__all__) == sorted(eager)
    assert set(medqakit.__all__) <= set(dir(medqakit))
    for name, module in eager.items():
        bound = getattr(importlib.import_module(f"medqakit.{module}"), name)
        assert getattr(medqakit, name) is bound, name
    with pytest.raises(AttributeError):
        medqakit.no_such_name


@pytest.mark.parametrize(
    "first", ["import medqakit.weak_label", "from medqakit import weak_label"]
)
def test_weak_label_stays_the_function_once_its_module_is_imported(tmp_path, first):
    code = (
        f"import sys\nimport medqakit\n{first}\nimport medqakit.weak_label\n"
        "assert medqakit.weak_label is sys.modules['medqakit.weak_label'].weak_label\n"
        "from medqakit import weak_label\nassert weak_label is medqakit.weak_label\n"
    )
    result = python(tmp_path, "-c", code)
    assert result.returncode == 0, result.stderr


INPUTS = {
    "empty": b"",
    "ascii": b'{"seed": 13, "schedules": ["1", "baseline"]}',
    "non-ascii": "réponse – COVID-19 ≥ 2019 ✓ 新型冠状病毒".encode("utf-8"),
    "1 MiB": bytes(range(256)) * 4096,
}


@pytest.mark.parametrize("data", INPUTS.values(), ids=INPUTS.keys())
def test_builtin_digests_equal_hashlib(data):
    assert digest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert digest.sha256(data).digest() == hashlib.sha256(data).digest()
    assert digest.sha1(data).hexdigest() == hashlib.sha1(data).hexdigest()


def test_digests_come_from_the_builtin_modules_where_they_exist():
    builtin = [m for m in ("_sha2", "_sha256") if importlib.util.find_spec(m)]
    if builtin:
        assert digest.sha256.__module__ == builtin[0]
    if importlib.util.find_spec("_sha1"):
        assert digest.sha1.__module__ == "_sha1"


def test_config_defaults_agree_with_covid_and_schedule():
    defaults = {field.key: field.default for field in CONFIG_FIELDS}
    policy = CovidFilterPolicy()
    assert defaults["covid_filter.phrases"] == list(policy.phrases)
    assert defaults["covid_filter.cutoff_date"] == policy.cutoff_date.isoformat()
    fractions = {s.value: f for s, f in DEFAULT_HOLDOUT_FRACTIONS.items()}
    assert defaults["split_fractions"] == fractions
    assert {s.value: f for s, f in SplitSpec(seed=0).fractions.items()} == fractions
    assert defaults["schedules"] == list(_BY_ID)
