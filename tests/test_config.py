"""The run-config boundary: every key is type-checked where the file is read,
a bad value exits 1 naming the key, and the echoed config reruns as itself."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medqakit.bm25 import Bm25Params
from medqakit.cli import CONFIG_FIELDS, build_parser, load_run_config, main
from medqakit.errors import ValidationError

from tests.test_cli import mark_first_per_group, write_config, write_corpus, write_sources


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_defaults_echoed(monkeypatch):
    monkeypatch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
    config = load_run_config(build_parser().parse_args(["schedule"]))
    assert config.to_dict() == {
        "seed": 13,
        "output_dir": "out",
        "bm25": {"k1": 1.2, "b": 0.75},
        "covid_filter": {
            "phrases": ["COVID", "SARS-CoV-2", "novel coronavirus"],
            "cutoff_date": "2019-11-01",
        },
        "curation": {"queue_depth": 50},
        "split_fractions": {"d1": 0.1, "d3": 0.1, "d4": 0.1},
        "schedules": ["1", "2", "3", "4", "baseline", "I", "II", "III", "IV", "V", "VI",
                      "VII", "VIII", "IX", "X", "XI", "XII"],
        "paths": {},
    }


def test_json_numbers_and_dates_are_normalized(tmp_path, monkeypatch):
    monkeypatch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "output_dir": "out/./x/",
                "bm25": {"k1": 2, "unused": "ignored"},
                "covid_filter": {"cutoff_date": "2020-01-01"},
                "split_fractions": {"d1": 0.5},
                "unused": [1, 2],
            }
        )
    )
    echoed = load_run_config(build_parser().parse_args(["label", "--config", str(path)])).to_dict()
    assert echoed["output_dir"] == "out/x"
    assert echoed["bm25"] == {"k1": 2.0, "b": 0.75}
    assert echoed["covid_filter"]["cutoff_date"] == "2020-01-01"
    assert echoed["split_fractions"] == {"d1": 0.5}
    assert "unused" not in echoed


BAD_CONFIGS = [
    ({"seed": "abc"}, "config seed: expected an integer, got string"),
    ({"seed": 13.0}, "config seed: expected an integer, got number"),
    ({"seed": True}, "config seed: expected an integer, got boolean"),
    ({"output_dir": None}, "config output_dir: expected a path, got null"),
    ({"covid_filter": {"cutoff_date": "2019-13-01"}}, "config covid_filter.cutoff_date"),
    ({"covid_filter": {"cutoff_date": 20191101}}, "config covid_filter.cutoff_date"),
    ({"covid_filter": {"cutoff_date": "20200101"}}, "config covid_filter.cutoff_date"),
    ({"covid_filter": {"cutoff_date": "2019-W44"}}, "config covid_filter.cutoff_date"),
    ({"covid_filter": {"phrases": "COVID"}}, "config covid_filter.phrases: expected an array"),
    ({"covid_filter": {"phrases": []}}, "at least one phrase"),
    (
        {"covid_filter": {"phrases": ["COVID", "novel\ncoronavirus"]}},
        "config covid_filter.phrases: 'novel\\ncoronavirus' holds a tab or line break",
    ),
    ({"covid_filter": {"phrases": ["\tCOVID"]}}, "config covid_filter.phrases: '\\tCOVID' holds a tab"),
    ({"covid_filter": "COVID"}, "config covid_filter: expected an object, got string"),
    ({"curation": {"queue_depth": "x"}}, "config curation.queue_depth: expected an integer"),
    ({"curation": {"queue_depth": -1}}, "config curation.queue_depth: expected 0 or more, got -1"),
    ({"bm25": {"k1": "fast"}}, "config bm25.k1: expected a number, got string"),
    ({"bm25": None}, "config bm25: expected an object, got null"),
    ({"bm25": {"b": 2}}, "b must be in [0, 1]"),
    ({"bm25": {"k1": float("nan")}}, "config bm25.k1: expected a finite number, got nan"),
    ({"bm25": {"b": float("-inf")}}, "config bm25.b: expected a finite number, got -inf"),
    ({"bm25": {"k1": -(10**400)}}, "config bm25.k1: expected a finite number, got an integer too"),
    ({"split_fractions": {"d9": 0.1}}, "config split_fractions.d9: unknown subset"),
    ({"split_fractions": {"d1": "0.1"}}, "config split_fractions.d1: expected a number"),
    ({"split_fractions": {"d1": 5.0}}, "config split_fractions.d1: expected a number in (0, 1)"),
    ({"split_fractions": {"d3": 0}}, "config split_fractions.d3: expected a number in (0, 1)"),
    ({"split_fractions": {"d4": 1}}, "config split_fractions.d4: expected a number in (0, 1)"),
    ({"split_fractions": [0.1]}, "config split_fractions: expected an object, got array"),
    ({"split_fractions": {"d1": float("nan")}}, "config split_fractions.d1: expected a finite"),
    ({"schedules": "baseline"}, "config schedules: expected an array of strings, got string"),
    ({"schedules": [1]}, "config schedules: expected an array of strings, got array"),
    ({"paths": [["pqa_l", "x.jsonl"]]}, "config paths: expected an object, got array"),
    ({"paths": {"pqa_l": 3}}, "config paths.pqa_l: expected a path or null, got number"),
    ({"paths": {"pqa_l": ["a.jsonl"]}}, "config paths.pqa_l: expected a path or null"),
    ({"paths": {"morpheme_lexicon": 3}}, "config paths.morpheme_lexicon: expected a path, an"),
    ({"paths": {"lemma_exceptions": ["a", 3]}}, "config paths.lemma_exceptions"),
    ({"paths": {"pqa_l": ""}}, "config paths.pqa_l: expected a path, got an empty string"),
    ({"paths": {"lemma_exceptions": ""}}, "config paths.lemma_exceptions: expected a path, got an"),
    ({"paths": {"morpheme_lexicon": ["a", ""]}}, "config paths.morpheme_lexicon: expected a path"),
    ({"schedules": []}, "config schedules: expected at least one schedule id"),
    ({"schedules": ["1", "I", "1"]}, "config schedules: '1' is listed twice"),
    ({"schedules": ["1", "XIII"]}, "config schedules: unknown schedule 'XIII'"),
]


@pytest.mark.parametrize("command", [["label"], ["curate", "artificial"], ["schedule"]])
@pytest.mark.parametrize("override, message", BAD_CONFIGS)
def test_bad_value_exits_1_naming_the_key(tmp_path, capsys, command, override, message):
    config = write_config(tmp_path, **override)
    code, err = run([*command, "--config", str(config)], capsys)
    assert code == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k1", "nan"], "config bm25.k1: expected a finite number, got nan"),
        (["--b", "inf"], "config bm25.b: expected a finite number, got inf"),
        (["--k1", "1e309"], "config bm25.k1: expected a finite number, got inf"),
    ],
)
def test_a_number_flag_that_is_not_finite_exits_1(tmp_path, capsys, flags, message):
    config = write_config(tmp_path)
    code, err = run(["label", "--config", str(config), *flags], capsys)
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"bm25": {"k1": 1e309}}', "config bm25.k1: expected a finite number, got inf"),
        ('{"bm25": {"b": NaN}}', "config bm25.b: expected a finite number, got nan"),
        ('{"bm25": {"k1": Infinity}}', "config bm25.k1: expected a finite number, got inf"),
        (
            '{"bm25": {"k1": %s}}' % ("9" * 400),
            "config bm25.k1: expected a finite number, got an integer too large",
        ),
    ],
    ids=["1e309", "NaN", "Infinity", "400 digits"],
)
def test_a_number_in_the_file_that_is_not_finite_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, err = run(["label", "--config", str(path), "--output-dir", str(tmp_path / "out")], capsys)
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_bm25_params_refuse_nan():
    with pytest.raises(ValidationError, match="k1 must be non-negative, got nan"):
        Bm25Params(k1=float("nan"))
    with pytest.raises(ValidationError, match="b must be in"):
        Bm25Params(b=float("nan"))


@pytest.mark.parametrize("command", [["label"], ["curate", "artificial"], ["schedule"]])
def test_an_empty_output_dir_exits_1_writing_nothing(tmp_path, capsys, monkeypatch, command):
    """Path("") is the working directory: the echoed config.json would land there."""
    monkeypatch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
    config = write_config(tmp_path, output_dir="")
    monkeypatch.chdir(tmp_path)
    code, err = run([*command, "--config", str(config)], capsys)
    assert (code, err) == (1, "error: config output_dir: expected a path, got an empty string\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_an_empty_output_dir_flag_falls_back_to_the_env_and_the_file(tmp_path, monkeypatch):
    write_sources(tmp_path)
    config = write_config(tmp_path)
    monkeypatch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
    assert main(["label", "--config", str(config), "--output-dir", ""]) == 0
    assert (tmp_path / "out" / "d1.json").exists()
    monkeypatch.setenv("MEDQAKIT_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["label", "--config", str(config), "--output-dir", ""]) == 0
    assert (tmp_path / "env_out" / "d1.json").exists()


def test_a_repeated_schedule_flag_exits_1(tmp_path, capsys):
    config = write_config(tmp_path)
    repeated = ["--schedule", "1", "--schedule", "1"]
    code, err = run(["schedule", "--config", str(config), *repeated], capsys)
    assert code == 1
    assert "config schedules: '1' is listed twice" in err
    assert not (tmp_path / "out").exists()


def test_zero_queue_depth_exports_an_empty_queue(tmp_path):
    write_sources(tmp_path)
    write_corpus(tmp_path)
    config = write_config(tmp_path, curation={"queue_depth": 0})
    assert main(["curate", "templates-export", "--config", str(config)]) == 0
    assert len((tmp_path / "out" / "review_queue.tsv").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "expected a JSON object, got array"),
        ('"config"', "expected a JSON object, got string"),
        ("null", "expected a JSON object, got null"),
        ("{", "malformed JSON"),
    ],
)
def test_non_object_file_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, err = run(["label", "--config", str(path)], capsys)
    assert code == 1
    assert message in err


def test_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    code, err = run(["label", "--config", str(path)], capsys)
    assert code == 1
    assert f"{path}: not UTF-8 text" in err


def write_lexicons(root):
    (root / "roots.txt").write_text("dacryo|tear|root\naden|gland|root\n")
    (root / "terminals.txt").write_text("itis|inflammation|terminal\n")
    (root / "lemmas.txt").write_text("analyses|analysis\n")


def test_rerun_from_echoed_config_reproduces_it(tmp_path):
    write_sources(tmp_path)
    write_corpus(tmp_path)
    write_lexicons(tmp_path)
    config = write_config(tmp_path)
    raw = json.loads(config.read_text())
    morphemes = [str(tmp_path / "roots.txt"), str(tmp_path / "terminals.txt")]
    raw["paths"].update(morpheme_lexicon=morphemes, lemma_exceptions=[str(tmp_path / "lemmas.txt")])
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"

    schedule = ["schedule", "--schedule", "II", "--schedule", "IV", "--seed", "7"]
    for argv in (["label"], schedule):
        summary_name = f"{argv[0]}_summary.json"
        assert main([*argv, "--config", str(config)]) == 0
        echoed = (out / "config.json").read_bytes()
        summary = (out / summary_name).read_bytes()
        assert main([argv[0], "--config", str(out / "config.json")]) == 0
        assert (out / "config.json").read_bytes() == echoed
        assert (out / summary_name).read_bytes() == summary
    assert json.loads(echoed)["paths"]["morpheme_lexicon"] == morphemes


# Fuzzing: mutate one key of a working config, then run the commands that read
# it. Whatever the value, each command ends in an exit code, never an exception.

FILE_KEYS = [f.key for f in CONFIG_FIELDS] + [
    "",  # the whole file
    "bm25",
    "covid_filter",
    "curation",
    "paths.pqa_l",
    "paths.covid_corpus",
    "paths.morpheme_lexicon",
    "paths.lemma_exceptions",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(["", "x", "baseline", "builtin", "d9", "2019-13-01", "2020-02-30"]),
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.sampled_from(["d1", "d9", "pqa_l", "k1", "x"]), children, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_sources(root)
    write_corpus(root)
    config = write_config(root, schedules=["4", "baseline", "II"])
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
        assert main(["label", "--config", str(config)]) == 0
        assert main(["curate", "artificial", "--config", str(config)]) == 0
        assert main(["curate", "templates-export", "--config", str(config)]) == 0
        mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
        review = ["--review", str(root / "reviewed.tsv")]
        assert main(["curate", "templates-import", "--config", str(config), *review]) == 0
    return root, json.loads(config.read_text())


@given(key=st.sampled_from(FILE_KEYS), value=JSON_VALUES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_config_never_raises(fuzz_workspace, key, value):
    root, base = fuzz_workspace
    raw = json.loads(json.dumps(base))
    if key == "":
        raw = value
    else:
        group, _, name = key.rpartition(".")
        (raw.setdefault(group, {}) if group else raw)[name] = value
    path = root / "fuzzed.json"
    path.write_text(json.dumps(raw))
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
        patch.chdir(root)  # fuzzed output dirs are relative: keep them in the workspace
        for command in (["label"], ["curate", "artificial"], ["schedule"]):
            assert main([*command, "--config", str(path)]) in (0, 1, 2)
