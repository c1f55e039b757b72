import inspect
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from medqakit import formats
from medqakit.cli import main

from tests.conftest import make_corpus_lines, make_paragraph, make_question, tree_sha256


def write_sources(root: Path, n_l=30, n_a=40, seed=5):
    rng = random.Random(seed)
    for name, count in (("pqa_l", n_l), ("pqa_a", n_a)):
        lines = []
        for i in range(count):
            lines.append(
                json.dumps(
                    {
                        "id": f"{name}-{i:04d}",
                        "question": make_question(rng),
                        "context": make_paragraph(rng, rng.randint(1, 4)),
                        "label": rng.choice(["yes", "no"]),
                    }
                )
            )
        (root / f"{name}.jsonl").write_text("\n".join(lines) + "\n")


def write_corpus(root: Path, n=40):
    (root / "covid.jsonl").write_text("\n".join(make_corpus_lines(n)) + "\n")


def write_config(root: Path, **extra) -> Path:
    config = {
        "seed": 13,
        "output_dir": str(root / "out"),
        "paths": {
            "pqa_l": str(root / "pqa_l.jsonl"),
            "pqa_a": str(root / "pqa_a.jsonl"),
            "covid_corpus": str(root / "covid.jsonl"),
        },
        "curation": {"queue_depth": 4},
        "schedules": ["1", "2", "3", "4", "baseline", "II", "III", "XII"],
    }
    config.update(extra)
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def mark_first_per_group(queue_path: Path, reviewed_path: Path):
    lines = queue_path.read_text().splitlines()
    seen, out = set(), [lines[0]]
    for line in lines[1:]:
        question, pmid, idx, text, flag = line.split("\t")
        if (question, pmid) not in seen:
            seen.add((question, pmid))
            flag = "x"
        out.append("\t".join((question, pmid, idx, text, flag)))
    reviewed_path.write_text("\n".join(out) + "\n")


@pytest.fixture()
def workspace(tmp_path):
    write_sources(tmp_path)
    write_corpus(tmp_path)
    config = write_config(tmp_path)
    return tmp_path, config


def run_pipeline(root: Path, config: Path):
    assert main(["label", "--config", str(config)]) == 0
    assert main(["curate", "artificial", "--config", str(config)]) == 0
    assert main(["curate", "templates-export", "--config", str(config)]) == 0
    mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
    assert (
        main(
            [
                "curate",
                "templates-import",
                "--config",
                str(config),
                "--review",
                str(root / "reviewed.tsv"),
            ]
        )
        == 0
    )
    assert main(["schedule", "--config", str(config)]) == 0


class TestLabelCommand:
    def test_emits_squad_files_and_summary(self, workspace):
        root, config = workspace
        assert main(["label", "--config", str(config)]) == 0
        d1 = json.loads((root / "out" / "d1.json").read_text())
        assert d1["version"] == "1.1"
        assert len(d1["data"]) <= 30
        summary = json.loads((root / "out" / "label_summary.json").read_text())
        assert summary["subsets"]["d1"]["emitted"] == len(d1["data"])
        assert "config_hash" in summary["provenance"]

    def test_missing_source_path_exits_nonzero(self, tmp_path, capsys):
        write_corpus(tmp_path)
        config = write_config(tmp_path)
        (tmp_path / "pqa_l.jsonl").unlink(missing_ok=True)
        assert main(["label", "--config", str(config)]) == 1
        assert "pqa_l" in capsys.readouterr().err

    def test_subset_flag_limits_labeling(self, workspace):
        root, config = workspace
        assert main(["label", "--config", str(config), "--subset", "pqa_a"]) == 0
        assert (root / "out" / "d2.json").exists()
        assert not (root / "out" / "d1.json").exists()

    def test_a_repeated_subset_flag_exits_1_writing_nothing(self, workspace, capsys):
        root, config = workspace
        repeated = ["--subset", "pqa_l", "--subset", "pqa_a", "--subset", "pqa_l"]
        assert main(["label", "--config", str(config), *repeated]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --subset: 'pqa_l' is listed twice\n"
        assert captured.out == ""
        assert not (root / "out").exists()

    def test_anchoring_in_outputs(self, workspace):
        root, config = workspace
        main(["label", "--config", str(config)])
        for name in ("d1.json", "d2.json"):
            data = json.loads((root / "out" / name).read_text())
            for article in data["data"]:
                for para in article["paragraphs"]:
                    for qa in para["qas"]:
                        answer = qa["answers"][0]
                        start = answer["answer_start"]
                        assert (
                            para["context"][start : start + len(answer["text"])] == answer["text"]
                        )


class TestCurateCommand:
    def test_artificial_empty_corpus_gives_empty_d4(self, tmp_path):
        write_sources(tmp_path)
        (tmp_path / "covid.jsonl").write_text(
            json.dumps(
                {
                    "pmid": "1",
                    "title": "No question here",
                    "pub_date": "2018-01-01",
                    "keywords": [],
                    "sections": [{"label": "conclusions", "text": "Ordinary text."}],
                }
            )
            + "\n"
        )
        config = write_config(tmp_path)
        assert main(["curate", "artificial", "--config", str(config)]) == 0
        d4 = json.loads((tmp_path / "out" / "d4.json").read_text())
        assert d4["data"] == []

    def test_artificial_d4_bytes_do_not_depend_on_corpus_order(self, tmp_path):
        """pmids of 1 to 5 digits, whose string order is not their numeric
        order, in ascending, shuffled and descending string order."""
        rng = random.Random(11)
        records = [json.loads(line) for line in make_corpus_lines(60)]
        for record, pmid in zip(records, rng.sample(range(1, 100_000), len(records))):
            record["pmid"] = str(pmid // 10 ** rng.randint(0, 4))
        records = list({r["pmid"]: r for r in records}.values())
        shuffled = rng.sample(records, len(records))
        ascending = sorted(records, key=lambda r: r["pmid"])
        descending = ascending[::-1]
        config = str(write_config(tmp_path))
        written = []
        for order in (ascending, shuffled, descending):
            (tmp_path / "covid.jsonl").write_text("".join(json.dumps(r) + "\n" for r in order))
            assert main(["curate", "artificial", "--config", config]) == 0
            out = tmp_path / "out"
            assert sorted(p.name for p in out.iterdir()) == [
                "config.json", "curate_artificial_summary.json", "d4.json"
            ]
            written.append((out / "d4.json").read_bytes())
        assert written[0] == written[1] == written[2]
        ids = [a["title"] for a in json.loads(written[0])["data"]]
        assert len(ids) > 10 and ids == sorted(ids)
        assert [int(i[3:]) for i in ids] != sorted(int(i[3:]) for i in ids)

    def test_export_then_import(self, workspace):
        root, config = workspace
        assert main(["curate", "templates-export", "--config", str(config)]) == 0
        queue = root / "out" / "review_queue.tsv"
        assert queue.exists()
        queries = (root / "out" / "search_queries.txt").read_text().splitlines()
        assert len(queries) == 14  # 5 conditions + 6 treatments + 3 pairs
        mark_first_per_group(queue, root / "reviewed.tsv")
        assert (
            main(
                [
                    "curate",
                    "templates-import",
                    "--config",
                    str(config),
                    "--review",
                    str(root / "reviewed.tsv"),
                ]
            )
            == 0
        )
        d3 = json.loads((root / "out" / "d3.json").read_text())
        for article in d3["data"]:
            for para in article["paragraphs"]:
                for qa in para["qas"]:
                    assert qa["subset"] == "d3"


    @pytest.mark.parametrize("command", ["artificial", "templates-export"])
    @pytest.mark.parametrize(
        "record, field",
        [
            ({"sections": [{"label": "conclusions", "text": None}]}, "'sections[0].text'"),
            ({"title": None}, "'title'"),
            ({"keywords": "COVID"}, "'keywords'"),
        ],
    )
    def test_mistyped_abstract_field_exits_1(self, tmp_path, capsys, command, record, field):
        write_sources(tmp_path)
        write_corpus(tmp_path, n=3)
        base = {"pmid": "bad", "sections": [{"label": "conclusions", "text": "A."}]}
        with (tmp_path / "covid.jsonl").open("a") as handle:
            handle.write(json.dumps({**base, **record}) + "\n")
        config = write_config(tmp_path)
        assert main(["curate", command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"covid.jsonl line 4: field {field}: expected " in err
        assert "Traceback" not in err

    def test_malformed_template_config_exits_1(self, tmp_path, capsys):
        write_sources(tmp_path)
        write_corpus(tmp_path, n=3)
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps({"templates": [{"pattern": "Is [X] risky?"}]}))
        paths = {"covid_corpus": str(tmp_path / "covid.jsonl"), "templates": str(templates)}
        config = write_config(tmp_path, paths=paths)
        assert main(["curate", "templates-export", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{templates}: templates[0]: missing field 'template_id'" in err
        assert "Traceback" not in err


    def _export_tab_workspace(self, tmp_path):
        """A templates-export workspace that has already written its outputs once."""
        write_sources(tmp_path)
        write_corpus(tmp_path)
        templates = tmp_path / "templates.json"
        vocabulary = {"name": "xs", "values": ["diabetes", "asthma", "obesity"]}
        template = {"template_id": "t", "pattern": "Does [X] matter?", "slot_types": ["xs"]}
        templates.write_text(json.dumps({"templates": [template], "vocabularies": [vocabulary]}))
        paths = {"covid_corpus": str(tmp_path / "covid.jsonl"), "templates": str(templates)}
        config = write_config(tmp_path, paths=paths)
        assert main(["curate", "templates-export", "--config", str(config)]) == 0
        outputs = {p: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert len(outputs[tmp_path / "out" / "review_queue.tsv"].splitlines()) > 1
        return config, templates, outputs

    def test_template_with_tab_exits_1_and_keeps_the_earlier_queue(self, tmp_path, capsys):
        config, templates, outputs = self._export_tab_workspace(tmp_path)
        raw = json.loads(templates.read_text())
        raw["templates"][0]["pattern"] = "Does [X]\tmatter?"
        templates.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["curate", "templates-export", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{templates}: template t: question 'Does diabetes\\tmatter?'" in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in outputs} == outputs

    def test_alias_with_line_break_exits_1_and_keeps_the_earlier_outputs(self, tmp_path, capsys):
        config, templates, outputs = self._export_tab_workspace(tmp_path)
        raw = json.loads(templates.read_text())
        raw["vocabularies"][0]["aliases"] = {"diabetes": ["diabetes\nmellitus"]}
        templates.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["curate", "templates-export", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert (
            f"{templates}: vocabularies[0]: field 'aliases': 'diabetes\\nmellitus' holds a tab"
            in err
        )
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in outputs} == outputs

    @pytest.mark.parametrize("index", ["+1", " 1", "\u0660"])
    def test_import_with_non_digit_sentence_index_exits_1(self, workspace, capsys, index):
        root, config = workspace
        assert main(["curate", "templates-export", "--config", str(config)]) == 0
        mark_first_per_group(root / "out" / "review_queue.tsv", root / "reviewed.tsv")
        lines = (root / "reviewed.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[2] = index
        lines[1] = "\t".join(fields)
        (root / "reviewed.tsv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        review = ["--review", str(root / "reviewed.tsv")]
        assert main(["curate", "templates-import", "--config", str(config), *review]) == 1
        err = capsys.readouterr().err
        assert f"reviewed.tsv line 2: bad sentence_index {index!r}" in err
        assert "Traceback" not in err

    def test_pmid_with_line_break_exits_1_and_keeps_the_earlier_queue(self, tmp_path, capsys):
        config, _templates, outputs = self._export_tab_workspace(tmp_path)
        record = {
            "pmid": "0\u20281",
            "pub_date": "2020-03-01",
            "sections": [{"label": "results", "text": "Diabetes and COVID-19 were studied."}],
        }
        with (tmp_path / "covid.jsonl").open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        capsys.readouterr()
        assert main(["curate", "templates-export", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        queue = tmp_path / "out" / "review_queue.tsv"
        assert f"{queue}: question 'Does diabetes matter?', pmid '0\\u20281'" in err
        assert "Traceback" not in err
        assert queue.read_bytes() == outputs[queue]


class TestScheduleCommand:
    def test_full_pipeline_then_schedules(self, workspace):
        root, config = workspace
        run_pipeline(root, config)
        for schedule_id in ("1", "2", "3", "4", "baseline", "II", "III", "XII"):
            manifest = json.loads(
                (root / "out" / "schedules" / schedule_id / "manifest.json").read_text()
            )
            assert manifest["schedule_id"] == schedule_id
            for stage in manifest["stages"]:
                assert (root / "out" / "schedules" / schedule_id / stage["dataset_path"]).exists()

    def test_each_extractive_stage_rendered_once(self, workspace, monkeypatch):
        root, config = workspace
        run_pipeline(root, config)
        schedules = root / "out" / "schedules"
        first = {p: p.read_bytes() for p in schedules.rglob("*") if p.is_file()}
        n_pairs = sum(
            len(json.loads((root / "out" / f"{name}.json").read_text())["data"])
            for name in ("d1", "d2", "d3", "d4")
        )
        rendered, encoded = [], []
        write, encode = formats.write_squad_articles, formats.squad_article
        monkeypatch.setattr(
            formats, "write_squad_articles", lambda path, *a: rendered.append(path) or write(path, *a)
        )
        monkeypatch.setattr(formats, "squad_article", lambda pair: encoded.append(pair) or encode(pair))
        assert main(["schedule", "--config", str(config)]) == 0
        assert len(rendered) == 4
        # each pair written to the four distinct stages is encoded once, and
        # no held-out pair is encoded
        distinct = (("1", "stage1_d1"), ("2", "stage1_d2"), ("3", "stage3_d3"), ("4", "stage4_d4"))
        n_written = sum(
            len(json.loads((schedules / sid / f"{name}.json").read_text())["data"])
            for sid, name in distinct
        )
        assert n_written < n_pairs
        assert len(encoded) == n_written
        assert {p: p.read_bytes() for p in schedules.rglob("*") if p.is_file()} == first
        d1 = (schedules / "1" / "stage1_d1.json").read_bytes()
        for sid, stage in (("2", 2), ("3", 2), ("4", 2)):
            assert (schedules / sid / f"stage{stage}_d1.json").read_bytes() == d1

    def test_shared_stages_are_links_and_a_rerun_replaces_only_its_own(self, workspace):
        root, config = workspace
        run_pipeline(root, config)
        schedules = root / "out" / "schedules"
        first = schedules / "1" / "stage1_d1.json"
        for sid in ("2", "3", "4"):
            assert os.path.samefile(schedules / sid / "stage2_d1.json", first)
        before = first.read_bytes()
        # another seed holds out other d1 ids, so schedule 2's d1 stage changes
        assert main(["schedule", "--config", str(config), "--seed", "14", "--schedule", "2"]) == 0
        assert first.read_bytes() == before
        assert (schedules / "2" / "stage2_d1.json").read_bytes() != before
        assert os.path.samefile(schedules / "3" / "stage2_d1.json", first)
        assert not [p for p in (root / "out").rglob("*") if p.name.startswith(".")]

    def test_stages_are_copied_where_linking_fails(self, workspace, monkeypatch):
        root, config = workspace
        run_pipeline(root, config)
        schedules = root / "out" / "schedules"
        linked = tree_sha256(schedules)

        def refuse(*args, **kwargs):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        assert main(["schedule", "--config", str(config)]) == 0
        assert tree_sha256(schedules) == linked
        first = schedules / "1" / "stage1_d1.json"
        for sid in ("2", "3", "4"):
            assert not os.path.samefile(schedules / sid / "stage2_d1.json", first)
        assert not [p for p in (root / "out").rglob("*") if p.name.startswith(".")]

    def test_malformed_d4_exits_1_before_any_stage_is_written(self, workspace, capsys):
        root, config = workspace
        run_pipeline(root, config)
        shutil.rmtree(root / "out" / "schedules")
        d4 = root / "out" / "d4.json"
        text = d4.read_text()
        d4.write_text(text[: len(text) // 2])
        before = sorted(p.name for p in (root / "out").iterdir())
        assert main(["schedule", "--config", str(config)]) == 1
        assert "d4.json" in capsys.readouterr().err
        assert sorted(p.name for p in (root / "out").iterdir()) == before
        assert "schedules" not in before

    def test_missing_subset_exits_nonzero(self, workspace, capsys):
        root, config = workspace
        assert main(["label", "--config", str(config)]) == 0
        assert main(["schedule", "--config", str(config), "--schedule", "3"]) == 1
        assert "d3" in capsys.readouterr().err

    def test_chain_schedule_without_lexicons_exits_nonzero(self, workspace, capsys):
        root, config = workspace
        run_pipeline(root, config)
        raw = json.loads(config.read_text())
        raw["paths"]["morpheme_lexicon"] = None
        raw["paths"]["lemma_exceptions"] = None
        config.write_text(json.dumps(raw))
        assert main(["schedule", "--config", str(config), "--schedule", "XII"]) == 1
        assert "lexicon" in capsys.readouterr().err.lower()

    def test_unknown_schedule_rejected(self, workspace, capsys):
        root, config = workspace
        run_pipeline(root, config)
        assert main(["schedule", "--config", str(config), "--schedule", "XIII"]) == 1


class TestWorkedExampleEndToEnd:
    def test_artificial_pipeline_reproduces_identified_answer(self, tmp_path):
        from tests.conftest import DIABETES_ANSWER, DIABETES_CONTEXT, DIABETES_QUESTION

        record = {
            "pmid": "424242",
            "title": DIABETES_QUESTION,
            "pub_date": "2020-06-01",
            "keywords": ["COVID-19"],
            "sections": [
                {"label": "background", "text": "Pandemic context."},
                {"label": "conclusions", "text": DIABETES_CONTEXT},
            ],
        }
        (tmp_path / "covid.jsonl").write_text(json.dumps(record) + "\n")
        write_sources(tmp_path)
        config = write_config(tmp_path)
        assert main(["curate", "artificial", "--config", str(config)]) == 0
        d4 = json.loads((tmp_path / "out" / "d4.json").read_text())
        qa = d4["data"][0]["paragraphs"][0]["qas"][0]
        assert qa["question"] == DIABETES_QUESTION
        assert qa["answers"][0]["text"] == DIABETES_ANSWER
        assert qa["answers"][0]["answer_start"] == 0


class TestEvalCommand:
    def test_extractive_perfect(self, workspace, capsys):
        root, config = workspace
        main(["label", "--config", str(config)])
        data = json.loads((root / "out" / "d1.json").read_text())
        preds = [
            {"id": qa["id"], "predicted_text": qa["answers"][0]["text"]}
            for article in data["data"]
            for para in article["paragraphs"]
            for qa in para["qas"]
        ]
        pred_path = root / "preds.jsonl"
        pred_path.write_text("\n".join(json.dumps(p) for p in preds) + "\n")
        capsys.readouterr()
        assert main(["eval", str(root / "out" / "d1.json"), str(pred_path), "--task", "extractive"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_match"] == 100.0 and report["f1"] == 100.0

    def test_yesno_report(self, workspace, capsys):
        root, config = workspace
        preds = [
            {"id": json.loads(line)["id"], "predicted_label": "yes"}
            for line in (root / "pqa_l.jsonl").read_text().splitlines()
        ]
        pred_path = root / "preds_yn.jsonl"
        pred_path.write_text("\n".join(json.dumps(p) for p in preds) + "\n")
        capsys.readouterr()
        assert main(["eval", str(root / "pqa_l.jsonl"), str(pred_path), "--task", "yesno"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"accuracy", "n"}
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_report_written_to_out_path(self, workspace, capsys):
        root, config = workspace
        preds = [
            {"id": json.loads(line)["id"], "predicted_label": "no"}
            for line in (root / "pqa_l.jsonl").read_text().splitlines()
        ]
        pred_path = root / "preds_yn.jsonl"
        pred_path.write_text("\n".join(json.dumps(p) for p in preds) + "\n")
        out_path = root / "report.json"
        assert (
            main(
                ["eval", str(root / "pqa_l.jsonl"), str(pred_path), "--task", "yesno", "--out", str(out_path)]
            )
            == 0
        )
        assert json.loads(out_path.read_text())["n"] == len(preds)

    def test_extra_prediction_id_exits_nonzero(self, workspace, capsys):
        root, config = workspace
        main(["label", "--config", str(config)])
        data = json.loads((root / "out" / "d1.json").read_text())
        preds = [
            {"id": qa["id"], "predicted_text": "x"}
            for article in data["data"]
            for para in article["paragraphs"]
            for qa in para["qas"]
        ] + [{"id": "ghost", "predicted_text": "x"}]
        pred_path = root / "preds.jsonl"
        pred_path.write_text("\n".join(json.dumps(p) for p in preds) + "\n")
        assert main(["eval", str(root / "out" / "d1.json"), str(pred_path), "--task", "extractive"]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_malformed_gold_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.json"
        paragraph = {"context": "A.", "qas": [{"id": "q1"}]}
        gold.write_text(json.dumps({"data": [{"paragraphs": [paragraph]}]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "q1", "predicted_text": "A."}\n')
        assert main(["eval", str(gold), str(preds), "--task", "extractive"]) == 1
        assert "qa 'q1'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "task, gold_text, message",
        [
            ("extractive", "[]", "expected a JSON object, got array"),
            ("extractive", '{"data": [1]}', "data[0]: expected a JSON object, got number"),
            (
                "yesno",
                '{"id": "q1", "question": null, "context": "A.", "label": "yes"}\n',
                "line 1: field 'question': expected a string, got null",
            ),
        ],
    )
    def test_malformed_gold_shape_exits_1(self, tmp_path, capsys, task, gold_text, message):
        gold = tmp_path / "gold.json"
        gold.write_text(gold_text)
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "q1", "predicted_text": "A.", "predicted_label": "yes"}\n')
        assert main(["eval", str(gold), str(preds), "--task", task]) == 1
        err = capsys.readouterr().err
        assert str(gold) in err and message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "task, row, field",
        [
            ("extractive", '{"id": "q1", "predicted_text": 7}', "predicted_text"),
            ("yesno", '{"id": "q1", "predicted_label": 7}', "predicted_label"),
            ("yesno", '{"id": 1, "predicted_label": "yes"}', "id"),
        ],
    )
    def test_mistyped_prediction_exits_1(self, tmp_path, capsys, task, row, field):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"id": "q1", "question": "Q?", "context": "A.", "label": "yes"}\n')
        if task == "extractive":
            gold = tmp_path / "gold.json"
            qa = {"id": "q1", "question": "Q?", "answers": [{"text": "A.", "answer_start": 0}]}
            paragraph = {"context": "A.", "qas": [qa]}
            gold.write_text(json.dumps({"data": [{"paragraphs": [paragraph]}]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(row + "\n")
        assert main(["eval", str(gold), str(preds), "--task", task]) == 1
        err = capsys.readouterr().err
        assert f"preds.jsonl line 1: field {field!r}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"label": "maybe"}, "b: label must be 'yes' or 'no', got 'maybe'"),
            ({"question": " "}, "b: question is empty"),
            ({"context": ""}, "b: context is empty"),
            ({"label": None}, "instance b has no label"),
        ],
    )
    def test_bad_yesno_gold_line_names_file_and_line(self, tmp_path, capsys, bad, message):
        good = {"id": "a", "question": "Q?", "context": "A.", "label": "yes"}
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", **bad}) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "predicted_label": "yes"}\n')
        assert main(["eval", str(gold), str(preds), "--task", "yesno"]) == 1
        err = capsys.readouterr().err
        assert f"error: {gold} line 2: {message}\n" in err
        assert "Traceback" not in err

    def test_first_yesno_fault_in_file_order_is_reported(self, tmp_path, capsys):
        rows = [
            {"id": "a", "question": "Q?", "context": "A.", "label": "yes"},
            {"id": "b", "question": "Q?", "context": "A."},
            {"id": 3, "question": "Q?", "context": "A.", "label": "yes"},
        ]
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps(r) + "\n" for r in rows))
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "predicted_label": "yes"}\n')
        assert main(["eval", str(gold), str(preds), "--task", "yesno"]) == 1
        assert capsys.readouterr().err == f"error: {gold} line 2: instance b has no label\n"

    def test_bad_yesno_source_line_fails_schedule(self, workspace, capsys):
        root, config = workspace
        lines = (root / "pqa_l.jsonl").read_text().splitlines()
        row = json.loads(lines[4])
        lines[4] = json.dumps({**row, "label": "maybe"})
        (root / "pqa_l.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["schedule", "--config", str(config), "--schedule", "baseline"]) == 1
        err = capsys.readouterr().err
        assert f"error: {root / 'pqa_l.jsonl'} line 5: {row['id']}: label must be" in err

    @pytest.mark.parametrize("qa_id, kind", [(None, "null"), ([1, 2], "array"), (7, "number")])
    def test_non_string_gold_qa_id_exits_1(self, tmp_path, capsys, qa_id, kind):
        gold = tmp_path / "gold.json"
        qa = {"id": qa_id, "question": "Q?", "answers": [{"text": "A.", "answer_start": 0}]}
        gold.write_text(json.dumps({"data": [{"paragraphs": [{"context": "A.", "qas": [qa]}]}]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "None", "predicted_text": "A."}\n')
        assert main(["eval", str(gold), str(preds), "--task", "extractive"]) == 1
        err = capsys.readouterr().err
        assert f"error: {gold}: qa {qa_id!r}: field 'id': expected a string, got {kind}" in err

    @pytest.mark.parametrize("task", ["extractive", "yesno"])
    def test_duplicate_gold_ids_exit_1_naming_both_files(self, tmp_path, capsys, task):
        if task == "extractive":
            gold = tmp_path / "gold.json"
            qa = {"id": "x", "question": "Q?", "answers": [{"text": "A.", "answer_start": 0}]}
            paragraph = {"context": "A.", "qas": [qa, qa]}
            gold.write_text(json.dumps({"data": [{"paragraphs": [paragraph]}]}))
        else:
            gold = tmp_path / "gold.jsonl"
            row = {"id": "x", "question": "Q?", "context": "A.", "label": "yes"}
            gold.write_text((json.dumps(row) + "\n") * 2)
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "x", "predicted_text": "A.", "predicted_label": "yes"}\n')
        assert main(["eval", str(gold), str(preds), "--task", task]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {preds} against {gold}: duplicate gold ids: ['x']\n"


# Rows of a yes/no gold file and of a predictions file for eval's reading order.
GOLD_ROW = '{"id": "%s", "question": "Q?", "context": "A.", "label": "yes"}'
PREDICTION_ROW = '{"id": "%s", "predicted_label": "yes"}'
BAD_ROW = '{"id": "%s", "label": "yes"'


def write_eval_files(root: Path, gold_rows, prediction_rows) -> tuple[Path, Path]:
    gold, preds = root / "gold.jsonl", root / "preds.jsonl"
    gold.write_text("".join(row + "\n" for row in gold_rows))
    preds.write_text("".join(row + "\n" for row in prediction_rows))
    return gold, preds


def recorded_readers(monkeypatch, *names) -> list:
    """Make formats' readers of these names keep each stream they return in
    the list returned here."""
    readers = []

    def recording(reader):
        return lambda path, **kw: readers.append(reader(path, **kw)) or readers[-1]

    for name in names:
        monkeypatch.setattr(formats, name, recording(getattr(formats, name)))
    return readers


class TestEvalReadingOrder:
    """eval reads the golds and the predictions in step: each gold, then the
    predictions up to its own; so when both files are faulty, the fault read
    first is reported."""

    @pytest.mark.parametrize(
        "gold_rows, prediction_rows, faulty",
        [
            # the first gold is read before any prediction
            ([BAD_ROW % "a"], [BAD_ROW % "a"], "gold"),
            # the first gold's prediction is read before the second gold
            ([GOLD_ROW % "a", BAD_ROW % "b"], [BAD_ROW % "a"], "preds"),
            ([GOLD_ROW % "a", BAD_ROW % "b"], [PREDICTION_ROW % "a", BAD_ROW % "b"], "gold"),
            # a prediction of another id is read on past, up to the fault
            ([GOLD_ROW % "a", BAD_ROW % "b"], [PREDICTION_ROW % "z", BAD_ROW % "a"], "preds"),
        ],
    )
    def test_the_fault_read_first_is_reported(
        self, tmp_path, capsys, gold_rows, prediction_rows, faulty
    ):
        gold, preds = write_eval_files(tmp_path, gold_rows, prediction_rows)
        assert main(["eval", str(gold), str(preds), "--task", "yesno"]) == 1
        path, line = (gold, len(gold_rows)) if faulty == "gold" else (preds, len(prediction_rows))
        assert capsys.readouterr().err.startswith(f"error: {path} line {line}: malformed JSON: ")

    def test_every_prediction_is_read_before_a_scoring_error(self, tmp_path, capsys):
        rows = [PREDICTION_ROW % "z", PREDICTION_ROW % "a", BAD_ROW % "y"]
        gold, preds = write_eval_files(tmp_path, [GOLD_ROW % "a"], rows)
        assert main(["eval", str(gold), str(preds), "--task", "yesno"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {preds} line 3: malformed JSON: ")

    @pytest.mark.parametrize(
        "gold_rows, prediction_rows, message",
        [
            ([GOLD_ROW % "a", BAD_ROW % "b"], [PREDICTION_ROW % "a", PREDICTION_ROW % "b"],
             "gold.jsonl line 2: malformed JSON"),
            ([GOLD_ROW % "a", GOLD_ROW % "b"], [PREDICTION_ROW % "a", BAD_ROW % "b"],
             "preds.jsonl line 2: malformed JSON"),
            ([GOLD_ROW % "a", GOLD_ROW % "b"], [PREDICTION_ROW % "b", PREDICTION_ROW % "z"],
             "do not align with gold ids: missing=['a'] extra=['z']"),
        ],
        ids=["gold fault", "prediction fault", "misaligned ids"],
    )
    def test_both_readers_are_closed_on_a_fault(
        self, tmp_path, capsys, monkeypatch, gold_rows, prediction_rows, message
    ):
        """A reader left in the middle of its file by the other's fault is
        closed before main returns, not when the traceback is freed."""
        readers = recorded_readers(monkeypatch, "iter_yesno", "read_predictions")
        gold, preds = write_eval_files(tmp_path, gold_rows, prediction_rows)
        assert main(["eval", str(gold), str(preds), "--task", "yesno"]) == 1
        assert message in capsys.readouterr().err
        assert [inspect.getgeneratorstate(r) for r in readers] == [inspect.GEN_CLOSED] * 2

    def test_squad_gold_fault_after_the_first_article_closes_the_predictions(
        self, tmp_path, capsys, monkeypatch
    ):
        qa = {"id": "a", "question": "Q?", "answers": [{"text": "A.", "answer_start": 0}]}
        article = {"paragraphs": [{"context": "A.", "qas": [qa]}]}
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps({"data": [article, 1]}))
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "predicted_text": "A."}\n' * 2)
        readers = recorded_readers(monkeypatch, "read_predictions")
        assert main(["eval", str(gold), str(preds), "--task", "extractive"]) == 1
        assert "data[1]: expected a JSON object, got number" in capsys.readouterr().err
        assert inspect.getgeneratorstate(readers[0]) == inspect.GEN_CLOSED


class TestDeterminismAndOverrides:
    def test_rerun_byte_identical(self, workspace):
        root, config = workspace
        run_pipeline(root, config)
        out = root / "out"
        before = tree_sha256(out)
        run_pipeline(root, config)
        after = tree_sha256(out)
        assert before == after
        assert len(before) > 20

    def test_env_var_overrides_output_dir(self, workspace, monkeypatch):
        root, config = workspace
        monkeypatch.setenv("MEDQAKIT_OUTPUT_DIR", str(root / "env_out"))
        assert main(["label", "--config", str(config)]) == 0
        assert (root / "env_out" / "d1.json").exists()

    def test_flag_beats_env(self, workspace, monkeypatch):
        root, config = workspace
        monkeypatch.setenv("MEDQAKIT_OUTPUT_DIR", str(root / "env_out"))
        assert main(["label", "--config", str(config), "--output-dir", str(root / "flag_out")]) == 0
        assert (root / "flag_out" / "d1.json").exists()
        assert not (root / "env_out" / "d1.json").exists()

    def test_effective_config_echoed(self, workspace):
        root, config = workspace
        assert main(["label", "--config", str(config), "--seed", "99"]) == 0
        echoed = json.loads((root / "out" / "config.json").read_text())
        assert echoed["seed"] == 99


# (config key or role, file name, command); "{file}" stands for the file's path.
NON_UTF8_INPUTS = [
    ("covid_corpus", "covid.jsonl", ["curate", "artificial"]),
    ("pqa_l", "pqa_l.jsonl", ["label"]),
    ("pqa_a", "pqa_a.jsonl", ["schedule", "--schedule", "baseline"]),
    ("morpheme_lexicon", "forms.txt", ["schedule", "--schedule", "I"]),
    ("lemma_exceptions", "lemmas.txt", ["schedule", "--schedule", "I"]),
    ("templates", "templates.json", ["curate", "templates-export"]),
    ("review_queue", "reviewed.tsv", ["curate", "templates-import", "--review", "{file}"]),
    ("gold", "gold.json", ["eval", "{file}", "predictions.jsonl", "--task", "extractive"]),
    # eval reads a prediction once it has read a gold, so the gold file must be valid
    ("predictions", "predictions.jsonl", ["eval", "pqa_l.jsonl", "{file}", "--task", "yesno"]),
]


@pytest.mark.parametrize("key, name, command", NON_UTF8_INPUTS, ids=[c[0] for c in NON_UTF8_INPUTS])
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, monkeypatch, key, name, command):
    write_sources(tmp_path)
    write_corpus(tmp_path, n=3)
    (tmp_path / "predictions.jsonl").write_text('{"id": "q1", "predicted_text": "A."}\n')
    bad = tmp_path / name
    paths = {k: str(tmp_path / f"{k}.jsonl") for k in ("pqa_l", "pqa_a")}
    paths.update({"covid_corpus": str(tmp_path / "covid.jsonl"), key: str(bad)})
    config = write_config(tmp_path, paths=paths)
    bad.write_bytes(b'{"id": "caf\xe9"}\n')
    argv = [arg.replace("{file}", str(bad)) for arg in command]
    if argv[0] != "eval":
        argv += ["--config", str(config)]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text" in err
    assert "Traceback" not in err


# An integer of more digits than Python converts (sys.int_max_str_digits):
# json raises a bare ValueError for it, not a JSONDecodeError.
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_INTEGER = "7" * (INT_DIGITS_LIMIT + 1)
SQUAD_WITH_LONG_START = (
    '{"data": [{"paragraphs": [{"context": "A.", "qas": [{"id": "q1", "question": "Q?", '
    f'"answers": [{{"text": "A.", "answer_start": {LONG_INTEGER}}}]}}]}}]}}]}}'
)
# (case, file name, its text, command, where the message points)
LONG_INTEGER_INPUTS = [
    ("pqa source line", "pqa_l.jsonl",
     '{"id": "a", "question": "Q?", "context": "A.", "label": "yes"}\n'
     f'{{"id": "b", "question": "Q?", "context": "A.", "label": {LONG_INTEGER}}}\n',
     ["label", "--config", "config.json"], " line 2"),
    ("squad answer_start", "gold.json", SQUAD_WITH_LONG_START,
     ["eval", "gold.json", "predictions.jsonl", "--task", "extractive"], ""),
    ("yesno gold line", "gold.jsonl",
     f'{{"id": "q1", "question": "Q?", "context": "A.", "label": {LONG_INTEGER}}}\n',
     ["eval", "gold.jsonl", "predictions.jsonl", "--task", "yesno"], " line 1"),
    ("run config", "config.json", f'{{"seed": {LONG_INTEGER}}}',
     ["label", "--config", "config.json"], ""),
]


@pytest.mark.skipif(INT_DIGITS_LIMIT == 0, reason="no limit on int conversion")
@pytest.mark.parametrize(
    "name, text, command, where", [c[1:] for c in LONG_INTEGER_INPUTS],
    ids=[c[0] for c in LONG_INTEGER_INPUTS],
)
def test_too_long_json_integer_exits_1_naming_the_file(
    tmp_path, capsys, monkeypatch, name, text, command, where
):
    write_sources(tmp_path, n_l=3, n_a=3)
    write_config(tmp_path)
    (tmp_path / "predictions.jsonl").write_text('{"id": "q1", "predicted_text": "A."}\n')
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(command) == 1
    err = capsys.readouterr().err
    assert "error: " in err and f"{name}{where}: malformed JSON: " in err
    assert "Traceback" not in err


# (case, argv, part of argparse's message); each is a usage error.
USAGE_ERRORS = [
    ("bad --seed", ["label", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    # argparse reads "-nan" as an option, so --k1 has no value
    ("--k1 -nan", ["label", "--k1", "-nan"], "argument --k1: expected one argument"),
    ("unknown command", ["relabel"], "invalid choice"),
    ("eval without --task", ["eval", "gold.json", "predictions.jsonl"],
     "the following arguments are required: --task"),
]


@pytest.mark.parametrize(
    "argv, message", [c[1:] for c in USAGE_ERRORS], ids=[c[0] for c in USAGE_ERRORS]
)
def test_usage_error_exits_1_with_the_usage_on_stderr(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: medqakit")
    assert message in captured.err


def test_usage_error_is_the_process_exit_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "medqakit.cli", "label", "--seed", "abc"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "argument --seed: invalid int value: 'abc'" in result.stderr


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["eval", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out
