"""A stage's data does not depend on which other schedules are emitted with
it: each stage of `medqakit schedule --schedule ID` alone holds what the same
stage holds when all 17 schedules are emitted together.

Stage files are compared as bytes (yes/no JSONL) or by their SQuAD `data`
array, since the provenance's config hash names the requested schedules.
The yes/no `pqa_l` stages still differ (ROADMAP item 1): with `d1` loaded,
its test ids, which are PQA-L ids, are dropped from them, but not when a
yes/no schedule is emitted alone."""

import json
import shutil

import pytest

from medqakit.cli import main
from medqakit.defaults import SCHEDULE_IDS
from medqakit.schedule import YESNO_SUBSETS, get_schedule

from tests.test_cli import run_pipeline, write_config, write_corpus, write_sources

ALL_SCHEDULES = list(SCHEDULE_IDS)
ITEM_1 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the d1 holdout drops PQA-L ids from pqa_l only when d1 is loaded",
)


def stage_cases():
    for schedule in map(get_schedule, SCHEDULE_IDS):
        for stage in schedule.stages:
            yesno = stage.subset in YESNO_SUBSETS
            name = f"stage{stage.stage_index}_{stage.subset.value}.{'jsonl' if yesno else 'json'}"
            marks = [ITEM_1] if stage.subset.value == "pqa_l" else []
            case_id = f"{schedule.schedule_id}/{name}"
            yield pytest.param(schedule.schedule_id, name, marks=marks, id=case_id)


def stage_data(path):
    if path.suffix == ".jsonl":
        return path.read_bytes()
    return json.loads(path.read_bytes())["data"]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The stage data of each schedule emitted with all 17, and alone."""
    root = tmp_path_factory.mktemp("alone")
    write_sources(root)
    write_corpus(root)
    config = write_config(root, schedules=ALL_SCHEDULES)
    out = root / "out" / "schedules"

    def stages():
        return {(p.parent.name, p.name): stage_data(p) for p in out.glob("*/stage*")}

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("MEDQAKIT_OUTPUT_DIR", raising=False)
        run_pipeline(root, config)  # its schedule run emits all 17
        runs = {None: stages()}
        for sid in ALL_SCHEDULES:
            shutil.rmtree(out)
            assert main(["schedule", "--config", str(config), "--schedule", sid]) == 0
            runs[sid] = stages()
    return runs


@pytest.mark.parametrize("schedule_id, name", stage_cases())
def test_a_stage_alone_holds_what_it_holds_with_all_17(emitted, schedule_id, name):
    alone = emitted[schedule_id][schedule_id, name]
    assert alone
    assert emitted[None][schedule_id, name] == alone
