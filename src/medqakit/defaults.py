"""Run-config defaults and the one-line check, shared by the commands.

Every command reads its config through these, so this module imports no
command module (`covid`, `schedule`, `morph`, ...): a command loads only
the modules it runs. `covid.CovidFilterPolicy` and `schedule` take their
defaults from here, and tests/test_cold_start.py checks that they agree.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Iterable

from .corpus import DatasetSubsetId
from .errors import ParseError

COVID_PHRASES = ("COVID", "SARS-CoV-2", "novel coronavirus")
COVID_CUTOFF_DATE = date(2019, 11, 1)

DEFAULT_HOLDOUT_FRACTIONS: dict[DatasetSubsetId, float] = {
    DatasetSubsetId.D1: 0.10,
    DatasetSubsetId.D3: 0.10,
    DatasetSubsetId.D4: 0.10,
}

# The builtin schedules, in canonical order.
SCHEDULE_IDS = (
    "1", "2", "3", "4", "baseline",
    "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII",
)

# A tab, or a character str.splitlines splits on: such a TSV field cannot be read back.
TSV_BREAK_RE = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def check_one_line(where: str, texts: Iterable[str]) -> None:
    """A ParseError naming `where` for the first text holding a tab or line
    break: it would split a line of search_queries.txt or the TSV queue."""
    for text in texts:
        if TSV_BREAK_RE.search(text):
            raise ParseError(f"{where}: {text!r} holds a tab or line break")
