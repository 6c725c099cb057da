"""The package's size is held to a budget: new lines are paid for by deletions.

Lines are counted as the benchmark records `src_lines`: the splitlines() of
every src/pfedmb/*.py file, summed.
"""

from pathlib import Path

import pfedmb

LINE_BUDGET = 2100


def test_package_stays_within_its_line_budget():
    files = sorted(Path(pfedmb.__file__).parent.glob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in files)
    assert len(files) > 1 and lines <= LINE_BUDGET, f"{lines} lines in src/pfedmb"
