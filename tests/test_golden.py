"""Committed reports that fresh runs must reproduce byte for byte.

Each file under tests/golden/ is the standard output of one command, run
from that directory so that the echoed graph paths are bare file names:

    cd tests/golden
    python -m regcount.cli count --kind matching --graph petersen.txt \\
        > count-matching-petersen.json

An intended change to report contents regenerates the affected files in
the same change.
"""

from pathlib import Path

import pytest

from regcount.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    f"count-{kind}-{graph}.json": ["count", "--kind", kind, "--graph", f"{graph}.txt"]
    for kind in ("matching", "independent-set")
    for graph in ("petersen", "circular-ladder-24")
}
CASES["verify-suite-8-3.json"] = ["verify-suite", "--n", "8", "--d", "3"]
CASES["verify-umc-6-3.json"] = ["verify-umc", "--n", "6", "--d", "3"]
CASES["verify-umc-6-3.csv"] = ["verify-umc", "--n", "6", "--d", "3", "--format", "csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
