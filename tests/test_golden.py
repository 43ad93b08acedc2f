"""Committed reports that fresh runs must reproduce byte for byte.

Each file under tests/golden/ is the standard output of one command, run
from that directory so that the echoed graph paths are bare file names:

    cd tests/golden
    python -m regcount.cli count --kind matching --graph petersen.txt \\
        > count-matching-petersen.json

An intended change to report contents regenerates the affected files in
the same change.  A report too large to commit is pinned by the SHA-256 of
its bytes instead.
"""

import hashlib
from pathlib import Path

import pytest

from regcount.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    f"count-{kind}-{graph}.json": ["count", "--kind", kind, "--graph", f"{graph}.txt"]
    for kind in ("matching", "independent-set")
    for graph in ("petersen", "circular-ladder-24")
}
CASES["count-matching-petersen.csv"] = [
    "count", "--kind", "matching", "--graph", "petersen.txt", "--format", "csv"
]
CASES["bounds-8-2.json"] = ["bounds", "--n", "8", "--d", "2"]
CASES["bounds-40-4.json"] = ["bounds", "--n", "40", "--d", "4"]
CASES["bounds-12-3.csv"] = ["bounds", "--n", "12", "--d", "3", "--format", "csv"]
# Each list out of order, a Markov constant of 1 (no Markov rows) and CSV.
CASES["bounds-24-3-lists.csv"] = [
    "bounds", "--n", "24", "--d", "3", "--ell", "5", "--ell", "2", "--t", "3", "--t", "0",
    "--lam", "7/2", "--lam", "1/3", "--c", "3", "--c", "1", "--format", "csv",
]
CASES["gen-8-3.csv"] = ["gen", "--n", "8", "--d", "3", "--format", "csv"]
CASES["gen-10-3.json"] = ["gen", "--n", "10", "--d", "3"]
CASES["gen-6-3-labeled.csv"] = ["gen", "--n", "6", "--d", "3", "--labeled", "--format", "csv"]
CASES["verify-hom-6-3.json"] = ["verify-hom", "--n", "6", "--d", "3"]
CASES["verify-hom-6-3.csv"] = ["verify-hom", "--n", "6", "--d", "3", "--format", "csv"]
CASES["verify-hom-10-3.csv"] = ["verify-hom", "--n", "10", "--d", "3", "--format", "csv"]
CASES["verify-kahn-6-3.json"] = ["verify-kahn", "--n", "6", "--d", "3"]
CASES["verify-roots-8-3.json"] = ["verify-roots", "--n", "8", "--d", "3"]
CASES["verify-roots-petersen.json"] = ["verify-roots", "--graph", "petersen.txt"]
CASES["verify-roots-k4x3-k33x2.json"] = ["verify-roots", "--graph", "k4x3-k33x2.txt"]
CASES["verify-suite-5-0.csv"] = ["verify-suite", "--n", "5", "--d", "0", "--format", "csv"]
CASES["verify-suite-6-3.json"] = ["verify-suite", "--n", "6", "--d", "3"]
CASES["verify-suite-8-3.json"] = ["verify-suite", "--n", "8", "--d", "3"]
CASES["verify-suite-8-3.csv"] = ["verify-suite", "--n", "8", "--d", "3", "--format", "csv"]
CASES["verify-suite-8-2-grids.json"] = [
    "verify-suite", "--n", "8", "--d", "2", "--lam", "1/3", "--lam", "5", "--c", "3/2", "--c", "7/3"
]
CASES["verify-umc-6-3.json"] = ["verify-umc", "--n", "6", "--d", "3"]
CASES["verify-umc-6-3.csv"] = ["verify-umc", "--n", "6", "--d", "3", "--format", "csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_every_golden_report_has_a_case():
    reports = {p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv")}
    assert reports == set(CASES)


def test_large_bounds_report_matches_its_digest(capsys):
    # At (512, 64) the cleared count bounds carry integers of hundreds of
    # thousands of bits, far beyond the committed (40, 4) report.
    assert main(["bounds", "--n", "512", "--d", "64"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "a4a54f2cdbd52b82750eb3b9deb2492aa57d51c0adfc9fa5dbb33c67c20b650a"
    )


# (12, 3) is the only census with d >= 3 that holds two copies of the
# K_{d,d} union (index 71), and no golden report covers it.
VS_UNION_DIGESTS = {
    ("verify-umc", "json"): "6e7badfa7a03d9c2c2b0217ef5028b2615614ffe1389a6319503191a1a9a3a91",
    ("verify-umc", "csv"): "796407f21a9d821de2d69ec0e09fc7acf740dc71dde8b57085e6b7d12dcd6639",
    ("verify-kahn", "json"): "eeb96095231925198cd7afdc69e1c16ea1caa6b52d6cfbf6a8f1b8aee2432a42",
    ("verify-kahn", "csv"): "dda53ea64c14827377904c5abde8110838260c7cf995a3f4199c0809c8646122",
}


@pytest.mark.parametrize("command, fmt", sorted(VS_UNION_DIGESTS))
def test_vs_union_report_at_12_3_matches_its_digest(capsys, command, fmt):
    assert main([command, "--n", "12", "--d", "3", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == VS_UNION_DIGESTS[command, fmt]
