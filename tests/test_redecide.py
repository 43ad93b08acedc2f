"""Every verdict of a finished report, decided again from what it prints.

Golden reports freeze bytes, so they would also freeze a wrong verdict.
This module reads a JSON or CSV verdict report and decides each row again
from its printed sides, with Fraction and mpmath and nothing from regcount:

- an exact row passes iff lhs <= rhs, or lhs = rhs for an identity.  Its
  margin prints log2(rhs / lhs) as the reports print reals, the nearest
  float to 12 significant digits; a zero side gives inf, -inf or 0;
- a log2 row passes iff its margin is >= 0, and a finite margin is
  rhs - lhs;
- a match-poly-real-rooted row passes iff lhs <= rhs and its margin is >= 0;
- a JSON report's summary counts its rows and its failed rows.

A check id in none of these lists is a disagreement, so a new check family
must join one of them.  To re-decide any report:

    PYTHONPATH=tests python -c \\
        "from test_redecide import redecide_report; print(redecide_report('report.json'))"
"""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

GOLDEN = Path(__file__).parent / "golden"

IDENTITY_IDS = frozenset(
    {"union-block-identity", "union-block-mean-closed-form", "hardcore-hom-identity"}
)
EXACT_IDS = IDENTITY_IDS | {
    "bregman-pm",
    "hom-order-product",
    "ind-count-vs-pm-bound",
    "ind-count-vs-union",
    "ind-pf-upper-bipartite",
    "ind-pf-upper-general",
    "ind-total-vs-kdd-power",
    "match-count-vs-union",
    "match-pf-gurvits",
    "match-pf-upper",
    "match-single-term",
    "match-single-term-opt",
    "union-block-mean-markov",
    "union-ind-lower-small-t-exact",
}
LOG2_IDS = frozenset(
    {
        "match-count-upper",
        "ind-count-upper-general",
        "ind-count-upper-bipartite",
        "union-ind-lower-markov",
        "union-ind-lower-small-t-log",
    }
)
REAL_ROOTED_ID = "match-poly-real-rooted"

# Bits of the mpmath logs that exact margins are checked against.
LOG_PRECISION = 200
# How far a log2 row's margin may lie from rhs - lhs, each printed to 12 digits.
LOG2_TOLERANCE = 1e-9


def read_report(path) -> tuple[list[dict], dict | None]:
    """The verdict rows of a JSON or CSV report, with lhs, rhs and margin as
    printed, params as a dict and pass as a bool, and the report's summary,
    None for CSV, which prints none."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        return doc["verdicts"], doc["summary"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    for row in rows:
        row["params"] = json.loads(row["params"])
        row["pass"] = {"true": True, "false": False}[row["pass"]]
    return rows, None


def exact_margin(lhs: Fraction, rhs: Fraction) -> str:
    """log2(rhs / lhs) as a report prints it, for nonnegative sides."""
    if not lhs:
        return "inf" if rhs else "0"
    if not rhs:
        return "-inf"
    ratio = rhs / lhs
    with mpmath.workprec(LOG_PRECISION):
        value = mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator, 2)
    return f"{float(value):.12g}"


def redecide(rows: list[dict], summary: dict | None = None) -> list[str]:
    """Each disagreement between a row's pass flag or margin and its printed
    sides, and between the summary and the rows, as a line of text."""
    problems = []
    for i, row in enumerate(rows):
        check_id, margin = row["check_id"], row["margin"]
        where = f"row {i}, {check_id} on {row['graph_label']} {row['params']}"
        if check_id in EXACT_IDS:
            lhs, rhs = Fraction(row["lhs"]), Fraction(row["rhs"])
            if lhs < 0 or rhs < 0:
                problems.append(f"{where}: a negative side")
                continue
            passed = lhs == rhs if check_id in IDENTITY_IDS else lhs <= rhs
            expected = exact_margin(lhs, rhs)
            if margin != expected:
                problems.append(f"{where}: margin {margin}, the sides give {expected}")
        elif check_id in LOG2_IDS:
            value, gap = float(margin), float(row["rhs"]) - float(row["lhs"])
            passed = value >= 0
            if math.isfinite(value) and abs(value - gap) > LOG2_TOLERANCE:
                problems.append(f"{where}: margin {margin}, rhs - lhs is {gap!r}")
        elif check_id == REAL_ROOTED_ID:
            passed = float(row["lhs"]) <= float(row["rhs"]) and float(margin) >= 0
        else:
            problems.append(f"{where}: a check id with no rule")
            continue
        if row["pass"] != passed:
            problems.append(f"{where}: pass is {row['pass']}, the sides decide {passed}")
    if summary is not None:
        counted = {"total": len(rows), "failed": sum(1 for row in rows if not row["pass"])}
        if summary != counted:
            problems.append(f"summary {summary}, the rows give {counted}")
    return problems


def redecide_report(path) -> list[str]:
    """redecide on the rows and summary of the report at path."""
    return redecide(*read_report(path))


VERDICT_REPORTS = sorted(p.name for p in GOLDEN.iterdir() if p.name.startswith("verify-"))


@pytest.mark.parametrize("name", VERDICT_REPORTS)
def test_golden_verdicts_follow_from_their_sides(name):
    assert redecide_report(GOLDEN / name) == []


def test_golden_reports_cover_every_rule():
    rows = [row for name in VERDICT_REPORTS for row in read_report(GOLDEN / name)[0]]
    check_ids = {row["check_id"] for row in rows}
    assert check_ids == EXACT_IDS | LOG2_IDS | {REAL_ROOTED_ID}
    # Each zero-side margin, and a margin of 0 from equal positive sides.
    exact = [row for row in rows if row["check_id"] in EXACT_IDS]
    assert {row["margin"] for row in exact} >= {"inf", "0"}
    assert any(row["lhs"] == row["rhs"] != "0" for row in exact)


@pytest.mark.parametrize("stem", ["verify-hom-6-3", "verify-suite-8-3", "verify-umc-6-3"])
def test_csv_and_json_reports_read_as_the_same_rows(stem):
    assert read_report(GOLDEN / f"{stem}.csv")[0] == read_report(GOLDEN / f"{stem}.json")[0]


def test_a_fresh_census_report_follows_from_its_sides(tmp_path):
    # The (12, 3) census, the one census with d >= 3 that holds two copies of
    # the K_{d,d} union.  The report is written by another process, so that
    # this module imports nothing from regcount.
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "verify-suite-12-3.json"
    argv = ["verify-suite", "--n", "12", "--d", "3", "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "regcount.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    rows, summary = read_report(out)
    assert len(rows) == 14837
    assert redecide(rows, summary) == []


def test_zero_sides_give_the_margins_the_reports_print():
    assert exact_margin(Fraction(0), Fraction(0)) == "0"
    assert exact_margin(Fraction(0), Fraction(3)) == "inf"
    assert exact_margin(Fraction(3), Fraction(0)) == "-inf"
    assert exact_margin(Fraction(1), Fraction(8)) == "3"
    assert exact_margin(Fraction(8), Fraction(1)) == "-3"


def _positive_exact(row):
    return row["check_id"] in EXACT_IDS and Fraction(row["lhs"]) > 0 and Fraction(row["rhs"]) > 0


def _flip_pass(row):
    row["pass"] = not row["pass"]


def _bump_lhs(row):
    row["lhs"] = str(Fraction(row["lhs"]) + 1)


def _bump_margin_digit(row):
    digit = row["margin"][-1]
    row["margin"] = row["margin"][:-1] + ("1" if digit == "0" else "0")


@pytest.mark.parametrize(
    "mutate, rule",
    [
        (_flip_pass, lambda row: True),
        (_bump_lhs, _positive_exact),
        (_bump_margin_digit, lambda row: _positive_exact(row) and row["margin"][-1].isdigit()),
    ],
    ids=["pass-flag", "exact-lhs", "margin-digit"],
)
def test_a_changed_row_in_a_copy_of_a_golden_report_is_caught(tmp_path, mutate, rule):
    doc = json.loads((GOLDEN / "verify-suite-8-2-grids.json").read_text(encoding="utf-8"))
    assert redecide(doc["verdicts"], doc["summary"]) == []
    i = next(i for i, row in enumerate(doc["verdicts"]) if rule(row))
    mutate(doc["verdicts"][i])
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(doc), encoding="utf-8")
    problems = redecide_report(copy)
    assert problems and all(p.startswith(f"row {i},") or p.startswith("summary") for p in problems)
