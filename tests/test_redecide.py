"""Every verdict of a finished report, decided again from what it prints.

Golden reports freeze bytes, so they would also freeze a wrong verdict.
This module reads a JSON or CSV verdict report and decides each row again
from its printed sides, with Fraction and mpmath and nothing from regcount:

- an exact row passes iff lhs <= rhs, or lhs = rhs for an identity.  Its
  margin prints log2(rhs / lhs) as the reports print reals, the nearest
  float to 12 significant digits; a zero side gives inf, -inf or 0;
- a log2 row passes iff its margin is >= 0, and a finite margin is
  rhs - lhs;
- a match-poly-real-rooted row passes iff lhs <= rhs, its margin is >= 0
  and its root_sum_rel_err param is at most 1e-6;
- a failed row about a swept graph, one whose graph_label does not start
  with "union-", carries the graph's text form as its graph_text param,
  whose header "N M L" gives the row's n param as N and its number of edge
  lines as M;
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
# How far a real-rooted row's reciprocal-root sum may lie from its edge count.
ROOT_SUM_REL_TOL = 1e-6

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


def graph_text_problem(row: dict) -> str | None:
    """What is wrong with the graph_text param of a failed row about a
    swept graph, or None."""
    text = row["params"].get("graph_text")
    if text is None:
        return "a failed row with no graph_text"
    header, *edges = text.strip("\n").split("\n")
    fields = header.split()
    if len(fields) != 3 or not all(f.isdigit() for f in fields):
        return f"graph_text header {header!r} is not 'N M L'"
    n, m = int(fields[0]), int(fields[1])
    if n != row["params"].get("n") or m != len(edges):
        return (
            f"graph_text header {header!r}, the row's n is {row['params'].get('n')}"
            f" and the text has {len(edges)} edge lines"
        )
    return None


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
            passed = (
                float(row["lhs"]) <= float(row["rhs"])
                and float(margin) >= 0
                and float(row["params"]["root_sum_rel_err"]) <= ROOT_SUM_REL_TOL
            )
        else:
            problems.append(f"{where}: a check id with no rule")
            continue
        if row["pass"] != passed:
            problems.append(f"{where}: pass is {row['pass']}, the sides decide {passed}")
        if not row["pass"] and not row["graph_label"].startswith("union-"):
            problem = graph_text_problem(row)
            if problem:
                problems.append(f"{where}: {problem}")
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


def _past_root_sum_tolerance(row):
    row["params"]["root_sum_rel_err"] = "2e-06"


@pytest.mark.parametrize(
    "report, mutate, rule",
    [
        ("verify-suite-8-2-grids.json", _flip_pass, lambda row: True),
        ("verify-suite-8-2-grids.json", _bump_lhs, _positive_exact),
        (
            "verify-suite-8-2-grids.json",
            _bump_margin_digit,
            lambda row: _positive_exact(row) and row["margin"][-1].isdigit(),
        ),
        (
            "verify-roots-petersen.json",
            _past_root_sum_tolerance,
            lambda row: row["check_id"] == REAL_ROOTED_ID,
        ),
    ],
    ids=["pass-flag", "exact-lhs", "margin-digit", "root-sum-error"],
)
def test_a_changed_row_in_a_copy_of_a_golden_report_is_caught(tmp_path, report, mutate, rule):
    doc = json.loads((GOLDEN / report).read_text(encoding="utf-8"))
    assert redecide(doc["verdicts"], doc["summary"]) == []
    i = next(i for i, row in enumerate(doc["verdicts"]) if rule(row))
    mutate(doc["verdicts"][i])
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(doc), encoding="utf-8")
    problems = redecide_report(copy)
    assert problems and all(p.startswith(f"row {i},") or p.startswith("summary") for p in problems)


def _cycle_text(n):
    """The text form of the n-cycle, as the reports print a graph."""
    edges = sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    return f"{n} {n} 0\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize(
    "graph_text, caught",
    [
        (None, True),
        (_cycle_text(8), False),
        (_cycle_text(9), True),  # N is not the row's n
        (_cycle_text(8).rsplit("\n", 2)[0] + "\n", True),  # M promises a lost edge line
    ],
    ids=["none", "valid", "other-n", "edge-lines"],
)
def test_a_failed_row_in_a_copy_needs_its_graph_text(tmp_path, graph_text, caught):
    # A positive exact row made to fail consistently: its sides swapped, its
    # pass flag, margin and the summary as the swapped sides give them.
    doc = json.loads((GOLDEN / "verify-suite-8-2-grids.json").read_text(encoding="utf-8"))
    i, row = next(
        (i, row)
        for i, row in enumerate(doc["verdicts"])
        if _positive_exact(row)
        and Fraction(row["lhs"]) < Fraction(row["rhs"])
        and not row["graph_label"].startswith("union-")
    )
    assert row["params"]["n"] == 8
    row["lhs"], row["rhs"] = row["rhs"], row["lhs"]
    lhs, rhs = Fraction(row["lhs"]), Fraction(row["rhs"])
    row["pass"] = lhs <= rhs
    row["margin"] = exact_margin(lhs, rhs)
    doc["summary"]["failed"] += 1
    if graph_text is not None:
        row["params"]["graph_text"] = graph_text
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(doc), encoding="utf-8")
    problems = redecide_report(copy)
    assert not row["pass"]
    if caught:
        assert len(problems) == 1 and problems[0].startswith(f"row {i},")
    else:
        assert problems == []
