"""Two reports of one command compared, for a change that alters a report on
purpose.

A change that removes rows from a report regenerates its golden files and
re-pins its digests; this module shows that the new report differs from the
old one by those rows alone.  It reads JSON or CSV reports, holding verdicts
or rows, with nothing from regcount, and returns every disagreement:

- a remaining row that changed in any field;
- a remaining row out of order;
- a row missing or added whose name is not a removed one, or an added row
  whose name is;
- a non-row key that changed.  A JSON report's summary is checked against a
  recount of the new rows instead of against the old summary.

A row is named by its check_id in a verdict report and by its name in a
bounds report, and it is told apart from its neighbours by that name, its
graph_label and its params.  To compare two reports:

    PYTHONPATH=tests python -c \\
        "from test_report_diff import diff_reports; \\
         print(diff_reports('old.json', 'new.json', {'explicit-gap-log2'}))"
"""

import copy
import csv
import json
from collections import Counter
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

ROW_KEYS = ("verdicts", "rows")


def read_rows(path) -> tuple[dict, list[dict]]:
    """The non-row keys and the rows of a JSON or CSV report.  A CSV
    report's non-row keys are its comment lines, each keyed by the text
    before its first "=", and its fields are kept as printed."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        [key] = [k for k in ROW_KEYS if k in doc]
        rows = doc.pop(key)
        return doc, rows
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header = dict(line[2:].partition("=")[::2] for line in comments)
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return header, rows


def _name(row: dict) -> str:
    return row["check_id"] if "check_id" in row else row["name"]


def _keys(rows: list[dict]) -> list[tuple]:
    """Each row's name, graph_label and params, with the number of earlier
    rows that share them, so that every key is unique."""
    seen = Counter()
    keys = []
    for row in rows:
        params = row.get("params")
        if isinstance(params, dict):
            params = json.dumps(params, sort_keys=True)
        key = (_name(row), row.get("graph_label"), params)
        keys.append((*key, seen[key]))
        seen[key] += 1
    return keys


def _where(key: tuple) -> str:
    name, label, params, _ = key
    return " ".join(str(part) for part in (name, label, params) if part is not None)


def diff(old: tuple[dict, list[dict]], new: tuple[dict, list[dict]], removed=()) -> list[str]:
    """Each disagreement between an old and a new report, as read_rows reads
    them, beyond the rows whose names are in removed, as a line of text."""
    (old_header, old_rows), (new_header, new_rows) = old, new
    removed = set(removed)
    problems = []
    for key in sorted(set(old_header) | set(new_header)):
        if key == "summary":
            continue
        if old_header.get(key) != new_header.get(key):
            problems.append(f"{key}: {old_header.get(key)!r} became {new_header.get(key)!r}")
    if "summary" in new_header:
        failed = sum(1 for row in new_rows if not row["pass"])
        counted = {"total": len(new_rows), "failed": failed}
        if new_header["summary"] != counted:
            problems.append(f"summary {new_header['summary']}, the rows give {counted}")
    kept = [row for row in old_rows if _name(row) not in removed]
    old_by_key = dict(zip(_keys(kept), kept))
    new_by_key = dict(zip(_keys(new_rows), new_rows))
    for key in [key for key in old_by_key if key not in new_by_key]:
        problems.append(f"{_where(key)}: missing")
    for key in [key for key in new_by_key if key not in old_by_key]:
        why = "a removed row, still printed" if key[0] in removed else "added"
        problems.append(f"{_where(key)}: {why}")
    old_order = [key for key in old_by_key if key in new_by_key]
    new_order = [key for key in new_by_key if key in old_by_key]
    for i, (was, now) in enumerate(zip(old_order, new_order)):
        if old_by_key[was] != new_by_key[was]:
            problems.append(f"{_where(was)}: {old_by_key[was]} became {new_by_key[was]}")
        if was != now:
            problems.append(f"{_where(now)}: out of order, at place {i} of the kept rows")
    return problems


def diff_reports(old_path, new_path, removed=()) -> list[str]:
    """diff on the reports at old_path and new_path."""
    return diff(read_rows(old_path), read_rows(new_path), removed)


def _drop(report: tuple[dict, list[dict]], names) -> tuple[dict, list[dict]]:
    """A copy of a report without the rows of the given names, its summary
    recounted as the program would print it."""
    header, rows = copy.deepcopy(report)
    rows = [row for row in rows if _name(row) not in names]
    if "summary" in header:
        header["summary"] = {"total": len(rows), "failed": sum(1 for r in rows if not r["pass"])}
    return header, rows


def _change_value(report):
    row = report[1][3]
    field = "margin" if "margin" in row else "value"
    row[field] += "1"


def _drop_kept_row(report):
    del report[1][3]


def _swap_rows(report):
    rows = report[1]
    rows[3], rows[4] = rows[4], rows[3]


def _add_row(report):
    report[1].append(copy.deepcopy(report[1][3]))


def _edit_config(report):
    report[0]["config"]["n"] += 1


# One golden verdict report and one golden bounds report, each with the
# check ids or row names that a change might remove from it.
REPORTS = {
    "verify-suite-8-2-grids.json": {"match-pf-upper", "union-block-identity"},
    "bounds-40-4.json": {"optimal-lambda", "stirling-terms-ok"},
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_dropping_exactly_the_named_rows_passes(name, tmp_path):
    old = read_rows(GOLDEN / name)
    assert diff(old, old) == []
    new = _drop(old, REPORTS[name])
    assert len(new[1]) < len(old[1])
    assert diff(old, new, REPORTS[name]) == []
    # Through files, as a regenerated report is compared with its parent.
    [key] = [k for k in ROW_KEYS if k in json.loads((GOLDEN / name).read_text(encoding="utf-8"))]
    path = tmp_path / name
    path.write_text(json.dumps({**new[0], key: new[1]}), encoding="utf-8")
    assert diff_reports(GOLDEN / name, path, REPORTS[name]) == []
    # Without the names, each dropped row is missing.
    missing = diff(old, new)
    assert len(missing) == len(old[1]) - len(new[1])
    assert all(p.endswith(": missing") for p in missing)


@pytest.mark.parametrize("name", sorted(REPORTS))
@pytest.mark.parametrize(
    "mutate, caught",
    [
        (_change_value, " became "),
        (_drop_kept_row, ": missing"),
        (_swap_rows, ": out of order"),
        (_add_row, ": added"),
        (_edit_config, "config: "),
    ],
    ids=["changed-value", "dropped-kept-row", "swapped-rows", "added-row", "edited-config"],
)
def test_each_other_change_is_caught(name, mutate, caught):
    old = read_rows(GOLDEN / name)
    new = _drop(old, REPORTS[name])
    assert all(_name(row) not in REPORTS[name] for row in new[1][:5])
    mutate(new)
    problems = diff(old, new, REPORTS[name])
    assert any(caught in p for p in problems), problems


def test_a_removed_name_still_printed_is_caught():
    old = read_rows(GOLDEN / "bounds-8-2.json")
    assert diff(old, old, {"optimal-lambda"}) == [
        f"optimal-lambda {json.dumps({'d': 2, 'n': 8, 'size': s})}: a removed row, still printed"
        for s in (1, 2, 3)
    ]


def test_a_csv_report_reads_as_its_printed_fields(tmp_path):
    name = "bounds-12-3.csv"
    lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = read_rows(GOLDEN / name)
    assert set(header) == {"tool", "config"}
    assert len(rows) == len(lines) - 3
    kept = [line for line in lines if not line.startswith("optimal-lambda,")]
    path = tmp_path / name
    path.write_text("".join(kept), encoding="utf-8")
    assert diff_reports(GOLDEN / name, path, {"optimal-lambda"}) == []
    kept[4], kept[5] = kept[5], kept[4]
    path.write_text("".join(kept), encoding="utf-8")
    assert diff_reports(GOLDEN / name, path, {"optimal-lambda"})
