"""Output checks for the benchmark's regcount commands.

A report is hashed by its results alone: the verdict rows of a verify
report, the kind and coefficients of a count report.  The rest (`config`,
which echoes `--out` and `--workers`, the tool version and the summary)
may change without the results changing.  The pinned digests in
pinned.json fix the results of every command the workloads run.
"""

from __future__ import annotations

import hashlib
import json
import os

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

# Published counts of cubic graphs, connected or not, up to isomorphism.
CENSUS_CLASSES = {(12, 3): 94, (8, 3): 6}


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(doc: dict) -> str:
    if "verdicts" in doc:
        body = doc["verdicts"]
    else:
        body = {"kind": doc.get("kind"), "coefficients": doc.get("coefficients")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_sweep(doc: dict, n: int, d: int) -> list[str]:
    """A verify-* report: no failed verdict, and one census class per
    published isomorphism class."""
    problems = []
    verdicts = doc.get("verdicts", [])
    summary = doc.get("summary", {})
    if summary.get("failed") != 0 or summary.get("total") != len(verdicts):
        problems.append(f"summary {summary} does not match {len(verdicts)} passing verdicts")
    classes = {v["graph_label"] for v in verdicts if not v["graph_label"].startswith("union-")}
    if len(classes) != CENSUS_CLASSES[(n, d)]:
        problems.append(f"{len(classes)} census classes, published count is {CENSUS_CLASSES[(n, d)]}")
    return problems


def check_count(doc: dict, kind: str, vertices: int, edges: int) -> list[str]:
    """A count report: one empty object, and one object per edge (matchings)
    or per vertex (independent sets) of size one."""
    coeffs = doc.get("coefficients", [])
    size_one = edges if kind == "matching" else vertices
    if doc.get("kind") != kind or coeffs[:2] != ["1", str(size_one)]:
        return [f"{kind} coefficients {coeffs[:2]} should start ['1', '{size_one}']"]
    return []


def check_report(path: str, status: int, key: str, pinned: dict, content_check):
    """Check one command's exit status and report; return (digest, problems,
    report).

    content_check(doc) returns the problems particular to the command."""
    problems = [] if status == 0 else [f"exit status {status}, expected 0"]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, problems + [f"no readable report: {exc}"], None
    if not isinstance(doc, dict):
        return None, problems + ["report is not a JSON object"], None
    try:
        problems += content_check(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    digest = report_digest(doc)
    if digest != pinned.get(key):
        problems.append(f"report digest {digest} differs from pinned {pinned.get(key)}")
    return digest, problems, doc
