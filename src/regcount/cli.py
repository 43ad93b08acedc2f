"""Command line interface with deterministic JSON and CSV reports.

Exit status: 0 when every verdict passed (or the command produces no
verdicts), 2 when at least one verdict failed (a potential counterexample),
1 on usage or input errors.  Re-running a command with the same configuration
reproduces the report byte for byte: verdicts are sorted canonically and all
real values are formatted at 12 significant digits.

Each format has one writer, and both stream the report to its output: JSON
a top-level key a line and a verdict or row a line, each as json.dumps
prints it; CSV a row at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain, islice

from . import __version__
from .errors import DivisibilityError, DomainError, GraphError, ScaleError

# counting.MATCHING and counting.INDEPENDENT_SET, and verify.DEFAULT_ROOT_TOL:
# the parser is built for every command, --version included, so it names
# them without importing those layers.
_KINDS = ("matching", "independent-set")
_DEFAULT_ROOT_TOL = 1e-7

# gen --labeled keeps every row: at most 19,355 at 8 vertices, 1,024,380 at (9,4).
_LABELED_VERTEX_LIMIT = 8


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2 for
    failed verdicts, so usage errors are remapped to status 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str):
    """argparse type: a nonnegative rational, as a Fraction."""
    from fractions import Fraction

    value = Fraction(text)
    if value < 0:
        raise ValueError(f"expected a nonnegative rational, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="regcount", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"regcount {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, workers=True):
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if workers:
            sp.add_argument("--workers", type=_at_least(1), default=1)

    sp = sub.add_parser("count", help="exact count polynomial of a graph file")
    sp.add_argument("--kind", choices=_KINDS, required=True)
    sp.add_argument("--graph", required=True)
    common(sp, workers=False)

    sp = sub.add_parser("bounds", help="closed-form bound values for (n, d)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, action="append")
    sp.add_argument("--t", type=int, action="append")
    sp.add_argument("--lam", type=_fraction, action="append")
    sp.add_argument("--c", type=_fraction, action="append")
    common(sp, workers=False)

    sp = sub.add_parser("gen", help="enumerate d-regular graphs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--bipartite-only", action="store_true")
    sp.add_argument("--labeled", action="store_true",
                    help="emit every labeled graph instead of one per class")
    common(sp, workers=False)

    for name, help_text in (
        ("verify-umc", "matching counts vs the complete-bipartite union"),
        ("verify-kahn", "independent-set counts vs the union"),
        ("verify-suite", "all applicable bounds on every generated graph"),
        ("verify-roots", "real-rootedness of matching polynomials"),
        ("verify-hom", "order-product inequality and hard-core identity"),
    ):
        sp = sub.add_parser(name, help=help_text)
        if name == "verify-roots":
            sp.add_argument("--graph", help="single graph file instead of a sweep")
            sp.add_argument("--n", type=int)
            sp.add_argument("--d", type=int)
            sp.add_argument("--tol", type=float, default=_DEFAULT_ROOT_TOL)
        else:
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--d", type=int, required=True)
        if name == "verify-suite":
            sp.add_argument("--lam", type=_fraction, action="append")
            sp.add_argument("--c", type=_fraction, action="append")
        if name == "verify-hom":
            sp.add_argument("--orders", type=_at_least(0), default=5)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--c", type=_fraction, action="append")
        common(sp)
    return parser


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


# Graphs per task sent to a worker, with the check and its settings.
_CHUNK = 4


def _pmap(fn, items, workers: int) -> list:
    """[fn(item) for item in items], over a pool of at most one process per
    item and per usable CPU when workers > 1, fed chunks of _CHUNK items as
    items streams in.  The pool is sized from the first min(workers, cpus)
    items, and forks all its processes at once."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    items = iter(items)
    head = list(islice(items, min(workers, cpus)))
    items = chain(head, items)
    if len(head) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        return list(pool.map(fn, items, chunksize=_CHUNK))


def _config_echo(args: argparse.Namespace) -> dict:
    """The parsed arguments by name, without command and those left unset.
    A value that is not a str, int or float (a Fraction) is echoed as its
    str(), in a list too, so that json.dumps encodes every value."""

    def echo(value):
        return value if isinstance(value, (str, int, float)) else str(value)

    config = {}
    for key in sorted(vars(args)):
        value = getattr(args, key)
        if key == "command" or value is None:
            continue
        config[key] = [echo(v) for v in value] if isinstance(value, list) else echo(value)
    return config


def _report(command: str, config: dict, verdicts=None, rows=None, extra=None) -> dict:
    doc = {
        "tool": "regcount",
        "version": __version__,
        "command": command,
        "config": config,
    }
    if extra:
        doc.update(extra)
    if rows is not None:
        doc["rows"] = rows
    if verdicts is not None:
        doc["verdicts"] = verdicts
        doc["summary"] = {
            "total": len(verdicts),
            "failed": sum(1 for v in verdicts if not v.passed),
        }
    return doc


# json.dumps(value, sort_keys=True), without building an encoder per call.
_sorted_json = json.JSONEncoder(sort_keys=True).encode


def _write_json(doc: dict, out) -> None:
    """Write doc as JSON, and a newline, to out in pieces: a top-level key
    a line, and a top-level list an item a line, each value and item as
    json.dumps prints it.  A list item with a to_json_dict() (a Verdict) is
    written as that dict."""
    write = out.write
    sep = "{\n  "
    for key, value in doc.items():
        write(f"{sep}{json.dumps(key)}: ")
        if isinstance(value, list) and value:
            item_sep = "[\n    "
            for item in value:
                # Duck-typed, so that count need not import regcount.verify.
                to_json_dict = getattr(item, "to_json_dict", None)
                write(item_sep + json.dumps(to_json_dict() if to_json_dict else item))
                item_sep = ",\n    "
            write("\n  ]")
        else:
            write(json.dumps(value))
        sep = ",\n  "
    write("\n}\n")


def _csv_cell(value):
    """A dict or bool as its JSON text with sorted keys; any other value as
    it is."""
    if isinstance(value, dict):
        return _sorted_json(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _write_csv(doc: dict, out) -> None:
    """The report as CSV on out: two # lines, a header, then a row of
    _csv_cell()s per record.  The records are each verdict's to_json_dict()
    under CSV_HEADER, else the rows of a rows report, else the key and
    JSON-encoded value of each key of the report body."""
    import csv

    out.write(f"# tool={doc['tool']} version={doc['version']} command={doc['command']}\n")
    out.write(f"# config={_sorted_json(doc['config'])}\n")
    if "verdicts" in doc:
        from .verify import CSV_HEADER

        header = CSV_HEADER
        records = (v.to_json_dict() for v in doc["verdicts"])
    elif "rows" in doc:
        records = doc["rows"]
        header = list(records[0]) if records else []
    else:
        header = ["key", "value"]
        records = [
            {"key": key, "value": _sorted_json(value)}
            for key, value in doc.items()
            if key not in ("tool", "version", "command", "config")
        ]
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(header)
    for record in records:
        writer.writerow([_csv_cell(record[key]) for key in header])


def _emit(doc: dict, args: argparse.Namespace) -> None:
    """Write the report in args.format to args.out, or to standard output."""
    writer = _write_json if args.format == "json" else _write_csv
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer(doc, fh)
        summary = doc.get("summary")
        if summary:
            sys.stdout.write(
                f"{doc['command']}: {summary['total']} checks, "
                f"{summary['failed']} failed -> {args.out}\n"
            )
        else:
            sys.stdout.write(f"{doc['command']}: report -> {args.out}\n")
    else:
        writer(doc, sys.stdout)


def _read_graph(path: str):
    from .graphs import graph_from_text

    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path} is not UTF-8 text: {exc}") from exc
    return graph_from_text(text)


def _cmd_count(args) -> int:
    from .counting import MATCHING, independence_polynomial, matching_polynomial

    g = _read_graph(args.graph)
    if args.kind == MATCHING:
        poly = matching_polynomial(g)
    else:
        poly = independence_polynomial(g)
    doc = _report(
        "count",
        _config_echo(args),
        extra={"kind": args.kind, "coefficients": poly.to_json_strings()},
    )
    _emit(doc, args)
    return 0


def _bounds_rows(n, d, ells, ts, lams, cs) -> list[dict]:
    """The bounds report's rows: the paper's bounds on (n, d) read from
    verify.suite_table, beside the K_{d,d} union's counts and its own lower
    bounds, read from the union verdicts that verify-suite decides, each
    list in the order given."""
    from .bounds import (
        balanced_profile,
        log2_ratio,
        optimal_lambda,
        profile_matching_lower,
        stirling_term,
        union_matching_lower_explicit,
    )
    from .kdd import kdd_matching_count, union_matching_polynomial
    from .verify import (
        _params,
        bound_verdict,
        format_number,
        suite_table,
        verify_union_lower_bounds,
    )

    union = union_matching_polynomial(n, d)
    table = suite_table(n, d, lams, ells + ts)
    # Each row's bound by check id and the size or weight it reads.
    bounds = {(row.check_id, row.reads[1]): row.bound for row in table.rows}
    # The union's verdicts by check id, size and printed c.  A lower bound's
    # verdict prints the bound as its lhs.
    decided = {
        (v.check_id, v.params["size"], v.params.get("c")): v
        for v in verify_union_lower_bounds(table, [c for c in cs if c > 1])
    }
    rows: list[dict] = []

    def add(name, value, direction, **params):
        rows.append(
            {
                "name": name,
                "params": _params(n=n, d=d, **params),
                "value": format_number(value),
                "direction": direction,
            }
        )

    for ell in ells:
        count = union.coefficient(ell)
        add("union-match-count", count, "exact", size=ell)
        if count:
            add("union-match-count-log2", log2_ratio(count, 1), "exact", size=ell)
        add("match-count-upper", bounds["match-count-upper", ell].log_bound(), "upper", size=ell)
        if 0 < ell < n // 2:
            add("optimal-lambda", optimal_lambda(n, d, ell), "info", size=ell)
            explicit = union_matching_lower_explicit(n, d, ell)
            add("union-match-lower-explicit", explicit.log_bound(), "reference", size=ell)
            if count:
                # log2(count) less the explicit value: the verdict's margin.
                gap = bound_verdict("", "", {}, count, explicit).margin
                add("explicit-gap-log2", gap, "info", size=ell)
        profile = balanced_profile(n, d, ell)
        for c in cs:
            # Does binom(d, a)^2 a! meet the Stirling-style term of each a?
            ok = all(
                bound_verdict(
                    "stirling-terms-ok",
                    "",
                    {},
                    kdd_matching_count(d, a),
                    stirling_term(d, a, c),
                ).passed
                for a in set(profile)
            )
            add("stirling-terms-ok", ok, "info", size=ell, c=c)
            bound = profile_matching_lower(n, d, profile, c)
            add("profile-match-lower", bound.log_bound(), "lower", size=ell, c=c)
    for lam in lams:
        for name in ("match-pf-upper", "ind-pf-upper-general", "ind-pf-upper-bipartite"):
            add(name, bounds[name, lam].log_bound(), "upper", lam=lam)
    for t in ts:
        count = table.union.coefficient(t)
        add("union-ind-count", count, "exact", size=t)
        if count:
            add("union-ind-count-log2", log2_ratio(count, 1), "exact", size=t)
        for name in ("ind-count-upper-general", "ind-count-upper-bipartite"):
            add(name, bounds[name, t].log_bound(), "upper", size=t)
        add("ind-upper-pm-exact", bounds["ind-count-vs-pm-bound", t].rhs, "upper", size=t)
        for c in cs:
            if c > 1:
                lower = decided["union-ind-lower-markov", t, format_number(c)]
                add("union-ind-lower-markov", lower.lhs, "lower", size=t, c=c)
        for name in ("union-ind-lower-small-t-log", "union-ind-lower-small-t-exact"):
            if (name, t, None) in decided:  # t <= n/2d
                add(name, decided[name, t, None].lhs, "lower", size=t)
        mean = decided["union-block-mean-markov", t, None]
        add("block-miss-mean", mean.lhs, "exact", size=t)
        add("block-miss-mean-upper", mean.rhs, "upper", size=t)
    return rows


def _cmd_bounds(args) -> int:
    from .verify import DEFAULT_C_GRID, DEFAULT_LAMBDA_GRID

    n, d = args.n, args.d
    sizes = range(n // 2 + 1)
    # A value given twice gives its rows once, at its first place; the config
    # echoes each grid as given.
    ells = list(dict.fromkeys(args.ell or sizes))
    ts = list(dict.fromkeys(args.t or sizes))
    lams = list(dict.fromkeys(args.lam or DEFAULT_LAMBDA_GRID))
    cs = list(dict.fromkeys(args.c or DEFAULT_C_GRID))
    rows = _bounds_rows(n, d, ells, ts, lams, cs)
    doc = _report("bounds", _config_echo(args), rows=rows)
    _emit(doc, args)
    return 0


def _cmd_gen(args) -> int:
    from .generate import GenSpec, census_label, census_name, generate
    from .graphs import graph_to_text

    spec = GenSpec(
        args.n,
        args.d,
        bipartite_only=args.bipartite_only,
        isomorph_reject=not args.labeled,
    )
    if args.labeled and args.n > _LABELED_VERTEX_LIMIT:
        raise ScaleError(f"gen --labeled supports n <= {_LABELED_VERTEX_LIMIT}, got {args.n}")
    rows = []
    for idx, g in enumerate(generate(spec)):
        if spec.isomorph_reject:
            label = census_label(g, args.d, idx)
        else:
            label = census_name(args.n, args.d, idx)
        rows.append(
            {
                "index": idx,
                "label": label,
                "vertices": g.vertex_count,
                "edges": g.edge_count,
                "graph": graph_to_text(g),
            }
        )
    doc = _report(
        "gen", _config_echo(args), rows=rows, extra={"count": len(rows)}
    )
    _emit(doc, args)
    return 0


def _union_settings(kind: str, args) -> tuple[dict, list]:
    """verify-umc's and verify-kahn's settings: the vs-union table of kind
    (counting.MATCHING or counting.INDEPENDENT_SET) on (n, d)."""
    from .verify import vs_union_table

    return {"table": vs_union_table(args.n, args.d, kind)}, []


def _suite_settings(args) -> tuple[dict, list]:
    """verify-suite's table, and the union's verdicts where it has a union."""
    from . import verify
    from .bounds import markov_constant

    # Each --c is refused, and suite_table checks --lam, before a bound is built.
    for c in args.c or ():
        markov_constant(c)
    table = verify.suite_table(args.n, args.d, args.lam or verify.DEFAULT_LAMBDA_GRID)
    c_grid = args.c or verify.DEFAULT_C_GRID
    union = [] if table.union is None else verify.verify_union_lower_bounds(table, c_grid)
    return {"table": table}, union


def _roots_settings(args) -> tuple[dict, list]:
    from .verify import root_tolerance

    settings = {"tol": root_tolerance(args.tol)}
    import numpy  # for verify_real_rooted: once here, not in each worker _pmap forks
    return settings, []


def _hom_settings(args) -> tuple[dict, list]:
    from .verify import DEFAULT_C_GRID, clique_size, hom_targets

    c_grid = [clique_size(c) for c in args.c or DEFAULT_C_GRID]
    targets = hom_targets(args.d)
    return dict(targets=targets, random_orders=args.orders, seed=args.seed, c_grid=c_grid), []


# verify command -> (name of its per-graph check, a function that checks the
# args once (n, d) has passed GenSpec, before any graph is generated, and
# returns the check's settings and the verdicts that depend on the args
# alone).  Checks are looked up on regcount.verify by name when the command
# runs, so that a rebinding (a stub, a tracing hook) runs.
_VERIFY = {
    "verify-umc": ("suite_graph_verdicts", partial(_union_settings, "matching")),
    "verify-kahn": ("suite_graph_verdicts", partial(_union_settings, "independent-set")),
    "verify-suite": ("suite_graph_verdicts", _suite_settings),
    "verify-roots": ("verify_real_rooted", _roots_settings),
    "verify-hom": ("hom_graph_verdicts", _hom_settings),
}


def _cmd_verify(args) -> int:
    from . import verify
    from .generate import GenSpec, generate

    check_name, build_settings = _VERIFY[args.command]
    graph = getattr(args, "graph", None)
    if graph and (args.n is not None or args.d is not None):
        raise DomainError("verify-roots takes --graph or --n and --d, not both")
    if not graph and (args.n is None or args.d is None):
        raise DomainError("verify-roots needs either --graph or both --n and --d")
    # A census shape is refused before build_settings builds anything for it.
    spec = None if graph else GenSpec(args.n, args.d)
    settings, verdicts = build_settings(args)
    check = partial(getattr(verify, check_name), **settings)
    graphs = enumerate(generate(spec)) if spec else [(None, _read_graph(graph))]
    verdicts += verify.sweep(graphs, check, map=partial(_pmap, workers=args.workers))
    verdicts = verify.sort_verdicts(verdicts)
    doc = _report(args.command, _config_echo(args), verdicts=verdicts)
    _emit(doc, args)
    return 2 if doc["summary"]["failed"] else 0


_COMMANDS = {
    "count": _cmd_count,
    "bounds": _cmd_bounds,
    "gen": _cmd_gen,
    **{command: _cmd_verify for command in _VERIFY},
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact values may pass the default limit of 4,300 digits on int-to-str
    # conversion (Python 3.10.7 on): lift it for the command.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except (GraphError, DomainError, DivisibilityError, ScaleError, OSError) as exc:
        sys.stderr.write(f"regcount: error: {exc}\n")
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
