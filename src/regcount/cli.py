"""Command line interface with deterministic JSON and CSV reports.

Exit status: 0 when every verdict passed (or the command produces no
verdicts), 2 when at least one verdict failed (a potential counterexample),
1 on usage or input errors.  Re-running a command with the same configuration
reproduces the report byte for byte: verdicts are sorted canonically and all
real values are formatted at 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import DivisibilityError, DomainError, GraphError, ScaleError

# counting.MATCHING and counting.INDEPENDENT_SET, and verify.DEFAULT_ROOT_TOL:
# the parser is built for every command, --version included, so it names
# them without importing those layers.
_KINDS = ("matching", "independent-set")
_DEFAULT_ROOT_TOL = 1e-7


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2 for
    failed verdicts, so usage errors are remapped to status 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
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


def _pmap(fn, items, workers: int) -> list:
    """[fn(item) for item in items], over a pool of at most one process per
    item when workers > 1.  Pools fork all their processes at once."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _config_echo(args: argparse.Namespace) -> dict:
    config = {}
    for key in sorted(vars(args)):
        if key == "command":
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, list):
            config[key] = [
                str(v) if isinstance(v, Fraction) else v for v in value
            ]
        elif isinstance(value, Fraction):
            config[key] = str(value)
        else:
            config[key] = value
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


def _render_csv(doc: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    buf.write(f"# tool={doc['tool']} version={doc['version']} command={doc['command']}\n")
    buf.write(f"# config={json.dumps(doc['config'], sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    if "verdicts" in doc:
        from .verify import CSV_HEADER

        writer.writerow(CSV_HEADER)
        for verdict in doc["verdicts"]:
            v = verdict.to_json_dict()
            writer.writerow(
                [
                    v["check_id"],
                    v["graph_label"],
                    json.dumps(v["params"], sort_keys=True),
                    v["lhs"],
                    v["rhs"],
                    "true" if v["pass"] else "false",
                    v["margin"],
                ]
            )
    elif "rows" in doc:
        rows = doc["rows"]
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [
                        json.dumps(row[k], sort_keys=True)
                        if isinstance(row[k], dict)
                        else row[k]
                        for k in header
                    ]
                )
    else:
        writer.writerow(["key", "value"])
        for key, value in doc.items():
            if key in ("tool", "version", "command", "config"):
                continue
            writer.writerow([key, json.dumps(value, sort_keys=True)])
    return buf.getvalue()


def _json_text(value, pad: str) -> str:
    """json.dumps(value, indent=2) for a value nested in a document, on a
    line indented by pad.  A dict's keys and its string, int and bool values
    are encoded in place, strings by the json module's C encoder; any other
    value goes through json.dumps."""
    if type(value) is not dict:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    if not value:
        return "{}"
    inner = pad + "  "
    parts = []
    for key, v in value.items():
        kind = type(v)
        if kind is str:
            text = encode_basestring_ascii(v)
        elif kind is int:
            text = str(v)
        elif kind is bool:
            text = "true" if v else "false"
        else:
            text = _json_text(v, inner)
        parts.append(f"{encode_basestring_ascii(key)}: {text}")
    return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"


# An empty verdict list as json.dumps(report, indent=2) renders it: a key of
# the top level, the only one with this indentation.
_VERDICTS_SLOT = '\n  "verdicts": []'


def _write_json(doc: dict, write) -> None:
    """write(json.dumps(doc, indent=2) + "\n"), in pieces when doc has
    verdicts (a list of Verdicts): the frame, which is the report with an
    empty verdict list, through json.dumps, and each verdict's
    to_json_dict() through _json_text."""
    verdicts = doc.get("verdicts")
    frame = json.dumps({**doc, "verdicts": []} if verdicts else doc, indent=2)
    if not verdicts:
        write(frame + "\n")
        return
    head, tail = frame.split(_VERDICTS_SLOT)
    write(head + '\n  "verdicts": [')
    for i, v in enumerate(verdicts):
        write((",\n    " if i else "\n    ") + _json_text(v.to_json_dict(), "    "))
    write("\n  ]" + tail + "\n")


def _emit(doc: dict, args: argparse.Namespace) -> None:
    """Write the report in args.format to args.out, or to standard output."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_report(doc, args.format, fh.write)
        summary = doc.get("summary")
        if summary:
            sys.stdout.write(
                f"{doc['command']}: {summary['total']} checks, "
                f"{summary['failed']} failed -> {args.out}\n"
            )
        else:
            sys.stdout.write(f"{doc['command']}: report -> {args.out}\n")
    else:
        _write_report(doc, args.format, sys.stdout.write)


def _write_report(doc: dict, fmt: str, write) -> None:
    if fmt == "json":
        _write_json(doc, write)
    else:
        write(_render_csv(doc))


def _exit_status(verdicts) -> int:
    return 2 if any(not v.passed for v in verdicts) else 0


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
    from decimal import localcontext

    from .bounds import (
        _CTX,
        balanced_profile,
        block_miss_stats,
        ind_count_upper_bipartite,
        ind_count_upper_general,
        ind_pf_upper_bipartite,
        ind_pf_upper_general,
        independent_upper_pm_exact,
        log2,
        match_count_upper,
        match_pf_upper,
        optimal_lambda,
        profile_matching_lower,
        stirling_term_check,
        union_ind_lower_markov,
        union_ind_lower_small_t,
        union_matching_lower_explicit,
        union_small_t_exact,
    )
    from .kdd import union_independent_count, union_matching_count, union_params
    from .verify import _params, format_number

    p = union_params(n, d)
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
        count = union_matching_count(p, ell)
        add("union-match-count", count, "exact", size=ell)
        if count:
            add("union-match-count-log2", log2(count), "exact", size=ell)
        bound = match_count_upper(n, d, ell).log_bound()
        add("match-count-upper", bound.value, "upper", size=ell)
        if 0 < ell < n // 2:
            add("optimal-lambda", optimal_lambda(n, d, ell), "info", size=ell)
            explicit = union_matching_lower_explicit(n, d, ell)
            add("union-match-lower-explicit", explicit.value, "reference", size=ell)
            if count:
                with localcontext(_CTX):
                    gap = log2(count) - explicit.value
                add("explicit-gap-log2", gap, "info", size=ell)
        profile = balanced_profile(n, d, ell)
        for c in cs:
            add(
                "stirling-terms-ok",
                all(stirling_term_check(d, a, c) for a in profile),
                "info",
                size=ell,
                c=c,
            )
            add(
                "profile-match-lower",
                profile_matching_lower(n, d, profile, c).value,
                "lower",
                size=ell,
                c=c,
            )
    for lam in lams:
        for name, bound in (
            ("match-pf-upper", match_pf_upper),
            ("ind-pf-upper-general", ind_pf_upper_general),
            ("ind-pf-upper-bipartite", ind_pf_upper_bipartite),
        ):
            add(name, bound(n, d, lam).log_bound().value, "upper", lam=lam)
    for t in ts:
        count = union_independent_count(p, t)
        add("union-ind-count", count, "exact", size=t)
        if count:
            add("union-ind-count-log2", log2(count), "exact", size=t)
        bound = ind_count_upper_general(n, d, t).log_bound()
        add("ind-count-upper-general", bound.value, "upper", size=t)
        bound = ind_count_upper_bipartite(n, d, t)
        add("ind-count-upper-bipartite", bound.value, "upper", size=t)
        add("ind-upper-pm-exact", independent_upper_pm_exact(n, t), "upper", size=t)
        for c in cs:
            if c > 1:
                add(
                    "union-ind-lower-markov",
                    union_ind_lower_markov(n, d, t, c).value,
                    "lower",
                    size=t,
                    c=c,
                )
        if t <= p.copies:
            bound = union_ind_lower_small_t(n, d, t).log_bound()
            add("union-ind-lower-small-t-log", bound.value, "lower", size=t)
            add("union-ind-lower-small-t-exact", union_small_t_exact(n, d, t), "lower", size=t)
        mu, mu_bound = block_miss_stats(n, d, t)
        add("block-miss-mean", mu, "exact", size=t)
        add("block-miss-mean-upper", mu_bound, "upper", size=t)
    return rows


def _cmd_bounds(args) -> int:
    from .kdd import union_params
    from .verify import DEFAULT_C_GRID, DEFAULT_LAMBDA_GRID

    n, d = args.n, args.d
    union_params(n, d)
    ells = args.ell if args.ell else list(range(n // 2 + 1))
    ts = args.t if args.t else list(range(n // 2 + 1))
    lams = args.lam if args.lam else list(DEFAULT_LAMBDA_GRID)
    cs = args.c if args.c else list(DEFAULT_C_GRID)
    for size in list(ells) + list(ts):
        if not 0 <= size <= n // 2:
            raise DomainError(f"sizes must lie in 0..{n // 2}, got {size}")
    rows = _bounds_rows(n, d, ells, ts, lams, cs)
    doc = _report("bounds", _config_echo(args), rows=rows)
    _emit(doc, args)
    return 0


def _cmd_gen(args) -> int:
    from .generate import CANONICAL_FORM_LIMIT, GenSpec, canonical_form, generate
    from .graphs import graph_to_text

    spec = GenSpec(
        args.n,
        args.d,
        bipartite_only=args.bipartite_only,
        isomorph_reject=not args.labeled,
    )
    rows = []
    for idx, g in enumerate(generate(spec)):
        if spec.isomorph_reject and args.n <= CANONICAL_FORM_LIMIT:
            label = canonical_form(g)
        else:
            label = f"{args.n}v-{args.d}r-{idx:06d}"
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


def _union_shape(args) -> None:
    from .kdd import union_params

    union_params(args.n, args.d)


def _roots_source(args) -> None:
    if args.graph and (args.n is not None or args.d is not None):
        raise DomainError("verify-roots takes --graph or --n and --d, not both")
    if not args.graph and (args.n is None or args.d is None):
        raise DomainError("verify-roots needs either --graph or both --n and --d")


def _markov_constants(args) -> None:
    for c in args.c or ():
        if c <= 1:
            raise DomainError(f"Markov constant must exceed 1, got {c}")


def _clique_sizes(args) -> None:
    for c in args.c or ():
        if c.denominator != 1 or c < 1:
            raise DomainError(f"clique sizes must be positive integers, got {c}")


def _c_grid(args) -> dict:
    """The --c grid as a keyword argument; none, for the check's default."""
    return {"c_grid": tuple(args.c)} if args.c else {}


def _union_lowers(args) -> list:
    from .verify import verify_union_lower_bounds

    if args.d >= 1 and args.n % (2 * args.d) == 0:
        return verify_union_lower_bounds(args.n, args.d, **_c_grid(args))
    return []


# verify command -> (name of its per-graph check, the check's settings from
# the args, precondition on the args, verdicts added after the sweep).  A
# setting left out takes the check's default.  Checks are held by name and
# looked up on regcount.verify when the command runs, so that a rebinding of
# the module's name (a stub, a tracing hook) is what runs.
_VERIFY = {
    "verify-umc": ("umc_graph_verdicts", lambda args: {}, _union_shape, None),
    "verify-kahn": ("kahn_graph_verdicts", lambda args: {}, _union_shape, None),
    "verify-suite": (
        "suite_graph_verdicts",
        lambda args: {"lambda_grid": tuple(args.lam)} if args.lam else {},
        _markov_constants,
        _union_lowers,
    ),
    "verify-roots": ("verify_real_rooted", lambda args: {"tol": args.tol}, _roots_source, None),
    "verify-hom": (
        "hom_graph_verdicts",
        lambda args: {"random_orders": args.orders, "seed": args.seed, **_c_grid(args)},
        _clique_sizes,
        None,
    ),
}


def _cmd_verify(args) -> int:
    from . import verify
    from .generate import GenSpec

    check_name, settings, precondition, trailing = _VERIFY[args.command]
    if precondition:
        precondition(args)
    check = partial(getattr(verify, check_name), **settings(args))
    if getattr(args, "graph", None):
        verdicts = verify.profile_verdicts(verify.GraphProfile(_read_graph(args.graph)), check)
    else:
        verdicts = verify.sweep(
            GenSpec(args.n, args.d), check, map=partial(_pmap, workers=args.workers)
        )
    if trailing:
        verdicts += trailing(args)
    verdicts = verify.sort_verdicts(verdicts)
    doc = _report(args.command, _config_echo(args), verdicts=verdicts)
    _emit(doc, args)
    return _exit_status(verdicts)


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
    try:
        return _COMMANDS[args.command](args)
    except (GraphError, DomainError, DivisibilityError, ScaleError, OSError) as exc:
        sys.stderr.write(f"regcount: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
