"""End-to-end CLI coverage: report shapes, formats, exit codes, determinism,
and worker-pool equivalence.  Commands run in process through main()."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

import regcount
from regcount import graph_to_text
from regcount.cli import _report, _write_csv, _write_json, main
from regcount.verify import Verdict, exact_le

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def c4_file(tmp_path, c4):
    path = tmp_path / "c4.txt"
    path.write_text(graph_to_text(c4))
    return str(path)


def test_count_matching(capsys, c4_file):
    code, doc = run_json(capsys, "count", "--kind", "matching", "--graph", c4_file)
    assert code == 0
    assert doc["tool"] == "regcount"
    assert doc["command"] == "count"
    assert doc["coefficients"] == ["1", "4", "2"]
    assert doc["config"]["kind"] == "matching"


def test_count_independent_to_file(capsys, tmp_path, c4_file):
    out = tmp_path / "report.json"
    code, stdout = run_cli(
        capsys,
        "count", "--kind", "independent-set", "--graph", c4_file, "--out", str(out),
    )
    assert code == 0
    assert str(out) in stdout
    doc = json.loads(out.read_text())
    assert doc["coefficients"] == ["1", "4", "2"]
    assert doc["config"]["out"] == str(out)


def test_count_csv_key_value(capsys, c4_file):
    code, out = run_cli(
        capsys, "count", "--kind", "matching", "--graph", c4_file, "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool=regcount")
    assert lines[1].startswith("# config=")
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    assert rows[0] == ["key", "value"]
    assert ["coefficients", '["1", "4", "2"]'] in rows


def test_usage_and_io_errors(capsys, tmp_path):
    assert main(["count", "--kind", "matching"]) == 1  # missing --graph
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["count", "--kind", "matching", "--graph", str(tmp_path / "nope")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["count", "--kind", "matching", "--graph", str(bad)]) == 1
    # domain errors from argument values, not just parsing
    assert main(["bounds", "--n", "8", "--d", "3"]) == 1  # 2d does not divide n
    assert main(["bounds", "--n", "8", "--d", "2", "--ell", "9"]) == 1


def test_verify_umc_end_to_end(capsys):
    code, doc = run_json(capsys, "verify-umc", "--n", "8", "--d", "2")
    assert code == 0
    assert doc["summary"] == {"total": 15, "failed": 0}
    assert all(v["pass"] for v in doc["verdicts"])
    labels = {v["graph_label"] for v in doc["verdicts"]}
    assert labels == {"8v-2r-0000", "8v-2r-0001", "8v-2r-0002"}


def test_reruns_are_byte_identical(capsys):
    argv = ["verify-kahn", "--n", "8", "--d", "2"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    argv_csv = argv + ["--format", "csv"]
    _, csv1 = run_cli(capsys, *argv_csv)
    _, csv2 = run_cli(capsys, *argv_csv)
    assert csv1 == csv2
    assert csv1 != out1


def test_workers_equivalence(capsys):
    # Each check sends what it builds once per sweep to the workers in its
    # settings: verify-hom its K_{b,b} factor table, verify-suite its bound
    # table, verify-umc and verify-kahn the union polynomial.
    # verify-suite at (8, 2) sends the table's union on to its union rows.
    for command, d in (
        ("verify-kahn", "2"),
        ("verify-hom", "3"),
        ("verify-suite", "3"),
        ("verify-suite", "2"),
        ("verify-umc", "2"),
    ):
        _, doc1 = run_json(capsys, command, "--n", "8", "--d", d, "--workers", "1")
        _, doc2 = run_json(capsys, command, "--n", "8", "--d", d, "--workers", "2")
        assert doc1["verdicts"] == doc2["verdicts"]
        assert doc2["config"]["workers"] == 2


def test_sweep_checks_each_graph_as_the_census_streams(capsys, monkeypatch):
    # A census that fails after two graphs: both were checked before it
    # failed, since the sweep does not list the census first.
    import regcount.verify as verify_mod

    generate_mod = sys.modules["regcount.generate"]
    real_generate, real_check = generate_mod.generate, verify_mod.suite_graph_verdicts
    checked = []

    def two_then_fail(spec):
        graphs = real_generate(spec)
        yield next(graphs)
        yield next(graphs)
        raise RuntimeError("census stub")

    def check(p, **settings):
        checked.append(p.index)
        return real_check(p, **settings)

    monkeypatch.setattr(generate_mod, "generate", two_then_fail)
    monkeypatch.setattr(verify_mod, "suite_graph_verdicts", check)
    with pytest.raises(RuntimeError, match="census stub"):
        main(["verify-umc", "--n", "8", "--d", "2", "--workers", "1"])
    assert checked == [0, 1]


def _call_log(monkeypatch, module, names) -> dict:
    """Wrap the module's global names so that each call's arguments are
    logged, by name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def logged(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    return calls


def test_suite_builds_each_spec_only_bound_once_per_sweep(monkeypatch):
    import regcount.verify as verify_mod

    spec_only = (
        "match_pf_upper",
        "ind_pf_upper_general",
        "ind_pf_upper_bipartite",
        "optimal_lambda",
        "single_term",
        "match_count_upper",
        "ind_count_upper_general",
        "ind_count_upper_bipartite",
        "bregman_pm",
        "independent_upper_pm_exact",
    )
    calls = _call_log(monkeypatch, verify_mod, (*spec_only, "lambda_values", "match_pf_gurvits"))
    assert main(["verify-suite", "--n", "8", "--d", "2", "--out", os.devnull]) == 0
    for name in spec_only:
        assert calls[name] and len(set(calls[name])) == len(calls[name]), name
    # (8, 2): the optimal weights 1/6, 1/2 and 3/2, and 1/2 is on the grid too.
    grid = [Fraction(2) ** k for k in range(-6, 7)]
    weights = {*grid, Fraction(1, 6), Fraction(3, 2)}
    assert sorted(calls["match_pf_upper"]) == sorted((8, 2, lam) for lam in weights)
    assert len(calls["lambda_values"]) == 1
    # The Gurvits bound reads the graph's nu: once per graph (3) and weight.
    assert len(calls["match_pf_gurvits"]) == 3 * len(grid)


@pytest.mark.parametrize(
    "command, name",
    [("verify-umc", "union_matching_polynomial"), ("verify-kahn", "union_independence_polynomial")],
)
def test_union_sweeps_build_the_union_once(monkeypatch, command, name):
    import regcount.verify as verify_mod

    calls = _call_log(monkeypatch, verify_mod, (name,))
    assert main([command, "--n", "12", "--d", "2", "--out", os.devnull]) == 0
    assert calls[name] == [(12, 2)]


@pytest.mark.parametrize(
    "command, n, calls",
    [
        ("verify-suite", "12", 1),
        ("verify-suite", "10", 0),
        ("verify-umc", "12", 0),
        ("verify-kahn", "12", 0),
        ("verify-roots", "8", 0),
        ("verify-hom", "8", 0),
    ],
)
def test_union_verdicts_are_decided_with_the_settings(monkeypatch, command, n, calls):
    # verify-suite decides the union's rows once, where (n, d) has a union,
    # before the census yields its first graph; no other command decides them.
    import regcount.verify as verify_mod

    generate_mod = sys.modules["regcount.generate"]
    real_generate, real_union = generate_mod.generate, verify_mod.verify_union_lower_bounds
    events = []

    def logged_generate(spec):
        for g in real_generate(spec):
            events.append("graph")
            yield g

    def logged_union(*args, **kwargs):
        events.append("union")
        return real_union(*args, **kwargs)

    monkeypatch.setattr(generate_mod, "generate", logged_generate)
    monkeypatch.setattr(verify_mod, "verify_union_lower_bounds", logged_union)
    assert main([command, "--n", n, "--d", "3", "--out", os.devnull]) == 0
    assert events.count("union") == calls
    assert events.index("graph") == calls


@pytest.mark.parametrize("n, d", [("8", "2"), ("12", "3")])
def test_bounds_prints_the_union_verdicts_of_verify_suite(capsys, n, d):
    _, bounds = run_json(capsys, "bounds", "--n", n, "--d", d, "--c", "4", "--c", "1/2", "--c", "2")
    _, suite = run_json(capsys, "verify-suite", "--n", n, "--d", d, "--c", "4", "--c", "2")
    decided = {
        (v["check_id"], v["params"]["size"], v["params"].get("c")): v
        for v in suite["verdicts"]
        if v["graph_label"] == f"union-{n}v-{d}r"
    }
    printed, means = [], 0
    for row in bounds["rows"]:
        name, size, c = row["name"], row["params"].get("size"), row["params"].get("c")
        if name.startswith("union-ind-lower-"):
            assert row["value"] == decided[name, size, c]["lhs"]
            printed.append((name, size, c))
        elif name in ("block-miss-mean", "block-miss-mean-upper"):
            side = "lhs" if name == "block-miss-mean" else "rhs"
            assert row["value"] == decided["union-block-mean-markov", size, None][side]
            means += 1
    # Each union lower bound once, the Markov ones at c = 2 and 4 alone.
    lowers = [key for key in decided if key[0].startswith("union-ind-lower-")]
    assert sorted(printed, key=str) == sorted(lowers, key=str)
    assert {c for _, _, c in lowers} == {None, "2", "4"}
    assert means == 2 * (int(n) // 2 + 1)


@pytest.mark.parametrize(
    "argv",
    [["verify-suite", "--n", "20000", "--d", "3"], ["verify-umc", "--n", "20000", "--d", "10000"]],
    ids=["verify-suite", "verify-umc"],
)
def test_sweep_shape_is_refused_before_anything_is_built(capsys, monkeypatch, argv):
    # suite_table and the union polynomial are built once per sweep, but
    # only once (n, d) passes GenSpec: these would run for minutes.
    import time

    import regcount.verify as verify_mod

    def no_build(*args):
        raise AssertionError("a table or union was built")

    monkeypatch.setattr(verify_mod, "suite_table", no_build)
    monkeypatch.setattr(verify_mod, "union_matching_polynomial", no_build)
    start = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - start < 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_usage_error(capsys, workers):
    assert main(["verify-umc", "--n", "6", "--d", "3", "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


def test_negative_orders_is_a_usage_error(capsys):
    assert main(["verify-hom", "--n", "4", "--d", "2", "--orders", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--orders" in captured.err


def test_pool_is_no_larger_than_the_census(capsys, monkeypatch, c4_file):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Runs in process and records the pool size it was asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    code, doc = run_json(capsys, "verify-umc", "--n", "6", "--d", "3", "--workers", "8")
    assert code == 0 and doc["summary"]["total"] == 8  # 2 graphs, sizes 0..3
    assert sizes == [2]
    # a census of one graph runs in process, with no pool
    code, _ = run_json(capsys, "verify-umc", "--n", "4", "--d", "2", "--workers", "8")
    assert code == 0 and sizes == [2]
    # nor does one graph from a file
    code, doc = run_json(capsys, "verify-roots", "--graph", c4_file, "--workers", "2")
    assert code == 0 and doc["summary"]["total"] == 1 and sizes == [2]
    # nor is the pool larger than the usable CPUs: 2 for 3 graphs, and none
    # for 1, also where only the CPU count is known
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code, doc = run_json(capsys, "verify-umc", "--n", "8", "--d", "2", "--workers", "1000")
    assert code == 0 and sizes == [2, 2] and doc["config"]["workers"] == 1000
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, _ = run_json(capsys, "verify-umc", "--n", "8", "--d", "2", "--workers", "1000")
    assert code == 0 and sizes == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, _ = run_json(capsys, "verify-umc", "--n", "8", "--d", "2", "--workers", "1000")
    assert code == 0 and sizes == [2, 2]


@pytest.mark.parametrize("command", ["verify-umc", "verify-kahn"])
def test_union_sweeps_need_2d_dividing_n(capsys, command):
    assert main([command, "--n", "8", "--d", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2d | n" in captured.err


def test_verdict_csv_table(capsys):
    code, out = run_cli(capsys, "verify-umc", "--n", "8", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    assert rows[0] == ["check_id", "graph_label", "params", "lhs", "rhs", "pass", "margin"]
    assert len(rows) == 1 + 15
    assert all(r[5] == "true" for r in rows[1:])
    params = json.loads(rows[1][2])
    assert params["n"] == 8 and params["d"] == 2


def test_gen_census_and_labeled(capsys):
    from regcount import canonical_form, graph_from_text

    code, doc = run_json(capsys, "gen", "--n", "6", "--d", "3")
    assert code == 0
    assert doc["count"] == 2
    for row in doc["rows"]:
        g = graph_from_text(row["graph"])
        assert row["label"] == canonical_form(g)
        assert row["edges"] == 9
    code, doc = run_json(capsys, "gen", "--n", "6", "--d", "2", "--labeled")
    assert code == 0 and doc["count"] == 70
    assert doc["rows"][0]["label"] == "6v-2r-0000"
    code, doc = run_json(capsys, "gen", "--n", "8", "--d", "2", "--bipartite-only")
    assert code == 0 and doc["count"] == 2


@pytest.mark.parametrize("flags", [(), ("--labeled",)], ids=["census", "labeled"])
def test_gen_names_a_graph_as_the_verify_reports_do(capsys, monkeypatch, flags):
    # Past the canonical-label limit, and under --labeled, a gen row carries
    # the census name that verify's GraphProfile gives the same graph.
    from regcount import graph_from_text
    from regcount.verify import GraphProfile

    # The package binds the name generate to the function, not the module.
    monkeypatch.setattr(sys.modules["regcount.generate"], "CANONICAL_FORM_LIMIT", 5)
    code, doc = run_json(capsys, "gen", "--n", "6", "--d", "2", *flags)
    assert code == 0 and doc["count"] == (70 if flags else 2)
    for row in doc["rows"]:
        g = graph_from_text(row["graph"])
        assert row["label"] == GraphProfile(g, row["index"]).label
    assert doc["rows"][-1]["label"] == ("6v-2r-0069" if flags else "6v-2r-0001")


def test_bounds_report(capsys):
    code, doc = run_json(
        capsys,
        "bounds", "--n", "8", "--d", "2",
        "--ell", "2", "--t", "2", "--lam", "1", "--c", "2",
    )
    assert code == 0
    rows = doc["rows"]
    names = {r["name"] for r in rows}
    assert {
        "union-match-count",
        "match-count-upper",
        "optimal-lambda",
        "union-match-lower-explicit",
        "explicit-gap-log2",
        "stirling-terms-ok",
        "profile-match-lower",
        "match-pf-upper",
        "ind-pf-upper-general",
        "ind-pf-upper-bipartite",
        "union-ind-count",
        "ind-count-upper-general",
        "ind-upper-pm-exact",
        "union-ind-lower-markov",
        "union-ind-lower-small-t-log",
        "union-ind-lower-small-t-exact",
        "block-miss-mean",
        "block-miss-mean-upper",
    } <= names

    def row(name):
        return [r for r in rows if r["name"] == name][0]

    assert row("union-match-count")["value"] == "20"
    assert row("match-count-upper")["value"] == "6"
    assert row("optimal-lambda")["value"] == "1/2"
    assert row("union-ind-lower-small-t-exact")["value"] == "16"
    assert row("block-miss-mean")["value"] == "1/3"
    assert row("block-miss-mean-upper")["value"] == "1/2"
    assert row("union-ind-lower-markov")["params"]["c"] == "2"


def test_bounds_csv_rows(capsys):
    code, out = run_cli(
        capsys, "bounds", "--n", "8", "--d", "2", "--ell", "2", "--t", "1",
        "--lam", "1", "--c", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[2:]))))
    assert rows[0] == ["name", "params", "value", "direction"]
    assert all(len(r) == 4 for r in rows[1:])


@pytest.mark.parametrize("flag", ["--ell", "--t"])
def test_bounds_sizes_are_checked_by_the_bounds_rule(capsys, flag):
    from regcount.bounds import check_domain

    with pytest.raises(regcount.DomainError) as err:
        check_domain(12, 3, 9)
    assert main(["bounds", "--n", "12", "--d", "3", flag, "2", flag, "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"regcount: error: {err.value}\n"
    assert str(err.value) == "size must lie in [0, n/2] = [0, 6.0], got 9"


def test_gen_labeled_past_its_vertex_limit_exits_1_at_once(capsys, monkeypatch):
    import importlib
    import time

    monkeypatch.setattr(importlib.import_module("regcount.generate"), "generate", _no_sweep)
    start = time.monotonic()
    assert main(["gen", "--n", "12", "--d", "3", "--labeled"]) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "regcount: error: gen --labeled supports n <= 8, got 12\n"


def test_verify_roots_modes(capsys, c4_file):
    code, doc = run_json(capsys, "verify-roots", "--n", "6", "--d", "3")
    assert code == 0 and doc["summary"]["failed"] == 0 and doc["summary"]["total"] == 2
    code, doc = run_json(capsys, "verify-roots", "--graph", c4_file)
    assert code == 0 and doc["summary"]["total"] == 1
    assert main(["verify-roots"]) == 1  # needs --graph or --n/--d


def test_verify_roots_graph_excludes_n_and_d(capsys, c4_file):
    # a report would echo an n and d for a census that never ran
    for extra in (["--n", "12", "--d", "4"], ["--n", "4"], ["--d", "2"]):
        assert main(["verify-roots", "--graph", c4_file, *extra]) == 1
        _assert_one_error_line(capsys)


def _no_sweep(*args, **kwargs):
    raise AssertionError("the census was generated")


def test_suite_markov_constants_are_checked_before_generation(capsys, monkeypatch):
    import regcount.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sweep", _no_sweep)
    # n = 10 has no union rows for the grid to reach, n = 12 has them
    for n, c in (("10", "1/2"), ("12", "1/2"), ("12", "1")):
        assert main(["verify-suite", "--n", n, "--d", "3", "--c", "2", "--c", c]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"regcount: error: Markov constant must exceed 1, got {c}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-suite", "--n", "14", "--d", "3", "--lam", "1", "--lam", "0"],
        ["bounds", "--n", "8", "--d", "2", "--lam", "0"],
    ],
    ids=["verify-suite", "bounds"],
)
def test_lambda_grid_must_be_positive(capsys, monkeypatch, argv):
    # bounds reads its weights from verify-suite's table, under one rule.
    import regcount.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sweep", _no_sweep)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "regcount: error: lambda grid must be positive\n"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_roots_tolerance_is_checked_before_generation(capsys, monkeypatch, tol):
    import regcount.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sweep", _no_sweep)
    assert main(["verify-roots", "--n", "14", "--d", "3", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"regcount: error: tolerance must be finite and positive, got {float(tol)}\n"
    )


def test_hom_shape_is_checked_before_any_count(capsys, monkeypatch):
    # hom_targets counts hom(K_{b,b}, H) for b up to d, before the sweep:
    # up to K_{300,300} here, were (n, d) not refused first.
    import regcount.verify as verify_mod

    def no_count(*args):
        raise AssertionError("a homomorphism was counted")

    monkeypatch.setattr(verify_mod, "count_homomorphisms", no_count)
    for shape in (["--n", "4", "--d", "300"], ["--n", "6", "--d", "3", "--c", "0"]):
        assert main(["verify-hom", *shape]) == 1
        _assert_one_error_line(capsys)


def test_hom_clique_sizes_are_checked_before_generation(capsys, monkeypatch):
    import regcount.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sweep", _no_sweep)
    for c in ("0", "1/2", "3/2"):
        assert main(["verify-hom", "--n", "6", "--d", "3", "--c", c]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"regcount: error: clique sizes must be positive integers, got {c}\n"
        )


def test_verify_suite_cli(capsys):
    code, doc = run_json(
        capsys, "verify-suite", "--n", "6", "--d", "3", "--lam", "1", "--lam", "2"
    )
    assert code == 0
    assert doc["summary"]["failed"] == 0
    ids = {v["check_id"] for v in doc["verdicts"]}
    assert "match-pf-upper" in ids
    assert "union-block-identity" in ids  # 2d | n, so union lowers are included


def test_verify_suite_with_a_large_markov_constant(capsys):
    # At c = 100000 the Markov-style exponents of 2 reach about -2 * 10^5,
    # integers and fractions alike, and each verdict is still decided
    # exactly.
    code, doc = run_json(capsys, "verify-suite", "--n", "12", "--d", "3", "--c", "100000")
    assert code == 0
    markov = [v for v in doc["verdicts"] if v["check_id"] == "union-ind-lower-markov"]
    assert len(markov) == 7 and all(v["pass"] for v in markov)


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify-suite", "--n", "6", "--d", "3"], "-1e+22"),
        (["bounds", "--n", "12", "--d", "3", "--t", "0"], "-2e+22"),
    ],
    ids=["verify-suite", "bounds"],
)
def test_markov_constant_with_an_integer_exponent_past_any_shift(capsys, argv, value):
    # At t = 0 and c = 10^22 the Markov-style exponent of 2, (n/2d)(1 - c),
    # is an integer of 22 digits.
    code, doc = run_json(capsys, *argv, "--c", str(10**22))
    assert code == 0
    if "verdicts" in doc:
        rows = [v for v in doc["verdicts"] if v["check_id"] == "union-ind-lower-markov"]
        assert all(v["pass"] for v in rows)
        assert [v["lhs"] for v in rows if v["params"]["size"] == 0] == [value]
    else:
        rows = [r for r in doc["rows"] if r["name"] == "union-ind-lower-markov"]
        assert [r["value"] for r in rows] == [value]


def _int_str_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-suite", "--n", "14", "--d", "13", "--lam", "1e30"],
        ["bounds", "--n", "6", "--d", "3", "--lam", "1e5000"],
        ["verify-suite", "--n", "6", "--d", "3", "--lam", "1e1000"],
    ],
    ids=["K14", "bounds-echo", "verify-suite-out"],
)
def test_reports_with_values_past_the_int_str_digit_limit(capsys, tmp_path, argv):
    # Each report holds an exact value of more than 4,300 digits, the
    # interpreter's default limit for int-to-str conversion; main lifts it
    # for the command and restores it.
    from regcount import GenSpec, eval_partition, generate, matching_polynomial
    from regcount.bounds import match_pf_upper

    out = tmp_path / "report.json"
    limit = _int_str_limit()
    code = main([*argv, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _int_str_limit() == limit
    doc = json.loads(out.read_text())
    n, d, lam = int(argv[2]), int(argv[4]), Fraction(10) ** int(argv[6][2:])
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert doc["config"]["lam"] == [str(lam)]
        if "verdicts" in doc:
            [v] = [
                v
                for v in doc["verdicts"]
                if v["check_id"] == "match-pf-upper" and v["graph_label"].endswith("-0000")
            ]
            g = next(iter(generate(GenSpec(n, d))))
            z = eval_partition(matching_polynomial(g), lam)
            assert Fraction(v["lhs"]) == match_pf_upper(n, d, lam).lhs(z)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_verify_hom_cli(capsys):
    code, doc = run_json(
        capsys, "verify-hom", "--n", "4", "--d", "2", "--orders", "2", "--seed", "7"
    )
    assert code == 0
    # 1 class x (5 targets x 4 orders + 2 c x 3 weights)
    assert doc["summary"] == {"total": 26, "failed": 0}


@pytest.mark.parametrize(
    "argv",
    [["verify-suite", "--n", "4", "--d", "2"], ["verify-hom", "--n", "4", "--d", "3"]],
    ids=lambda argv: argv[0],
)
def test_a_repeated_c_gives_the_verdicts_of_one(capsys, argv):
    _, once = run_json(capsys, *argv, "--c", "2")
    _, twice = run_json(capsys, *argv, "--c", "2", "--c", "2")
    assert twice["verdicts"] == once["verdicts"]
    assert twice["summary"] == once["summary"]
    assert twice["config"]["c"] == ["2", "2"]  # the echo keeps the list as given


@pytest.mark.parametrize(
    "option, values",
    [("--ell", ["2", "5"]), ("--t", ["3", "0"]), ("--lam", ["1/2", "3"]), ("--c", ["3", "2"])],
)
def test_a_repeated_bounds_value_gives_its_rows_once(capsys, option, values):
    def report(*given):
        argv = ["bounds", "--n", "24", "--d", "3"]
        for value in given:
            argv += [option, value]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        return doc

    a, b = values
    once = report(a, b)
    repeated = report(a, b, b, a)
    assert repeated["rows"] == once["rows"]
    # the echo keeps the list as given
    assert [str(v) for v in repeated["config"][option[2:]]] == [a, b, b, a]
    # an equal value in another spelling is a repeat too
    if option == "--lam":
        assert report(a, b, "2/4", "6/2")["rows"] == once["rows"]


def test_hom_identity_at_c_1_takes_each_weight_once(capsys):
    # The weights (0, 1, 1/c) repeat 1 at c = 1.
    _, doc = run_json(capsys, "verify-hom", "--n", "4", "--d", "3", "--c", "1")
    rows = [v for v in doc["verdicts"] if v["check_id"] == "hardcore-hom-identity"]
    assert [v["params"]["lam"] for v in rows] == ["0", "1"]


def test_verify_hom_accepts_degree_zero(capsys):
    # hom(G, H)^0 = 1, and every back degree is 0, so both sides are 1.
    code, doc = run_json(capsys, "verify-hom", "--n", "4", "--d", "0")
    assert code == 0
    # 1 class x (5 targets x 7 orders + 2 c x 3 weights)
    assert doc["summary"] == {"total": 41, "failed": 0}
    checks = [v["check_id"] for v in doc["verdicts"]]
    assert checks.count("hom-order-product") == 35
    assert checks.count("hardcore-hom-identity") == 6
    assert {v["margin"] for v in doc["verdicts"]} == {"0"}


def test_exit_code_2_on_failed_verdict(capsys, monkeypatch):
    import regcount.verify as verify_mod

    def fake_verdict(g, tol):
        return Verdict("match-poly-real-rooted", "stub", {}, 1.0, 0.0, False, -1.0)

    monkeypatch.setattr(verify_mod, "verify_real_rooted", fake_verdict)
    code, doc = run_json(capsys, "verify-roots", "--n", "4", "--d", "2")
    assert code == 2
    assert doc["summary"]["failed"] == 1


def test_count_too_large_exits_1(capsys, tmp_path, large_cubic):
    path = tmp_path / "cubic150.txt"
    path.write_text(graph_to_text(large_cubic))
    assert main(["count", "--kind", "matching", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("regcount: error: ")


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("regcount: error: ")
    assert captured.err.count("\n") == 1


def test_count_with_more_vertices_than_dp_states_exits_1(capsys, tmp_path):
    # Refused before any per-vertex work, not after a scan of every vertex.
    path = tmp_path / "huge.txt"
    path.write_text("1000001 0 0\n")
    assert main(["count", "--kind", "matching", "--graph", str(path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "text",
    [
        "\u0663 0 0\n",
        "+3 0 0\n",
        "1_0 0 0\n",
        "2 1 0\n\uff10 1\n",
        "2 1\x1c0\n0 1\n",
        "2 1 0\n0\x0b1\n",
        "2 1 0\n0\xa01\n",
    ],
)
def test_non_ascii_decimal_graph_file_exits_1(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["count", "--kind", "matching", "--graph", str(path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-7"])
def test_roots_tolerance_must_be_finite_and_positive(capsys, c4_file, tol):
    # nan compares false both ways, so it would fail every graph; inf would
    # pass every one.
    assert main(["verify-roots", "--graph", c4_file, f"--tol={tol}"]) == 1
    _assert_one_error_line(capsys)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports the package from where this
    process found it."""
    src = str(Path(regcount.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(c4_file):
    proc = _python("-m", "regcount.cli", "count", "--kind", "matching", "--graph", c4_file)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficients"] == ["1", "4", "2"]


@pytest.mark.parametrize(
    "argv", [["count", "--kind", "matching"], ["verify-roots"]], ids=lambda a: a[0]
)
def test_undecodable_graph_file_exits_1_without_traceback(tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00")
    proc = _python("-m", "regcount.cli", *argv, "--graph", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("regcount: error: ")
    assert "Traceback" not in proc.stderr


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this package; its stdout."""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_numpy():
    # numpy serves only verify-roots; every other command starts without it.
    code = "import sys, regcount.cli; print('numpy' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_verify_roots_imports_numpy_before_its_pool_forks():
    # Each forked worker inherits numpy rather than importing it again.
    code = """
import concurrent.futures, os, sys
from regcount.cli import main

imported = []

class RecordingPool:
    def __init__(self, max_workers):
        imported.append("numpy" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

concurrent.futures.ProcessPoolExecutor = RecordingPool
os.sched_getaffinity = lambda pid: {0, 1}
main(["verify-roots", "--n", "8", "--d", "3", "--workers", "2", "--out", os.devnull])
print(imported)
"""
    assert _fresh_python(code).splitlines()[-1] == "[True]"


# Layers and standard-library modules that count and --version never use.
_NOT_FOR_COUNT = (
    "regcount.verify",
    "regcount.poly",
    "regcount.bounds",
    "regcount.kdd",
    "regcount.generate",
    "regcount._canon",
    "concurrent.futures.process",
    "csv",
    "dataclasses",
    "fractions",
    "numpy",
)


def _loaded_after(argv: list[str], names) -> str:
    """The list of those of names that are imported after main(argv) runs in
    a new interpreter, as printed."""
    code = f"""
import sys
from regcount.cli import main
main({argv!r})
print([name for name in {tuple(names)!r} if name in sys.modules])
"""
    return _fresh_python(code).splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["count", "--kind", "matching", "--graph", str(GOLDEN / "petersen.txt")]],
    ids=lambda argv: argv[0],
)
def test_count_and_version_import_only_their_layers(argv):
    assert _loaded_after(argv, _NOT_FOR_COUNT) == "[]"


def test_gen_labels_rows_without_the_verify_layers():
    # gen and the verify reports share generate.census_label.
    argv = ["gen", "--n", "6", "--d", "3", "--out", os.devnull]
    assert _loaded_after(argv, ["regcount.verify", "regcount.bounds", "regcount.kdd"]) == "[]"


def test_one_worker_starts_no_process_pool():
    argv = ["verify-roots", "--n", "6", "--d", "3", "--workers", "1"]
    assert _loaded_after(argv, ["concurrent.futures.process"]) == "[]"


@pytest.mark.parametrize(
    "before",
    [
        "import regcount.generate",
        "from regcount.cli import main; main(['verify-umc', '--n', '6', '--d', '3'])",
    ],
    ids=["submodule", "verify"],
)
def test_generate_stays_the_function(before):
    # The submodule regcount.generate shares the name of the function.
    code = f"{before}\nfrom regcount import generate\nprint(callable(generate))"
    assert _fresh_python(code).splitlines()[-1] == "True"


def test_generate_can_be_rebound_to_another_function():
    # A tracing hook rebinds the name; loading the submodule leaves it bound.
    code = """
import regcount
hook = lambda spec: iter(())
regcount.generate = hook
import regcount.generate
print(regcount.generate is hook)
"""
    assert _fresh_python(code).splitlines()[-1] == "True"


def test_parser_constants_match_their_layers():
    from regcount import cli, counting, verify

    assert cli._KINDS == (counting.MATCHING, counting.INDEPENDENT_SET)
    assert cli._DEFAULT_ROOT_TOL == verify.DEFAULT_ROOT_TOL


def test_high_precision_logs_need_no_mpmath_and_keep_the_decimal_context():
    # Every high-precision log comes from integer brackets on ln, with no
    # mpmath and no decimal arithmetic: the caller's decimal context,
    # precision and flags alike, is left as it was.  log2(a / b) lies next
    # to a rounding boundary of its 12 printed digits, so log2_ratio
    # brackets it; Kahn's bound carries a factor e^b, so its verdict takes
    # the exact sign of its margin from signed_log2_ratio.  Both report
    # floats.
    b = 2**200
    with mpmath.workprec(800):
        a = int(mpmath.nint(mpmath.power(2, mpf("1.000000000005")) * b))
    code = f"""
import decimal, sys
before = repr(decimal.getcontext())
import regcount.cli
from fractions import Fraction
from regcount.bounds import ind_count_upper_bipartite, log2, log2_ratio
from regcount.verify import bound_verdict
bound = ind_count_upper_bipartite(12, 3, 2)
assert bound.pow_e != 0
verdict = bound_verdict("demo", "g", {{}}, 5, bound)
assert verdict.passed and isinstance(verdict.margin, float)
assert isinstance(log2(Fraction(3, 7)), float)
assert isinstance(log2_ratio({a}, {b}), float)
print("mpmath" in sys.modules, repr(decimal.getcontext()) == before)
"""
    assert _fresh_python(code) == "False True"


def test_every_exported_name_resolves():
    missing = [name for name in regcount.__all__ if not hasattr(regcount, name)]
    assert missing == []


def test_every_exported_name_is_listed_and_resolves_in_a_new_interpreter():
    # dir() lists the names before their submodules are imported.
    code = """
import regcount
print(sorted(set(regcount.__all__) - set(dir(regcount))))
print([name for name in regcount.__all__ if not hasattr(regcount, name)])
"""
    assert _fresh_python(code) == "[]\n[]"


class _Pieces(list):
    """An output stream that keeps each write as one piece."""

    write = list.append


def _written(doc) -> str:
    pieces = _Pieces()
    _write_json(doc, pieces)
    return "".join(pieces)


def _number(text: str):
    """A report's number back as the value it was formatted from."""
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _layout(doc: dict) -> str:
    """The report layout, built from json.dumps: a top-level key a line, and
    a nonempty top-level list an item a line, each value and item on one
    line as json.dumps prints it."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list) and value:
            items = ",\n".join("    " + json.dumps(item) for item in value)
            lines.append(f"  {json.dumps(key)}: [\n{items}\n  ]")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _assert_written_as(doc, parsed):
    """doc is written in the layout of parsed, and reads back as parsed."""
    written = _written(doc)
    assert written == _layout(parsed)
    assert json.loads(written) == parsed


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in GOLDEN.glob("*.json") if "verdicts" in json.loads(p.read_text())),
)
def test_verdict_writer_matches_json_dumps_on_golden_reports(name):
    doc = json.loads((GOLDEN / name).read_text())
    verdicts = [
        Verdict(
            row["check_id"],
            row["graph_label"],
            row["params"],
            _number(row["lhs"]),
            _number(row["rhs"]),
            row["pass"],
            _number(row["margin"]),
        )
        for row in doc["verdicts"]
    ]
    assert [v.to_json_dict() for v in verdicts] == doc["verdicts"]
    assert verdicts
    _assert_written_as({**doc, "verdicts": verdicts}, doc)


def test_verdict_writer_edge_cases(c4):
    doc = _report("verify-umc", {"n": 4, "out": 'a "quoted"\nname'}, verdicts=[])
    _assert_written_as(doc, doc)
    assert '"verdicts": []' in _written(doc)
    failed = exact_le("demo", "4v-2r", {"n": 4, "d": 2}, 7, 0, graph=c4)
    assert "\n" in failed.params["graph_text"]
    odd = Verdict("demo", "gé", {"w": [1, 2.5], "x": None, "y": {}}, 1, 2, True, 1.0)
    doc = _report("verify-umc", {}, verdicts=[failed, odd])
    rows = {**doc, "verdicts": [failed.to_json_dict(), odd.to_json_dict()]}
    _assert_written_as(doc, rows)


@pytest.mark.parametrize("writer", [_write_json, _write_csv], ids=["json", "csv"])
def test_report_writers_stream_each_verdict_by_itself(writer):
    verdicts = [
        Verdict("demo", f"g{i}", {"i": i}, i, i + 1, True, 1.0) for i in range(5)
    ]
    pieces = _Pieces()
    writer(_report("verify-umc", {}, verdicts=verdicts), pieces)
    assert sum("demo" in piece for piece in pieces) == len(verdicts)
