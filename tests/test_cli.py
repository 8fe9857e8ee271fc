import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcgp.cli as cli_mod
from fcgp.cli import (
    EXIT_BUDGET,
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_NO,
    EXIT_OK,
    EXIT_USAGE,
    kernel_file_text,
    main,
    parse_fraction,
    parse_kernel_file,
)
import fcgp.graph as graph_mod
import fcgp.harness as harness_mod
from fcgp.graph import RuleInternalError, minimum_vertex_cover
from fcgp.harness import gen_degenerate, gen_gnp
from fcgp.instance import AnnotatedInstance, LiftError
from fcgp.ramsey import ExtractionPreconditionError, WitnessVerificationError
from fcgp.rules import KERNELIZED, PIPELINES
from fcgp.solve import SOLVERS

from conftest import complete_graph, triangle_chain
from test_rules import _pipeline_runs


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("6 7\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n")
    return str(path)


@pytest.fixture
def dimacs_file(tmp_path):
    path = tmp_path / "g.col"
    path.write_text("c demo\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    return str(path)


def test_parse_fraction_accepts_fractions_only():
    assert parse_fraction("3/2") == parse_fraction(" 3/2 ")
    assert parse_fraction("-2") == -2
    for bad in ("0.5", "1e3", "a/b", "1/2/3"):
        with pytest.raises(Exception):
            parse_fraction(bad)


def test_params_output(graph_file, capsys):
    assert main(["params", graph_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta=3 degeneracy=2 hindex=2 closure=2 vc=4" in out


def test_params_dimacs(dimacs_file, capsys):
    assert main(["params", dimacs_file]) == EXIT_OK
    assert "delta=2 degeneracy=2 hindex=2 closure=3 vc=2" in capsys.readouterr().out


def test_params_missing_file(capsys):
    assert main(["params", "/nonexistent/file.el"]) == EXIT_USAGE


def test_params_parse_error_has_line_number(tmp_path, capsys):
    p = tmp_path / "bad.el"
    p.write_text("2 1\n0 0\n")
    assert main(["params", str(p)]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_solve_yes_no_exit_codes(graph_file, capsys):
    base = ["solve", graph_file, "--alpha", "1/2", "--k", "2", "--variant", "max"]
    assert main(base + ["--t", "5/2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decision=YES" in out and "value=5/2" in out
    assert main(base + ["--t", "3"]) == EXIT_NO
    assert "decision=NO" in capsys.readouterr().out


def test_solve_rejects_decimal_alpha(graph_file, capsys):
    code = main(["solve", graph_file, "--alpha", "0.5", "--k", "2", "--t", "1", "--variant", "max"])
    assert code == EXIT_USAGE


def test_solve_exact_fraction_output_only(graph_file, capsys):
    main(["solve", graph_file, "--alpha", "1/3", "--k", "2", "--t", "1", "--variant", "max", "--solver", "third"])
    out = capsys.readouterr().out
    assert "." not in out.split("witness")[0]  # no decimal point in numbers


def test_solve_guard_exit(graph_file):
    code = main(["solve", graph_file, "--alpha", "1/4", "--k", "2", "--t", "1", "--variant", "max", "--solver", "branch"])
    assert code == EXIT_GUARD


def test_solve_budget_exit(tmp_path):
    from fcgp.harness import gen_gnp

    g = gen_gnp(26, 1, 2, 3)
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    p = tmp_path / "big.el"
    p.write_text("\n".join(lines) + "\n")
    code = main(["solve", str(p), "--alpha", "5/12", "--k", "13", "--t", "40", "--variant", "max", "--budget", "400"])
    assert code == EXIT_BUDGET


def test_solve_branch_obeys_budget(tmp_path, capsys):
    path = tmp_path / "c6.el"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    argv = ["solve", str(path), "--alpha", "1/2", "--k", "3", "--t", "2", "--variant", "max", "--budget", "1"]
    assert main(argv + ["--solver", "auto"]) == EXIT_BUDGET
    assert main(argv + ["--solver", "branch"]) == EXIT_BUDGET
    capsys.readouterr()


@pytest.mark.parametrize("solver,budget,code,shown", [
    # the walk visits 1,438,799 nodes, within the default budget
    ("brute", [], EXIT_OK, "brute"),
    # the branch walk spends its 2,000 nodes; auto then falls back to brute
    # force, whose walk runs out of them too
    ("auto", ["--budget", "2000"], EXIT_BUDGET, None),
    ("branch", ["--budget", "2000"], EXIT_BUDGET, None),
], ids=["brute", "auto", "branch"])
def test_solve_deeper_than_the_recursion_limit(tmp_path, capsys, solver, budget, code, shown):
    path = tmp_path / "d1200.el"
    path.write_text(_graph_text(gen_degenerate(1200, 2, seed=1)))
    k = 1199
    assert k > sys.getrecursionlimit()
    argv = ["solve", str(path), "--alpha", "1/2", "--k", str(k), "--t", "0", "--variant", "max", "--solver", solver]
    assert main(argv + budget) == code
    printed = capsys.readouterr().out
    if shown is None:
        assert printed == ""
    else:
        assert printed.startswith("decision=YES value=623 ") and f" solver={shown} " in printed


def test_kernelize_writes_kernel_and_trace(graph_file, tmp_path, capsys):
    kern = tmp_path / "k.txt"
    trace = tmp_path / "t.txt"
    code = main([
        "kernelize", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--out", str(kern), "--trace", str(trace),
    ])
    assert code == EXIT_OK
    body = kern.read_text()
    assert body.startswith("fcgp max alpha=1/2 k=2 t=")
    plain = parse_kernel_file(body)
    assert plain.variant == "max" and plain.k == 2
    assert "# fcgp rule trace" in trace.read_text()


def test_kernelize_decided_yes(graph_file, capsys):
    code = main(["kernelize", graph_file, "--alpha", "1/2", "--k", "2", "--t", "1", "--variant", "max", "--pipeline", "delta"])
    assert code == EXIT_OK
    assert "decided: YES" in capsys.readouterr().out


def test_kernelize_guard_error_message(graph_file, capsys):
    code = main(["kernelize", graph_file, "--alpha", "1/4", "--k", "2", "--t", "1", "--variant", "max", "--pipeline", "delta"])
    assert code == EXIT_GUARD
    assert "alpha>1/3, got 1/4" in capsys.readouterr().err


def test_kernelize_min_trivial_decides_yes(tmp_path, capsys):
    from fcgp.harness import gen_degenerate
    from fcgp.graph import compute_profile

    g = gen_degenerate(9, 2, 4)
    d = compute_profile(g).degeneracy
    p = tmp_path / "d.el"
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
    p.write_text("\n".join(lines) + "\n")
    code = main(["kernelize", str(p), "--alpha", "1/4", "--k", "3", "--t", str(d * 3), "--variant", "min", "--pipeline", "degeneracy"])
    assert code == EXIT_OK
    assert "decided: YES" in capsys.readouterr().out


def test_verify_round_trip(graph_file, tmp_path, capsys):
    kern = tmp_path / "k.txt"
    trace = tmp_path / "t.txt"
    main([
        "kernelize", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--out", str(kern), "--trace", str(trace),
    ])
    code = main([
        "verify", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--kernel", str(kern), "--trace", str(trace), "--oracle",
    ])
    assert code == EXIT_OK
    assert "verified:" in capsys.readouterr().out


def test_verify_oracle_on_a_kernel_past_the_subset_budget(tmp_path, capsys):
    # the 87-vertex kernel has C(87,4) > 2 000 000 subsets, but the oracle's
    # walk visits 29 nodes on it and 31 on the input
    path = tmp_path / "d24.el"
    path.write_text(_graph_text(gen_degenerate(24, 3, seed=1005)))
    argv = ["verify", str(path), "--alpha", "1/2", "--k", "4", "--t", "13", "--variant", "max", "--oracle"]
    for budget in ([], ["--budget", "31"]):
        assert main(argv + budget) == EXIT_OK
        assert capsys.readouterr().out == "verified: decision=YES witness=0,1,7,13\n"
    for budget in ("30", "28", "1"):
        assert main(argv + ["--budget", budget]) == EXIT_BUDGET
        assert capsys.readouterr() == ("", "budget exceeded: the exact search passed its node budget\n")


def test_solve_brute_decides_past_the_subset_count(tmp_path, capsys):
    # C(60,6) = 50,063,860 subsets, but the bounded walk visits 2,303 nodes
    path = tmp_path / "gnp60.el"
    path.write_text(_graph_text(gen_gnp(60, 1, 8, seed=3)))
    argv = ["solve", str(path), "--solver", "brute", "--alpha", "1/2", "--k", "6", "--t", "0", "--variant", "max"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "decision=YES value=71/2 witness=1,3,4,11,16,54 solver=brute nodes=2303\n"
    for budget in ("2302", "1"):
        assert main(argv + ["--budget", budget]) == EXIT_BUDGET
        assert capsys.readouterr() == ("", "budget exceeded: the exact search passed its node budget\n")


def test_verify_decides_a_303_vertex_degeneracy_kernel(tmp_path, capsys):
    # the twin oracle's walk visits 199 nodes on the kernel, which has
    # 7,796,978 twin-class count vectors
    path = tmp_path / "deg3200.el"
    path.write_text(_graph_text(gen_degenerate(3200, 3, seed=7)))
    argv = ["verify", str(path), "--pipeline", "degeneracy", "--alpha", "1/2", "--k", "6", "--t", "42", "--variant", "max"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "verified: decision=YES witness=0,3,4,14,22,103\n"
    for budget in ("198", "1"):
        assert main(argv + ["--budget", budget]) == EXIT_BUDGET
        assert capsys.readouterr() == ("", "budget exceeded: the exact search passed its node budget\n")


def test_solve_auto_falls_back_to_brute_force_when_the_branch_walk_runs_out(tmp_path, capsys):
    # Min, alpha 1/4: the branch walk needs 6,003 nodes, brute force 35
    path = tmp_path / "d12.el"
    path.write_text(_graph_text(gen_degenerate(12, 2, seed=1)))
    argv = ["solve", str(path), "--alpha", "1/4", "--k", "5", "--t", "5/4", "--variant", "min", "--budget", "100"]
    assert main(argv + ["--solver", "branch"]) == EXIT_BUDGET
    assert main(argv + ["--solver", "auto"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "decision=YES value=5/4 witness=1,4,5,6,7 solver=auto:brute nodes=35\n"


def test_verify_detects_tampered_kernel(graph_file, tmp_path, capsys):
    kern = tmp_path / "k.txt"
    main([
        "kernelize", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--out", str(kern),
    ])
    # raise the kernel threshold so its decision flips
    lines = kern.read_text().splitlines()
    head = " ".join("t=1000" if tok.startswith("t=") else tok for tok in lines[0].split())
    kern.write_text("\n".join([head] + lines[1:]) + "\n")
    code = main([
        "verify", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--kernel", str(kern),
    ])
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_decided_instance_checks_witness(graph_file, capsys):
    code = main([
        "verify", graph_file, "--alpha", "1/2", "--k", "2", "--t", "1", "--variant", "max",
        "--pipeline", "delta", "--oracle",
    ])
    assert code == EXIT_OK


def test_verify_decided_outcome_checks_the_trace(tmp_path, capsys):
    # k = 4 on a path of four vertices is decided by cardinality; a given
    # trace must still match the regenerated one
    graph, garbage, trace = tmp_path / "p4.txt", tmp_path / "garbage.txt", tmp_path / "trace.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    garbage.write_text("garbage\n")
    argv = ["verify", str(graph), "--alpha", "1/2", "--k", "4", "--t", "0", "--variant", "max"]
    assert main(["kernelize", *argv[1:], "--trace", str(trace)]) == EXIT_OK
    assert "decided: YES" in capsys.readouterr().out
    assert main(argv + ["--trace", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("verified: decision=YES")
    assert main(argv + ["--trace", str(garbage)]) == EXIT_MISMATCH
    assert capsys.readouterr().out == "MISMATCH: trace file does not match the regenerated trace\n"


def test_verify_kernelized_outcome_rejects_a_foreign_trace(graph_file, tmp_path, capsys):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("garbage\n")
    assert main(["verify", graph_file, *VERIFY_DELTA, "--trace", str(garbage)]) == EXIT_MISMATCH
    assert "trace file does not match" in capsys.readouterr().out


def test_verify_lifts_against_the_final_instance_without_moves(tmp_path, monkeypatch, capsys):
    # a kernelized YES whose run makes 17 moves: verify lifts the kernel's
    # witness against the run's final instance and re-applies none of them
    graph, trace = tmp_path / "d30.el", tmp_path / "t.txt"
    graph.write_text(_graph_text(gen_degenerate(30, 3, seed=7)))
    argv = ["verify", str(graph), "--alpha", "1/2", "--k", "3", "--t", "7", "--variant", "max"]
    assert main(["kernelize", *argv[1:], "--trace", str(trace), "--out", str(tmp_path / "k.txt")]) == EXIT_OK
    assert sum(trace.read_text().count(f" op={op} ") for op in ("include", "exclude", "shift")) == 17
    calls = []

    def counting(name):
        move = getattr(AnnotatedInstance, name)

        def counted(self, *args):
            calls.append(name)
            return move(self, *args)

        return counted

    for name in ("include", "exclude", "shift_bonus"):
        monkeypatch.setattr(AnnotatedInstance, name, counting(name))
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "verified: decision=YES witness=0,14,15\n"
    assert calls == []


def test_verify_parses_no_kernel_it_regenerated(tmp_path, monkeypatch, capsys):
    # a --kernel file equal to the regenerated kernel text is not parsed
    # again, and neither is the regenerated kernel itself
    graph, kern = tmp_path / "d30.el", tmp_path / "k.txt"
    graph.write_text(_graph_text(gen_degenerate(30, 3, seed=7)))
    argv = ["verify", str(graph), "--alpha", "1/2", "--k", "3", "--t", "7", "--variant", "max"]
    assert main(["kernelize", *argv[1:], "--out", str(kern)]) == EXIT_OK
    capsys.readouterr()

    def unparsed(text):
        raise AssertionError("verify parsed a kernel file")

    monkeypatch.setattr(cli_mod, "parse_kernel_file", unparsed)
    assert main(argv) == EXIT_OK
    assert main(argv + ["--kernel", str(kern)]) == EXIT_OK
    assert capsys.readouterr().out == "verified: decision=YES witness=0,14,15\n" * 2


def test_kernel_files_read_back_as_the_kernels_they_were_written_from():
    kernels = [out.plain for _, _, _, out in _pipeline_runs(12, 12_000) if getattr(out, "status", None) == KERNELIZED]
    assert len(kernels) > 100
    for plain in kernels:
        back = parse_kernel_file(kernel_file_text(plain))
        assert back == plain and back.graph.masks == plain.graph.masks


def test_solve_accepts_kernel_files(graph_file, tmp_path, capsys):
    kern = tmp_path / "k.txt"
    main([
        "kernelize", graph_file, "--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max",
        "--pipeline", "delta", "--out", str(kern),
    ])
    header = kern.read_text().splitlines()[0]
    fields = dict(tok.split("=", 1) for tok in header.split()[2:])
    code = main([
        "solve", str(kern), "--alpha", fields["alpha"], "--k", fields["k"],
        "--t", fields["t"], "--variant", "max", "--solver", "brute",
    ])
    assert code in (EXIT_OK, EXIT_NO)
    assert "decision=" in capsys.readouterr().out


def test_battery_failure_dump(tmp_path, capsys, monkeypatch):
    # force a wrong outcome to exercise the failure-file path
    import fcgp.harness as harness_mod
    from fcgp.rules import DECIDED_NO, KernelOutcome, RuleTrace

    def broken(inst, name, profile=None, param_override=None):
        return KernelOutcome(DECIDED_NO, None, None, RuleTrace(pipeline="broken"), inst)

    monkeypatch.setattr(harness_mod, "run_pipeline", broken)
    man = tmp_path / "man.txt"
    man.write_text("gnp n=6 p=1 seed=1 count=2 alpha=1/2 variant=max pipeline=delta k=2\n")
    code = main(["battery", str(man), "--fail-dir", str(tmp_path / "fails")])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    assert "fail=2" in out
    dumps = sorted((tmp_path / "fails").glob("failure-*.txt"))
    assert len(dumps) == 2 and "variant=max" in dumps[0].read_text()


def test_battery_command(tmp_path, capsys):
    man = tmp_path / "man.txt"
    man.write_text(
        "gnp n=7 p=1/2 seed=2 count=5 alpha=1/2 variant=max pipeline=delta k=1:2 counter=0:1\n"
    )
    code = main(["battery", str(man), "--fail-dir", str(tmp_path / "fails")])
    assert code == EXIT_OK
    assert "pass=5 fail=0 skip=0" in capsys.readouterr().out


def test_battery_empty_manifest(tmp_path, capsys):
    man = tmp_path / "man.txt"
    man.write_text("# nothing\n")
    assert main(["battery", str(man)]) == EXIT_OK
    assert "pass=0 fail=0 skip=0" in capsys.readouterr().out


def test_battery_guard_rows_skip(tmp_path, capsys):
    man = tmp_path / "man.txt"
    man.write_text("gnp n=6 p=1/2 seed=1 count=4 alpha=0 variant=max pipeline=delta k=1:2\n")
    assert main(["battery", str(man)]) == EXIT_OK
    assert "pass=0 fail=0 skip=4" in capsys.readouterr().out


@pytest.mark.parametrize("row, refusal", [
    ("alpha=1/2 variant=max pipeline=dleta", "unknown pipeline 'dleta'"),
    ("alpha=1/2 variant=mx pipeline=delta", "variant must be 'max' or 'min', got 'mx'"),
    ("alpha=3/2 variant=max pipeline=delta", "alpha must lie in [0,1], got 3/2"),
])
def test_battery_refuses_rows_that_run_no_check(tmp_path, capsys, row, refusal):
    # such a row once gave pass=0 fail=0 and exit 0: each instance skipped, or none built
    man = tmp_path / "man.txt"
    man.write_text(f"# one row\ngnp n=6 p=1/2 seed=1 count=5 k=2 {row}\n")
    assert main(["battery", str(man)]) == EXIT_USAGE
    assert f"manifest line 2: {refusal}" in capsys.readouterr().err


def test_json_report_shape(graph_file, capsys):
    main(["params", graph_file, "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["command"] == "params"
    assert "timings" not in payload  # determinism: timings only on request


def test_json_report_with_timings(graph_file, capsys):
    main(["params", graph_file, "--json", "--timings"])
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert "timings" in payload


def test_byte_identical_outputs(graph_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        kern = tmp_path / f"k{tag}.txt"
        trace = tmp_path / f"t{tag}.txt"
        main([
            "kernelize", graph_file, "--alpha", "2/3", "--k", "2", "--t", "3", "--variant", "max",
            "--pipeline", "closure", "--out", str(kern), "--trace", str(trace),
        ])
        outs.append((kern.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def test_parser_built_once_keeps_outputs(graph_file, capsys):
    solve = ["solve", graph_file, "--alpha", "1/2", "--k", "3", "--t", "4", "--variant", "max", "--json"]
    outs = []
    for argv in (solve, ["params", graph_file], solve):
        main(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2] and '"command": "solve"' in outs[0]
    assert cli_mod.build_parser() is cli_mod.build_parser()


# -- exit-code contract ---------------------------------------------------------------------

VERIFY_DELTA = ["--alpha", "1/2", "--k", "2", "--t", "5/2", "--variant", "max", "--pipeline", "delta"]


class _HiddenSearch(Exception):
    pass


def _search_forbidden(g, budget=25):
    raise _HiddenSearch("exact vertex cover searched")


def _graph_text(g) -> str:
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


@pytest.fixture
def sparse_file(tmp_path):
    path = tmp_path / "d14.el"
    path.write_text(_graph_text(gen_degenerate(14, 2, 3)))
    return str(path)


def _value(alpha, variant):
    return ["--alpha", alpha, "--k", "3", "--t", "4", "--variant", variant]


# routes that read no vertex cover, and their exit codes
NO_COVER_RUNS = [
    *[[cmd, *_value("1/2", "max"), "--pipeline", pipe]
      for cmd in ("kernelize", "verify") for pipe in ("delta", "degeneracy", "closure", "auto")],
    *[[cmd, *_value("1/4", "min"), "--pipeline", "auto"] for cmd in ("kernelize", "verify")],
    ["solve", *_value("1/2", "max"), "--solver", "auto"],
    ["solve", *_value("1/4", "min"), "--solver", "auto"],
    ["solve", *_value("1/2", "max"), "--solver", "branch"],
    ["solve", *_value("1/3", "min"), "--solver", "third"],
    ["params", "--no-vc"],
]


@pytest.mark.parametrize("argv", NO_COVER_RUNS, ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
def test_no_hidden_cover_search(sparse_file, monkeypatch, capsys, argv):
    monkeypatch.setattr(graph_mod, "minimum_vertex_cover", _search_forbidden)
    assert main([argv[0], sparse_file, *argv[1:]]) == EXIT_OK
    capsys.readouterr()


def test_delta_kernel_of_a_large_cover_graph_runs_no_search(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d60.el"
    path.write_text(_graph_text(gen_degenerate(60, 2, seed=60)))
    monkeypatch.setattr(graph_mod, "minimum_vertex_cover", _search_forbidden)
    argv = ["kernelize", str(path), "--pipeline", "delta", "--alpha", "1/2", "--k", "5", "--t", "10", "--variant", "max"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("fcgp max alpha=1/2 k=5 t=15\n")


@pytest.mark.parametrize("pipeline", ["closure", "degeneracy"])
def test_huge_param_ends_fast_with_the_same_kernel(tmp_path, capsys, pipeline):
    # both X/I degree bounds are at least 2^param: past the graph size they are never built
    path = tmp_path / "d30.el"
    path.write_text(_graph_text(gen_degenerate(30, 2, seed=1)))
    outs = []
    for param in ("1000", "1000000000"):
        kern, trace = tmp_path / f"k{param}.txt", tmp_path / f"t{param}.txt"
        started = time.monotonic()
        code = main([
            "kernelize", str(path), "--pipeline", pipeline, "--param", param, "--alpha", "1/2",
            "--k", "3", "--t", "7", "--variant", "max", "--out", str(kern), "--trace", str(trace),
        ])
        assert code == EXIT_OK and time.monotonic() - started < 2
        outs.append((kern.read_text(), trace.read_text().replace(f"closure_c={param}\n", "closure_c=P\n")))
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_json_report_reads_the_cover_on_demand(sparse_file, monkeypatch, capsys):
    vc = len(minimum_vertex_cover(gen_degenerate(14, 2, 3)))
    searches = []
    search = graph_mod.minimum_vertex_cover

    def counting(g, budget=25):
        searches.append(budget)
        return search(g, budget=budget)

    monkeypatch.setattr(graph_mod, "minimum_vertex_cover", counting)
    for argv in (
        ["kernelize", sparse_file, *_value("1/2", "max"), "--pipeline", "delta"],
        ["solve", sparse_file, *_value("1/2", "max"), "--solver", "branch"],
        ["verify", sparse_file, *_value("1/4", "min"), "--pipeline", "auto"],
    ):
        assert main(argv) == EXIT_OK
        assert searches == []
        assert main([*argv, "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["profile"]["vc"] == vc
        assert searches == [25]
        searches.clear()


def test_json_writes_null_when_no_cover_is_in_budget(tmp_path, capsys):
    path = tmp_path / "k8.el"
    path.write_text(_graph_text(complete_graph(8)))
    assert main(["params", str(path), "--vc-budget", "3", "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("delta=7 degeneracy=7 hindex=7 closure=1 vc=-\n")
    report = json.loads(out[out.index("{"):])
    assert report["profile"]["vc"] is None and report["result"]["vc"] is None
    argv = ["kernelize", str(path), *_value("1/2", "max"), "--pipeline", "delta", "--vc-budget", "3", "--json"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["profile"]["vc"] is None


def test_json_cover_of_a_large_sparse_graph_ends_fast(tmp_path, capsys):
    # the unbounded search ran past 20 s for this report
    path = tmp_path / "d60.el"
    path.write_text(_graph_text(gen_degenerate(60, 2, seed=60)))
    argv = ["kernelize", str(path), "--pipeline", "delta", "--alpha", "1/2", "--k", "5", "--t", "10", "--variant", "max"]
    started = time.monotonic()
    assert main([*argv, "--json"]) == EXIT_OK
    assert time.monotonic() - started < 2
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["profile"]["vc"] == 25


def test_cover_past_the_node_budget_is_no_cover(tmp_path, capsys):
    path = tmp_path / "triangles.el"
    path.write_text(_graph_text(triangle_chain(12)))
    assert main(["params", str(path)]) == EXIT_OK
    assert " vc=-\n" in capsys.readouterr().out
    assert main(["kernelize", str(path), *_value("1/2", "min"), "--pipeline", "vc"]) == EXIT_GUARD
    assert "exact vertex cover" in capsys.readouterr().err


def test_verify_missing_kernel_file_is_usage_error(graph_file, tmp_path, capsys):
    code = main(["verify", graph_file, *VERIFY_DELTA, "--kernel", str(tmp_path / "absent.txt")])
    assert code == EXIT_USAGE
    assert "cannot read kernel file" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["k", "t", "alpha"])
def test_verify_kernel_header_without_field_is_usage_error(graph_file, tmp_path, capsys, field):
    kern = tmp_path / "k.txt"
    main(["kernelize", graph_file, *VERIFY_DELTA, "--out", str(kern)])
    lines = kern.read_text().splitlines()
    head = " ".join("x=0" if tok.startswith(f"{field}=") else tok for tok in lines[0].split())
    kern.write_text("\n".join([head] + lines[1:]) + "\n")
    code = main(["verify", graph_file, *VERIFY_DELTA, "--kernel", str(kern)])
    assert code == EXIT_USAGE
    assert f"lacks {field}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--t", "1/0"), ("--alpha", "0/0"), ("--alpha", "1/0")])
def test_zero_denominator_is_usage_error(graph_file, capsys, flag, value):
    argv = ["solve", graph_file, "--alpha", "1/2", "--k", "1", "--t", "1", "--variant", "max"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "zero denominator" in err and "Traceback" not in err


def test_kernel_header_zero_denominator_is_usage_error(graph_file, tmp_path, capsys):
    kern = tmp_path / "k.txt"
    main(["kernelize", graph_file, *VERIFY_DELTA, "--out", str(kern)])
    lines = kern.read_text().splitlines()
    head = " ".join("t=1/0" if tok.startswith("t=") else tok for tok in lines[0].split())
    kern.write_text("\n".join([head] + lines[1:]) + "\n")
    assert main(["verify", graph_file, *VERIFY_DELTA, "--kernel", str(kern)]) == EXIT_USAGE
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "kernelize", "verify"])
def test_negative_k_is_usage_error(tmp_path, capsys, command):
    # the branching solver used to spend its whole node budget on k = -1
    from fcgp.harness import gen_degenerate

    g = gen_degenerate(12, 2, 1)
    p = tmp_path / "d.el"
    p.write_text("\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]) + "\n")
    code = main([command, str(p), "--k", "-1", "--alpha", "1/2", "--t", "4", "--variant", "max"])
    assert code == EXIT_USAGE
    assert "k must be >= 0" in capsys.readouterr().err


def test_verify_empty_witness(graph_file, capsys):
    # k = 0 is decided YES by the empty set, which verify must evaluate
    code = main(["verify", graph_file, "--alpha", "1/2", "--k", "0", "--t", "-1", "--variant", "max"])
    assert code == EXIT_OK
    assert "verified: decision=YES witness=" in capsys.readouterr().out


def test_disproved_extraction_precondition_is_guard_exit(tmp_path, capsys):
    p = tmp_path / "k12.el"
    p.write_text("12 66\n" + "".join(f"{u} {v}\n" for u in range(12) for v in range(u + 1, 12)))
    code = main([
        "kernelize", str(p), "--pipeline", "degeneracy", "--param", "1",
        "--alpha", "1/2", "--k", "2", "--t", "10", "--variant", "max",
    ])
    assert code == EXIT_GUARD
    assert "not 1-degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("exc,code", [
    (ExtractionPreconditionError("precondition disproved"), EXIT_GUARD),
    (RuleInternalError("invariant failed"), EXIT_INTERNAL),
    (WitnessVerificationError("bad witness"), EXIT_INTERNAL),
])
def test_exception_exit_codes(graph_file, monkeypatch, capsys, exc, code):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, "run_pipeline", failing)
    assert main(["kernelize", graph_file, *VERIFY_DELTA]) == code
    assert str(exc) in capsys.readouterr().err


def test_verify_reports_a_failed_lift_as_mismatch(tmp_path, monkeypatch, capsys):
    # the one lift sits in harness.outcome_answer, which turns LiftError into a mismatch
    graph = tmp_path / "d30.el"
    graph.write_text(_graph_text(gen_degenerate(30, 3, seed=7)))
    lifts = []

    def failing(*args):
        lifts.append(args)
        raise LiftError("cannot lift")

    monkeypatch.setattr(harness_mod, "lift_witness", failing)
    assert main(["verify", str(graph), "--alpha", "1/2", "--k", "3", "--t", "7", "--variant", "max"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == "MISMATCH: witness lifting failed: cannot lift\n"
    assert len(lifts) == 1


FUZZ_GRAPHS = {
    "tri.el": "6 7\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n",
    "star.el": "7 6\n" + "".join(f"0 {i}\n" for i in range(1, 7)),
    "k4.el": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "empty.el": "3 0\n",
    "c4.col": "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n",
}

_header = st.builds(
    lambda variant, toks: " ".join(["fcgp", variant, *toks]),
    st.sampled_from(["max", "min", "mid"]),
    st.lists(st.sampled_from(["alpha=1/2", "alpha=2/3", "k=2", "k=-1", "k=x", "t=3", "t=1.5", "t=1/0", "q=1", "junk"]),
             max_size=4),
)
_kernel_text = st.one_of(
    st.text(max_size=40),
    st.builds(lambda head, body: head + "\n" + body, _header,
              st.sampled_from(["", "2 1\n0 1\n", "3 0\n", "2 1\n0 0\n", "1 1\n0 5\n", "x y\n"])),
)


@st.composite
def _argv(draw, files: Path):
    command = draw(st.sampled_from(["params", "kernelize", "solve", "verify"]))
    graph = draw(st.sampled_from([*FUZZ_GRAPHS, "absent.el"]))
    argv = [command, str(files / graph), "--vc-budget", draw(st.sampled_from(["0", "2", "25"]))]
    if command == "params":
        return argv + draw(st.sampled_from([[], ["--no-vc"], ["--json"]]))
    argv += [
        "--alpha", draw(st.sampled_from(["0", "1/4", "1/3", "1/2", "2/3", "1", "3/2", "-1/2", "0.5", "1/0", "0/0"])),
        "--k", str(draw(st.integers(-1, 4))),
        "--t", draw(st.sampled_from(["-1", "0", "1", "5/2", "4", "9", "x", "1/0", "0/0"])),
        "--variant", draw(st.sampled_from(["max", "min"])),
    ]
    if command == "solve":
        argv += ["--solver", draw(st.sampled_from(["auto", *SOLVERS]))]
    else:
        argv += ["--pipeline", draw(st.sampled_from(PIPELINES))]
        param = draw(st.none() | st.integers(0, 3))
        if param is not None:
            argv += ["--param", str(param)]
    if command != "kernelize":
        argv += ["--budget", draw(st.sampled_from(["50", "3000", "30000"]))]
    if command == "verify":
        for flag, name in (("--kernel", "kernel.txt"), ("--trace", "trace.txt")):
            text = draw(st.none() | _kernel_text)
            if text is not None:
                (files / name).write_text(text)
                argv += [flag, str(files / name)]
        if draw(st.booleans()):
            argv.append("--oracle")
    elif command == "kernelize" and draw(st.booleans()):
        argv += ["--out", str(files / "out.txt"), "--trace", str(files / "trace-out.txt")]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_GRAPHS.items():
        (files / name).write_text(text)
    return files


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exit_code_contract(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(7)
    assert code != EXIT_NO or argv[0] == "solve"
