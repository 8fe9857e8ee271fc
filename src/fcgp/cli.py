"""Command-line front end: params, kernelize, solve, verify, battery.

Every numeric value printed is an exact integer or fraction ``p/q``; alpha
and t are accepted only in that form.  Exit codes are a stable contract:

    0  decided and consistent          3  guard or extraction precondition violated
    1  decided no (solve mode)         4  budget exceeded
    2  usage, parse or file error      5  verification mismatch
                                       6  internal error (an invariant failed)
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .graph import GraphFormatError, ParameterProfile, RuleInternalError, compute_profile, parse_graph, sniff_format
from .harness import AnswerMismatch, outcome_answer, parse_manifest, run_battery
from .instance import MAX, MIN, AnnotatedInstance, GuardViolation
from .ramsey import ExtractionPreconditionError, WitnessVerificationError
from .rules import DECIDED_NO, DECIDED_YES, PIPELINES, run_pipeline
from .solve import DEFAULT_BUDGET, SOLVERS, BudgetExceeded, UndecidedWithinBudget, solve_auto, twin_oracle

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_INTERNAL = 6

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class UsageError(ValueError):
    pass


def parse_fraction(text: str) -> Fraction:
    """Fractions 'p/q' or integers only; decimals are rejected outright."""
    if not _FRACTION_RE.match(text.strip()):
        raise UsageError(f"expected an integer or fraction 'P/Q', got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text!r}") from None


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from None


def _read_graph(path: str, fmt: str):
    text = _read_text(path, "graph file")
    if text.startswith("fcgp "):
        # kernel files are self-describing: drop the header, keep the edge list
        text = text.split("\n", 1)[1] if "\n" in text else ""
    if fmt == "auto":
        fmt = sniff_format(text)
    return parse_graph(text, fmt)


def _value_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", required=True, help="alpha as P/Q or integer")
    sub.add_argument("--k", required=True, type=int)
    sub.add_argument("--t", required=True, help="threshold as P/Q or integer")
    sub.add_argument("--variant", required=True, choices=(MAX, MIN))
    sub.add_argument("--format", default="auto", choices=("auto", "edgelist", "dimacs"))


def _budget_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="nodes the exact search may visit; densest-vc: cover subsets")


def _report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--timings", action="store_true")


def _instance_from_args(args):
    """The plain instance the flags describe (T empty, zero bonuses) and the
    structural profile of its graph (each parameter computed on read)."""
    g = _read_graph(args.graph, args.format)
    inst = AnnotatedInstance.plain(g, args.k, parse_fraction(args.t), parse_fraction(args.alpha), args.variant)
    return inst, compute_profile(g, vc_budget=args.vc_budget)


def _profile_dict(profile) -> dict:
    return {
        "delta": profile.max_degree,
        "degeneracy": profile.degeneracy,
        "hindex": profile.h_index,
        "closure": profile.c_closure,
        "vc": profile.vc,
    }


def _json_value(obj):
    # profiles take their report form here only: a run without --json computes what it reads
    return _profile_dict(obj) if isinstance(obj, ParameterProfile) else str(obj)


def _emit_report(args, report: dict, started: float) -> None:
    if args.timings:
        report["timings"] = {"total_ms": int((time.monotonic() - started) * 1000)}
    if args.json:
        print(json.dumps(report, indent=2, default=_json_value))


def kernel_file_text(plain: AnnotatedInstance) -> str:
    """A plain instance (every vertex alive, T empty, zero bonuses) as a
    header line and its edge list."""
    g = plain.graph
    lines = [f"fcgp {plain.variant} alpha={plain.alpha} k={plain.k} t={plain.t}", f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_kernel_file(text: str) -> AnnotatedInstance:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("fcgp "):
        raise UsageError("kernel file must start with an 'fcgp ...' header line")
    toks = lines[0].split()
    if len(toks) != 5 or toks[1] not in (MAX, MIN) or not all("=" in tok for tok in toks[2:]):
        raise UsageError(f"malformed kernel header {lines[0]!r}")
    fields = dict(tok.split("=", 1) for tok in toks[2:])
    missing = [key for key in ("k", "t", "alpha") if key not in fields]
    if missing:
        raise UsageError(f"kernel header {lines[0]!r} lacks {', '.join(missing)}")
    g = parse_graph("\n".join(lines[1:]), "edgelist")
    return AnnotatedInstance.plain(g, int(fields["k"]), parse_fraction(fields["t"]), parse_fraction(fields["alpha"]),
                                   toks[1])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    started = time.monotonic()
    g = _read_graph(args.graph, args.format)
    profile = compute_profile(g, vc_budget=-1 if args.no_vc else args.vc_budget)
    d = _profile_dict(profile)
    print(" ".join(f"{key}={'-' if val is None else val}" for key, val in d.items()))
    if profile.vertex_cover is not None:
        print("vertex_cover=" + ",".join(map(str, profile.vertex_cover)))
    print("degeneracy_ordering=" + ",".join(map(str, profile.degeneracy_ordering)))
    _emit_report(args, {"command": "params", "inputs": {"graph": args.graph}, "profile": d, "result": d}, started)
    return EXIT_OK


def cmd_kernelize(args) -> int:
    started = time.monotonic()
    inst, profile = _instance_from_args(args)
    outcome = run_pipeline(inst, args.pipeline, profile=profile, param_override=args.param)
    if args.trace:
        Path(args.trace).write_text(outcome.trace.to_text())
    report = {
        "command": "kernelize",
        "inputs": {
            "graph": args.graph,
            "alpha": str(inst.alpha),
            "k": inst.k,
            "t": str(inst.t),
            "variant": inst.variant,
            "pipeline": args.pipeline,
        },
        "profile": profile,
        "trace_summary": {
            "pipeline": outcome.trace.pipeline,
            "entries": len(outcome.trace.entries),
            "audits": outcome.trace.audits,
        },
    }
    if outcome.status == DECIDED_YES:
        witness = ",".join(map(str, outcome.witness)) if outcome.witness else ""
        print(f"decided: YES witness={witness}")
        report["result"] = {"status": "decided_yes", "witness": witness}
        _emit_report(args, report, started)
        return EXIT_OK
    if outcome.status == DECIDED_NO:
        print("decided: NO")
        report["result"] = {"status": "decided_no"}
        _emit_report(args, report, started)
        return EXIT_OK
    text = kernel_file_text(outcome.plain)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    kp = outcome.plain
    print(f"kernelized: n={kp.graph.n} m={kp.graph.m} k={kp.k} t={kp.t}", file=sys.stderr)
    report["result"] = {
        "status": "kernelized",
        "n": kp.graph.n,
        "m": kp.graph.m,
        "k": kp.k,
        "t": str(kp.t),
    }
    _emit_report(args, report, started)
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.monotonic()
    inst, profile = _instance_from_args(args)
    res = (solve_auto if args.solver == "auto" else SOLVERS[args.solver])(inst, profile, args.budget)
    decision = "YES" if res.decision else "NO"
    value = "-" if res.best_value is None else str(res.best_value)
    witness = ",".join(map(str, res.witness)) if res.witness else ""
    print(f"decision={decision} value={value} witness={witness} solver={res.solver_id} nodes={res.nodes_explored}")
    _emit_report(
        args,
        {
            "command": "solve",
            "inputs": {
                "graph": args.graph,
                "alpha": str(inst.alpha),
                "k": inst.k,
                "t": str(inst.t),
                "variant": inst.variant,
                "solver": args.solver,
            },
            "profile": profile,
            "result": {
                "decision": decision,
                "value": value,
                "witness": witness,
                "solver": res.solver_id,
                "nodes": res.nodes_explored,
            },
        },
        started,
    )
    return EXIT_OK if res.decision else EXIT_NO


def cmd_verify(args) -> int:
    started = time.monotonic()
    inst, profile = _instance_from_args(args)
    outcome = run_pipeline(inst, args.pipeline, profile=profile, param_override=args.param)

    def fail(msg: str) -> int:
        print(f"MISMATCH: {msg}")
        return EXIT_MISMATCH

    if args.trace and _read_text(args.trace, "trace file") != outcome.trace.to_text():
        return fail("trace file does not match the regenerated trace")
    try:
        my_decision, lifted = outcome_answer(inst, outcome, args.budget)
    except AnswerMismatch as exc:
        return fail(str(exc))
    # a kernel file that differs from the regenerated kernel must decide alike
    if args.kernel and outcome.plain is not None:
        kernel_text = _read_text(args.kernel, "kernel file")
        if kernel_text != kernel_file_text(outcome.plain):
            res_file = twin_oracle(parse_kernel_file(kernel_text), budget=args.budget)
            if res_file.decision != my_decision:
                return fail(f"kernel file decision {res_file.decision} != regenerated kernel decision {my_decision}")

    if args.oracle:
        res = twin_oracle(inst, budget=args.budget)
        if res.decision != my_decision:
            return fail(f"oracle decision {res.decision} != pipeline decision {my_decision}")

    witness = ",".join(map(str, lifted)) if lifted else ""
    print(f"verified: decision={'YES' if my_decision else 'NO'} witness={witness}")
    _emit_report(
        args,
        {
            "command": "verify",
            "inputs": {"graph": args.graph, "pipeline": args.pipeline},
            "profile": profile,
            "trace_summary": {"entries": len(outcome.trace.entries), "audits": outcome.trace.audits},
            "result": {"decision": "YES" if my_decision else "NO", "witness": witness},
        },
        started,
    )
    return EXIT_OK


def cmd_battery(args) -> int:
    started = time.monotonic()
    rows = parse_manifest(_read_text(args.manifest, "manifest"))
    summary = run_battery(rows, budget=args.budget)
    print(f"pass={summary.passed} fail={summary.failed} skip={summary.skipped}")
    if summary.failures:
        outdir = Path(args.fail_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for idx, (row, seed, detail) in enumerate(summary.failures):
            path = outdir / f"failure-{idx:03d}.txt"
            body = f"# {row.generator} seed={seed} pipeline={row.pipeline} detail={detail}\n"
            for inst_seed, inst in row.instances():
                if inst_seed == seed:
                    body += inst.to_text()
                    break
            path.write_text(body)
        print(f"wrote {len(summary.failures)} failing instances to {outdir}")
    _emit_report(
        args,
        {
            "command": "battery",
            "inputs": {"manifest": args.manifest},
            "result": {"pass": summary.passed, "fail": summary.failed, "skip": summary.skipped},
        },
        started,
    )
    return EXIT_OK if summary.failed == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    :func:`main` finds the handler of each subcommand by its name."""
    parser = argparse.ArgumentParser(prog="fcgp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="compute structural parameters of a graph")
    p.add_argument("graph")
    p.add_argument("--format", default="auto", choices=("auto", "edgelist", "dimacs"))
    p.add_argument("--no-vc", action="store_true", help="skip the exact vertex cover search")
    p.add_argument("--vc-budget", type=int, default=25)
    _report_flags(p)

    p = sub.add_parser("kernelize", help="run a kernelization pipeline")
    p.add_argument("graph")
    _value_flags(p)
    p.add_argument("--pipeline", default="auto", choices=PIPELINES)
    p.add_argument("--param", type=int, default=None, help="override the structural parameter value")
    p.add_argument("--out", default=None, help="kernel output file (default: stdout)")
    p.add_argument("--trace", default=None, help="rule trace output file")
    p.add_argument("--vc-budget", type=int, default=25)
    _report_flags(p)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("graph")
    _value_flags(p)
    p.add_argument("--solver", default="auto", choices=("auto", *SOLVERS))
    _budget_flag(p)
    p.add_argument("--vc-budget", type=int, default=25)
    _report_flags(p)

    p = sub.add_parser("verify", help="round-trip kernelize/solve/lift and cross-check")
    p.add_argument("graph")
    _value_flags(p)
    p.add_argument("--pipeline", default="auto", choices=PIPELINES)
    p.add_argument("--param", type=int, default=None)
    p.add_argument("--kernel", default=None, help="kernel file to check (default: regenerate)")
    p.add_argument("--trace", default=None, help="trace file to check against the regenerated trace")
    p.add_argument("--oracle", action="store_true", help="also solve the original instance with the exact oracle")
    _budget_flag(p)
    p.add_argument("--vc-budget", type=int, default=25)
    _report_flags(p)

    p = sub.add_parser("battery", help="run a manifest of seeded equivalence checks")
    p.add_argument("manifest")
    _budget_flag(p)
    p.add_argument("--fail-dir", default="battery-failures")
    _report_flags(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # looked up per call, so the cached parser holds no handler
        return globals()[f"cmd_{args.command}"](args)
    except GuardViolation as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ExtractionPreconditionError as exc:
        print(f"extraction precondition failed: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except UndecidedWithinBudget as exc:
        print(f"undecided within budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuleInternalError, WitnessVerificationError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
