"""Benchmark for fcgp: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload kernel-scale --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root (the program is imported from ``src/``).  The
workload is built from ``--seed``, set up seven times (the median is
``setup_s``), then whole rounds of its operations run until the next round
would end past ``--seconds``.  Every output is checked against the reference
solver in ``reference.py``.  With ``--trace 1`` the public functions of the
program's modules are wrapped and per-layer figures are reported instead of
the end-to-end ones.  The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A copy of it, with the traced per-function table, is written to
``bench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

SETUP_REPEATS = 7
TAIL_MIN_OPS = 40  # a tail percentile needs at least 10 samples beyond it


def import_fcgp() -> SimpleNamespace:
    """Import the program afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "fcgp" or m.startswith("fcgp.")]:
        del sys.modules[name]
    package = importlib.import_module("fcgp")
    modules = {layer: importlib.import_module(f"fcgp.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


def tail(values: list[float]) -> float:
    """The highest value with at least 10 samples above it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


class Run:
    """The measured rounds of one workload run."""

    def __init__(self, ops):
        self.ops = ops
        self.op_wall = [[] for _ in ops]  # per operation, one sample per round
        self.cpu_s = 0.0
        self.rounds = 0
        self.attempted = 0
        self.errors: list[str] = []  # operations that raised: failed
        self.problems: list[str] = []  # outputs the checks refuted: not correct
        self.kernels: list[tuple[int, int]] = []
        self.file_bytes = 0

    @property
    def failed(self) -> int:
        return len(self.errors)

    def round(self) -> float:
        """Run every operation once and check its output; returns the timed wall time."""
        wall = 0.0
        for i, op in enumerate(self.ops):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                self.errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                dt = time.perf_counter() - t0
                self.cpu_s += time.process_time() - cpu0
                wall += dt
                self.attempted += 1
            self.op_wall[i].append(dt)
            try:
                verdict = op.verify(out)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                verdict = Verdict(f"output could not be read: {exc!r}")
            if verdict.problem:
                self.problems.append(f"{op.label}: {verdict.problem}")
            if self.rounds == 0:
                self.kernels += verdict.kernels
                self.file_bytes += verdict.file_bytes
        self.rounds += 1
        return wall

    def measure(self, seconds: float) -> float:
        """Whole rounds until the next one would end past the deadline; returns timed wall time."""
        start = time.perf_counter()
        timed = 0.0
        while True:
            r0 = time.perf_counter()
            timed += self.round()
            now = time.perf_counter()
            if (now - start) + (now - r0) > seconds:
                return timed

    def end_to_end(self, timed: float, setup: list[float]) -> dict:
        # one sample per distinct operation: its median over the rounds
        samples = [1000.0 * statistics.median(w) for w in self.op_wall if w]
        done = self.attempted - self.failed
        metrics = {
            "ops_per_s": (done / timed, "1/s"),
            "op_p50_ms": (statistics.median(samples), "ms"),
            "op_tail_ms": (tail(samples) if len(samples) >= TAIL_MIN_OPS else None, "ms"),
            "cpu_ms_per_op": (1000.0 * self.cpu_s / self.attempted, "ms"),
            "kernel_vertices": (sum(n for n, _ in self.kernels), "count"),
            "kernel_edges": (sum(m for _, m in self.kernels), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None}


def per_layer(tr: Tracer, rounds: int, gen_ms: float, file_bytes: int, overhead_ms: float) -> dict:
    """Per-layer figures per round of operations (set-up figures per set-up)."""
    named_rules = {
        "rules.rr_delta_better": "rules.delta_better_ms",
        "rules.rr_exclude_needless": "rules.exclude_needless_ms",
        "rules.rr_include_satisfactory": "rules.include_satisfactory_ms",
        "rules.rr_closure_better": "rules.closure_better_ms",
        "rules.rr_counter_shift": "rules.counter_shift_ms",
    }
    extraction = ("rules.find_closure_XI", "rules.find_bcfree_XI")
    deann = ("instance.deannotate_max", "instance.deannotate_min", "instance.deannotate_identity")
    per = 1.0 / rounds
    ms = {
        "graph.vc_ms": tr.ms("graph.minimum_vertex_cover"),
        "graph.parse_ms": tr.ms("graph.parse_graph", "graph.sniff_format"),
        "graph.degeneracy_ms": tr.ms("graph.degeneracy_ordering"),
        "graph.c_closure_ms": tr.ms("graph.c_closure"),
        "graph.h_index_ms": tr.ms("graph.h_index"),
        "rules.pipeline_ms": tr.ms(prefix="rules.", exclude=tuple(named_rules) + extraction),
        **{metric: tr.ms(fn) for fn, metric in named_rules.items()},
        "instance.deannotate_ms": tr.ms(*deann),
        "instance.lift_ms": tr.ms("instance.lift_witness"),
        "ramsey.extract_ms": tr.ms(*extraction, prefix="ramsey."),
        "solve.brute_ms": tr.ms("solve.brute_force"),
        "solve.auto_ms": tr.ms(prefix="solve.", exclude=("solve.brute_force",)),
        "harness.check_ms": tr.ms("harness.check_equivalence"),
        "cli.kernelize_ms": tr.ms("cli.cmd_kernelize"),
        "cli.solve_ms": tr.ms("cli.cmd_solve"),
        "cli.verify_ms": tr.ms("cli.cmd_verify"),
    }
    counts = {
        "graph.vc_calls": tr.n_calls("graph.minimum_vertex_cover"),
        "ramsey.extract_calls": tr.n_calls(*extraction),
        **{k: tr.counts.get(k, 0) for k in (
            "rules.trace_entries", "instance.better_cmp_calls", "instance.contribution_calls",
            "instance.deg_bonus_calls", "instance.val_calls", "instance.include_calls",
            "instance.exclude_calls", "solve.brute_subsets", "solve.auto_nodes",
        )},
    }
    out = {k: (v * per, "ms") for k, v in ms.items()}
    out.update({k: (v * per, "count") for k, v in counts.items()})
    entries = counts["rules.trace_entries"]
    out["rules.cmp_per_entry"] = (counts["instance.better_cmp_calls"] / entries if entries else 0.0, "ratio")
    out["harness.gen_ms"] = (gen_ms, "ms")
    out["cli.kernel_file_bytes"] = (file_bytes, "bytes")
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]()
    outdir = ROOT / "bench-out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        design = workload.design(args.seed, workdir)
        setup, refs, tracer = [], None, None
        for _ in range(SETUP_REPEATS):
            gc.collect()  # every set-up starts from the same heap state
            t0 = time.perf_counter()
            fc = import_fcgp()
            if args.trace:
                tracer = Tracer()
                tracer.install(fc.package, fc.modules)
            inputs = workload.generate(fc, design)
            spent = time.perf_counter() - t0
            if refs is None:
                refs = workload.reference(inputs)
            t0 = time.perf_counter()
            ops = workload.operations(fc, inputs, refs, workdir)
            workload.warm_up(fc, workdir)
            setup.append(spent + time.perf_counter() - t0)

        if not args.trace:
            run = Run(ops)
            metrics = run.end_to_end(run.measure(args.seconds), setup)
            functions = None
        else:
            gen_ms = tracer.ms(prefix="harness.gen_")
            # one untraced round for the overhead, then traced rounds
            tracer.uninstall()
            plain = Run(ops)
            untraced = plain.round()
            tracer.reinstall()
            tracer.reset()
            run = Run(ops)
            timed = run.measure(max(0.0, args.seconds - untraced))
            run.attempted += plain.attempted
            run.errors += plain.errors
            run.problems += plain.problems
            overhead = 1000.0 * (timed / run.rounds - untraced)
            metrics = per_layer(tracer, run.rounds, gen_ms, run.file_bytes, overhead)
            functions = tracer.functions()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in (run.errors + run.problems)[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:32s} {m['value']:14.4f} {m['unit']}")
    print(f"{args.workload:14s} rounds={run.rounds} operations/round={len(ops)} "
          f"attempted={run.attempted} failed={run.failed} correct={result['correct']}")
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=run.rounds, functions=functions)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, in turn; prints each result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        got = json.loads(lines[-1])
        merged["correct"] &= got["correct"]
        merged["attempted"] += got["attempted"]
        merged["failed"] += got["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in got["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fcgp" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'fcgp'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
