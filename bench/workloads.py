"""The three benchmark workloads: inputs, operations and output checks.

A workload turns a seed into a fixed list of operations, one round.  Each
operation is timed as a unit and its output is checked against the
reference solver in ``reference.py`` or against a property the method must
have.  Inputs depend only on the seed; the round's composition (sizes,
variants, alphas, k, pipelines) is the same for every seed, so that runs on
different seeds measure the same mix of work.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

F = Fraction
MAX, MIN = ref.MAX, ref.MIN


@dataclass
class Verdict:
    problem: str | None = None  # why the output is wrong, if it is
    kernels: list[tuple[int, int]] = field(default_factory=list)  # (n, m) of plain kernels emitted
    file_bytes: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], Verdict]


def edges_of(g) -> list[tuple[int, int]]:
    """Edge list read from the graph's adjacency data."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def ref_plain(g, k, t, alpha, variant) -> ref.RefInstance:
    return ref.RefInstance.plain(g.n, edges_of(g), k, t, alpha, variant)


def step(alpha: Fraction) -> Fraction:
    """Values of plain instances are multiples of 1/denominator(alpha)."""
    return F(1, alpha.denominator)


def beside(opt: Fraction, alpha: Fraction, variant: str, side: str) -> Fraction:
    """Threshold at the optimum (a yes-instance) or one step past it (a no-instance)."""
    if side == "at":
        return opt
    return opt + step(alpha) if variant == MAX else opt - step(alpha)


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def hub_graph_text(n: int, rng: random.Random) -> str:
    """Preferential attachment tree: each new vertex picks one endpoint in
    proportion to degree, which grows a few hubs of high degree."""
    edges = [(0, 1)]
    ends = [0, 1]
    for v in range(2, n):
        u = rng.choice(ends)
        edges.append((u, v))
        ends += [u, v]
    return edge_list_text(n, edges)


def _witness_problem(rinst: ref.RefInstance, witness, what: str) -> str | None:
    if witness is None or not rinst.is_witness(witness):
        return f"{what} witness {witness} is not a valid solution under the reference evaluator"
    return None


class Workload:
    name = ""

    def design(self, seed: int, workdir: Path) -> list:
        """The benchmark's own part of making inputs: draws, graph files; untimed."""
        raise NotImplementedError

    def generate(self, fc, design: list) -> list:
        """Build the inputs through the program's generators and parser."""
        raise NotImplementedError

    def reference(self, inputs: list) -> list:
        """Reference answers for the inputs; not part of set-up time."""
        raise NotImplementedError

    def operations(self, fc, inputs: list, refs: list, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, fc, workdir: Path) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# kernel-scale: compute_profile (no vertex cover) + run_pipeline on large
# sparse plain instances.  Almost all time is in the rule engine.
# ---------------------------------------------------------------------------

# Every (variant, alpha, pipeline) row runs on every family; sizes and k
# rotate over the slots, so each size holds a fifth of the round and the
# median and the tail operation fall inside a size group, not between two.
# Each slot is run at the optimum and one step beside it.
KERNEL_SCALE_ROWS = [
    (MAX, F(1, 2), "delta"),
    (MAX, F(1, 2), "auto"),
    (MAX, F(2, 3), "auto"),
    (MAX, F(2, 3), "closure"),
    (MAX, F(1), "closure"),
    (MAX, F(1), "delta"),
    (MAX, F(1), "auto"),
    (MIN, F(1, 4), "auto"),
    (MIN, F(1, 4), "delta"),
    (MIN, F(1, 4), "closure"),
]
KERNEL_SCALE_FAMILIES = ("deg2", "deg3", "gnp", "hub")
KERNEL_SCALE_SIZES = (100, 120, 140, 170, 200)


def kernel_scale_mix() -> list[tuple]:
    """(family, n, variant, alpha, k, pipeline) for every slot of a round."""
    mix = []
    for i, (variant, alpha, pipeline) in enumerate(KERNEL_SCALE_ROWS):
        for j, family in enumerate(KERNEL_SCALE_FAMILIES):
            n = KERNEL_SCALE_SIZES[(i + j) % len(KERNEL_SCALE_SIZES)]
            k = 3 + (i + 2 * j) % 4
            mix.append((family, n, variant, alpha, k, pipeline))
    return mix


class KernelScale(Workload):
    name = "kernel-scale"

    def design(self, seed, workdir):
        rng = random.Random(seed)
        slots = []
        for side in ("at", "beside"):
            for family, n, variant, alpha, k, pipeline in kernel_scale_mix():
                gseed = rng.randrange(1 << 30)
                text = hub_graph_text(n, random.Random(gseed)) if family == "hub" else None
                slots.append((family, n, gseed, text, variant, alpha, k, pipeline, side))
        return slots

    def generate(self, fc, design):
        inputs = []
        for family, n, gseed, text, variant, alpha, k, pipeline, side in design:
            if family == "deg2":
                g = fc.harness.gen_degenerate(n, 2, gseed)
            elif family == "deg3":
                g = fc.harness.gen_degenerate(n, 3, gseed)
            elif family == "gnp":
                g = fc.harness.gen_gnp(n, 3, n, gseed)
            else:
                g = fc.graph.parse_graph(text)
            if variant == MIN:
                # no isolated vertices, so the min optimum is above 0
                g, _ = g.induced(v for v in range(g.n) if g.adj[v])
            inputs.append((g, variant, alpha, k, pipeline, side))
        return inputs

    def reference(self, inputs):
        refs = []
        for g, variant, alpha, k, _, side in inputs:
            opt = ref.solve(ref_plain(g, k, 0, alpha, variant)).optimum
            t = beside(opt, alpha, variant, side)
            refs.append((t, side == "at"))
        return refs

    def operations(self, fc, inputs, refs, workdir):
        ops = []
        kernel_cache: dict = {}
        for (g, variant, alpha, k, pipeline, side), (t, yes) in zip(inputs, refs):
            inst = fc.instance.PlainInstance(g, k, t, alpha, variant).annotate()
            rinst = ref_plain(g, k, t, alpha, variant)

            def run(g=g, inst=inst, pipeline=pipeline):
                profile = fc.graph.compute_profile(g)
                return fc.rules.run_pipeline(inst, pipeline, profile=profile)

            def verify(out, rinst=rinst, yes=yes):
                return _check_outcome(out, rinst, yes, kernel_cache)

            label = f"{variant}/{alpha}/k={k}/{pipeline}/n={g.n}/{side}"
            ops.append(Op(label, run, verify))
        return ops

    def warm_up(self, fc, workdir):
        g = fc.harness.gen_degenerate(60, 2, 1)
        for variant, alpha, pipeline in ((MAX, F(1, 2), "delta"), (MAX, F(1), "closure"),
                                         (MAX, F(2, 3), "auto"), (MIN, F(1, 4), "auto")):
            inst = fc.instance.PlainInstance(g, 3, F(5), alpha, variant).annotate()
            fc.rules.run_pipeline(inst, pipeline, profile=fc.graph.compute_profile(g))


def _check_outcome(out, rinst: ref.RefInstance, yes: bool, kernel_cache: dict) -> Verdict:
    """A pipeline outcome against the reference decision of its input."""
    if out.status == "decided_yes":
        if not yes:
            return Verdict("decided YES on a no-instance")
        return Verdict(_witness_problem(rinst, out.witness, "decided"))
    if out.status == "decided_no":
        return Verdict(None if not yes else "decided NO on a yes-instance")
    plain = out.plain
    g = plain.graph
    key = (g.adj, plain.k, plain.t, plain.alpha, plain.variant)
    if key not in kernel_cache:
        kinst = ref_plain(g, plain.k, plain.t, plain.alpha, plain.variant)
        kernel_cache[key] = ref.solve(kinst).decision(kinst)
    verdict = Verdict(kernels=[(g.n, g.m)])
    if kernel_cache[key] != yes:
        verdict.problem = f"kernel decides {kernel_cache[key]}, original decides {yes}"
    return verdict


# ---------------------------------------------------------------------------
# cli-roundtrip: kernelize --out --trace, solve, verify --kernel --trace
# --oracle, in-process through fcgp.cli.main, on small sparse graph files.
# ---------------------------------------------------------------------------

CLI_COVER = 12
CLI_COMBOS = [(MAX, F(1, 4)), (MAX, F(1, 3)), (MAX, F(1, 2)), (MAX, F(1)), (MIN, F(1, 4)), (MIN, F(1, 2))]


class CliRoundtrip(Workload):
    name = "cli-roundtrip"

    def design(self, seed, workdir):
        rng = random.Random(seed)
        slots = []
        i = 0
        for k in (2, 3):
            for side in ("at", "beside"):
                for _ in range(2):
                    for variant, alpha in CLI_COMBOS:
                        n = 20 + i % 11
                        edges = sparse_graph(n, CLI_COVER, rng)
                        path = workdir / f"g{i:03d}.el"
                        path.write_text(edge_list_text(n, edges))
                        slots.append((path, n, edges, variant, alpha, k, side))
                        i += 1
        return slots

    def generate(self, fc, design):
        for path, *_ in design:
            fc.graph.parse_graph(path.read_text())
        return design

    def reference(self, inputs):
        refs = []
        for _, n, edges, variant, alpha, k, side in inputs:
            opt = ref.solve(ref.RefInstance.plain(n, edges, k, 0, alpha, variant)).optimum
            refs.append((beside(opt, alpha, variant, side), side == "at"))
        return refs

    def operations(self, fc, inputs, refs, workdir):
        ops = []
        kernel_cache: dict = {}
        for i, ((path, n, edges, variant, alpha, k, side), (t, yes)) in enumerate(zip(inputs, refs)):
            kpath, tpath = workdir / f"k{i:03d}.txt", workdir / f"t{i:03d}.txt"
            kpath.unlink(missing_ok=True)
            # '--t=' keeps a negative threshold from reading as an option
            value = ["--alpha", str(alpha), "--k", str(k), f"--t={t}", "--variant", variant]
            argvs = (
                ["kernelize", str(path), *value, "--pipeline", "auto", "--out", str(kpath), "--trace", str(tpath)],
                ["solve", str(path), *value],
                ["verify", str(path), *value, "--pipeline", "auto", "--kernel", str(kpath),
                 "--trace", str(tpath), "--oracle"],
            )
            rinst = ref.RefInstance.plain(n, edges, k, t, alpha, variant)

            def run(argvs=argvs):
                return [_run_cli(fc, argv) for argv in argvs]

            def verify(out, rinst=rinst, yes=yes, kpath=kpath):
                return _check_cli(out, rinst, yes, kpath, kernel_cache)

            ops.append(Op(f"{variant}/{alpha}/k={k}/n={n}/{side}", run, verify))
        return ops

    def warm_up(self, fc, workdir):
        g = fc.harness.gen_degenerate(12, 2, 1)
        path = workdir / "warm.el"
        path.write_text(edge_list_text(g.n, edges_of(g)))
        value = ["--alpha", "1/2", "--k", "2", "--t", "1", "--variant", "max"]
        kpath, tpath = str(workdir / "warm.k"), str(workdir / "warm.t")
        _run_cli(fc, ["kernelize", str(path), *value, "--out", kpath, "--trace", tpath])
        _run_cli(fc, ["solve", str(path), *value])
        _run_cli(fc, ["verify", str(path), *value, "--kernel", kpath, "--trace", tpath, "--oracle"])


def sparse_graph(n: int, cover: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random graph with 0.7 n to 2 n edges, no isolated vertex and a
    minimum vertex cover of exactly ``cover`` vertices (drawn until it has one).

    The program's exact cover search, which every kernelize, solve and
    verify call runs, takes time exponential in the cover size; one cover
    size for every graph keeps that work alike across slots and seeds.
    """
    while True:
        m = rng.randint(7 * n // 10, 2 * n)
        edges = set()
        while len(edges) < m:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        touched = {x for e in edges for x in e}
        for v in range(n):
            if v not in touched:
                u = rng.choice([x for x in range(n) if x != v])
                edges.add((min(u, v), max(u, v)))
                touched |= {u, v}
        edges = sorted(edges)
        if ref.vertex_cover_number(n, edges) == cover:
            return edges


def _run_cli(fc, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fc.cli.main(argv)
    return code, out.getvalue()


def _field(line: str, key: str) -> str:
    for tok in line.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    raise ValueError(f"no {key}= in {line!r}")


def _witness(text: str) -> tuple[int, ...] | None:
    return tuple(int(x) for x in text.split(",")) if text else None


def _parse_kernel(text: str) -> ref.RefInstance:
    """The kernel file format: 'fcgp <variant> alpha=A k=K t=T', then 'n m' and edges."""
    lines = text.splitlines()
    head = lines[0].split()
    if head[0] != "fcgp" or len(head) != 5:
        raise ValueError(f"bad kernel header {lines[0]!r}")
    fields = dict(tok.split("=", 1) for tok in head[2:])
    n, m = map(int, lines[1].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[2:] if ln.strip()]
    if len(edges) != m:
        raise ValueError("kernel edge count does not match its header")
    return ref.RefInstance.plain(n, edges, int(fields["k"]), F(fields["t"]), F(fields["alpha"]), head[1])


def _check_cli(out, rinst: ref.RefInstance, yes: bool, kpath: Path, kernel_cache: dict) -> Verdict:
    (kcode, kout), (scode, sout), (vcode, vout) = out
    verdict = Verdict()
    if kcode != 0:
        return Verdict(f"kernelize exited {kcode}")
    if kout.startswith("decided: YES"):
        if not yes:
            return Verdict("kernelize decided YES on a no-instance")
        verdict.problem = _witness_problem(rinst, _witness(_field(kout, "witness")), "kernelize")
    elif kout.startswith("decided: NO"):
        if yes:
            return Verdict("kernelize decided NO on a yes-instance")
    else:
        text = kpath.read_text()
        if text not in kernel_cache:
            kinst = _parse_kernel(text)
            kernel_cache[text] = (ref.solve(kinst).decision(kinst), len(kinst.vertices),
                                  sum(len(a) for a in kinst.adj.values()) // 2)
        kyes, kn, km = kernel_cache[text]
        verdict.kernels.append((kn, km))
        verdict.file_bytes = len(text.encode())
        if kyes != yes:
            return Verdict(f"kernel file decides {kyes}, original decides {yes}")
    if scode != (0 if yes else 1):
        return Verdict(f"solve exited {scode} on a {'yes' if yes else 'no'}-instance")
    if yes:
        verdict.problem = verdict.problem or _witness_problem(rinst, _witness(_field(sout, "witness")), "solve")
    if vcode != 0 or not vout.startswith("verified:"):
        return Verdict(f"verify exited {vcode}: {vout.strip()!r}")
    if (_field(vout, "decision") == "YES") != yes:
        return Verdict("verify printed the wrong decision")
    lifted = _witness(_field(vout, "witness"))
    if yes and lifted is not None:
        verdict.problem = verdict.problem or _witness_problem(rinst, lifted, "verify")
    return verdict


# ---------------------------------------------------------------------------
# oracle-sweep: run_pipeline + harness.check_equivalence on small annotated
# instances (T and counters), every pipeline inside its guard.
# ---------------------------------------------------------------------------

# (variant, alpha) -> (pipelines run on an instance with T, pipelines run with T empty).
# hindex and vc start from an empty T; hindex only where case 2 is allowed.
# k <= 3 keeps every de-annotated kernel (at most about 200 vertices for
# n <= 10) inside the oracle's 2 000 000-subset budget.
SWEEP_PIPELINES = {
    (MAX, F(1, 4)): ((), ("vc", "auto")),
    (MAX, F(1, 3)): ((), ("vc", "auto")),
    (MAX, F(1, 2)): (("delta", "closure", "degeneracy", "auto"), ("hindex", "vc")),
    (MAX, F(2, 3)): (("delta", "closure", "degeneracy", "auto"), ("hindex", "vc")),
    (MAX, F(1)): (("delta", "closure", "degeneracy", "auto"), ("hindex", "vc")),
    (MIN, F(1, 4)): (("delta", "closure"), ("degeneracy", "vc", "auto")),
    (MIN, F(1, 3)): ((), ("vc", "auto")),
    (MIN, F(1, 2)): ((), ("vc", "auto")),
}
SWEEP_GRAPHS = 72


class OracleSweep(Workload):
    name = "oracle-sweep"

    def design(self, seed, workdir):
        rng = random.Random(seed)
        return [(i, rng.randrange(1 << 30), [rng.randrange(1 << 30) for _ in SWEEP_PIPELINES])
                for i in range(SWEEP_GRAPHS)]

    def generate(self, fc, design):
        inputs = []
        for i, gseed, iseeds in design:
            n = 6 + i % 5
            if i % 2:
                g = fc.harness.gen_gnp(n, 1, 2, gseed)
            else:
                g = fc.harness.gen_degenerate(n, 1 + (i // 2) % 3, gseed)
            k = 2 + (i // 5) % 2
            for ((variant, alpha), (with_t, without_t)), iseed in zip(SWEEP_PIPELINES.items(), iseeds):
                for pipelines, allow_t in ((with_t, True), (without_t, False)):
                    if pipelines:
                        inst = fc.harness.gen_annotated(g, iseed, alpha, variant, (k, k), (0, 2), allow_t=allow_t)
                        inputs.append((inst, pipelines))
        return inputs

    def reference(self, inputs):
        refs = []
        for inst, _ in inputs:
            rinst = ref.RefInstance.from_annotated(inst)
            refs.append((rinst, ref.solve(rinst).decision(rinst)))
        return refs

    def operations(self, fc, inputs, refs, workdir):
        ops = []
        for (inst, pipelines), (rinst, yes) in zip(inputs, refs):
            def run(inst=inst, pipelines=pipelines):
                done = []
                for name in pipelines:
                    outcome = fc.rules.run_pipeline(inst, name)
                    done.append((name, outcome, fc.harness.check_equivalence(inst, outcome)))
                return done

            def verify(out, rinst=rinst, yes=yes):
                return _check_sweep(out, rinst, yes)

            label = f"{inst.variant}/{inst.alpha}/k={inst.k}/n={inst.graph.n}/T={inst.tmask.bit_count()}"
            ops.append(Op(label, run, verify))
        return ops

    def warm_up(self, fc, workdir):
        g = fc.harness.gen_gnp(7, 1, 2, 1)
        for (variant, alpha), (with_t, without_t) in SWEEP_PIPELINES.items():
            inst = fc.harness.gen_annotated(g, 1, alpha, variant, (2, 2), (0, 2), allow_t=False)
            for name in with_t + without_t:
                fc.harness.check_equivalence(inst, fc.rules.run_pipeline(inst, name))


def _check_sweep(out, rinst: ref.RefInstance, yes: bool) -> Verdict:
    verdict = Verdict()
    for name, outcome, report in out:
        if report.status != "match":
            return Verdict(f"{name}: check_equivalence {report.status} ({report.detail})")
        if report.before_decision != yes or report.after_decision != yes:
            return Verdict(f"{name}: oracle decisions differ from the reference decision {yes}")
        if outcome.status == "decided_no" and yes:
            return Verdict(f"{name}: decided NO on a yes-instance")
        if outcome.status == "decided_yes":
            problem = None if yes else "decided YES on a no-instance"
            problem = problem or _witness_problem(rinst, outcome.witness, name)
            if problem:
                return Verdict(problem)
        elif outcome.status == "kernelized":
            g = outcome.plain.graph
            verdict.kernels.append((g.n, g.m))
    return verdict


WORKLOADS = {w.name: w for w in (KernelScale, CliRoundtrip, OracleSweep)}
