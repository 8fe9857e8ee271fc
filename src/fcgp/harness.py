"""Seeded instance generation and the oracle-equivalence test driver.

Generators are pure functions of their seeds (Mersenne Twister via
``random.Random``), so instance streams are reproducible across runs.
Equivalence checking recomputes everything from raw instances; it trusts
neither the rules nor the solvers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .graph import Graph, mask_of
from .instance import AnnotatedInstance, GuardViolation, LiftError, check_alpha, check_variant, lift_witness
from .rules import DECIDED_YES, KERNELIZED, PIPELINES, KernelOutcome, run_pipeline
from .solve import DEFAULT_BUDGET, BudgetExceeded, brute_force, twin_oracle


def gen_gnp(n: int, p_num: int, p_den: int, seed: int) -> Graph:
    """G(n, p) with p = p_num/p_den; each pair is an edge independently."""
    if n < 0 or p_den <= 0 or not (0 <= p_num <= p_den):
        raise ValueError("need n >= 0 and 0 <= p_num/p_den <= 1")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(p_den) < p_num:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_degenerate(n: int, d: int, seed: int) -> Graph:
    """Random graph of degeneracy <= d: each new vertex picks <= d back-edges."""
    if n < 0 or d < 0:
        raise ValueError("need n >= 0 and d >= 0")
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        cnt = rng.randint(0, min(v, d))
        for u in sorted(rng.sample(range(v), cnt)):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_annotated(
    g: Graph,
    seed: int,
    alpha: Fraction,
    variant: str,
    k_range: tuple[int, int],
    counter_range: tuple[int, int] = (0, 0),
    allow_t: bool = True,
) -> AnnotatedInstance:
    """Random annotated instance whose threshold sits near the true optimum.

    T is small and possibly empty, counters are integers (zero on T), and
    t is the brute-force optimum shifted by a random rational in [-2, 2],
    so yes- and no-instances both occur with substantial frequency.
    """
    rng = random.Random(seed)
    lo, hi = k_range
    k = rng.randint(lo, hi)
    if not (1 <= k <= g.n):
        raise ValueError(f"infeasible k={k} for n={g.n}")
    t_size = rng.choice((0, 0, 0, 1, 1, 2)) if allow_t else 0
    t_size = min(t_size, k - 1, g.n)
    tset = sorted(rng.sample(range(g.n), t_size)) if t_size else []
    tmask = 0
    for v in tset:
        tmask |= 1 << v
    bonus = [Fraction(0)] * g.n
    c_lo, c_hi = counter_range
    for v in range(g.n):
        if not (tmask >> v) & 1 and c_hi > 0:
            bonus[v] = alpha * rng.randint(c_lo, c_hi)
    inst = AnnotatedInstance(
        graph=g,
        alive=(1 << g.n) - 1 if g.n else 0,
        tmask=tmask,
        bonus=tuple(bonus),
        k=k,
        t=Fraction(0),
        alpha=Fraction(alpha),
        variant=variant,
    )
    opt = brute_force(inst).best_value
    if opt is None:
        raise ValueError("instance has no candidate solution")
    shift = Fraction(rng.randint(-8, 8), 4)
    return replace(inst, t=opt + shift)


@dataclass(frozen=True)
class EquivalenceReport:
    status: str  # "match" | "mismatch" | "skipped"
    before_decision: bool | None = None
    after_decision: bool | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "match"


class AnswerMismatch(RuntimeError):
    """A kernel outcome's YES has no witness on its input: lifting failed, or
    the decided or lifted witness is not a solution there."""


def outcome_answer(
    inst: AnnotatedInstance, outcome: KernelOutcome, budget: int
) -> tuple[bool, tuple[int, ...] | None]:
    """The decision ``outcome`` gives for its input ``inst`` and, on YES, a
    witness of ``inst``.

    A decided outcome answers with its own witness.  A kernelized one is
    decided by :func:`~fcgp.solve.twin_oracle` on ``outcome.plain`` (within
    ``budget`` visited nodes; :class:`BudgetExceeded` passes through), and a
    YES witness of the kernel is lifted through the de-annotation to the
    run's final instance.  The witness must be a solution of ``inst``; when
    it is not, or lifting fails, :class:`AnswerMismatch` says why.
    """
    if outcome.status == KERNELIZED:
        res = twin_oracle(outcome.plain, budget=budget)
        if not res.decision:
            return False, None
        kind = "lifted"
        try:
            witness = lift_witness(outcome.trace.deann, outcome.final, res.witness)
        except LiftError as exc:
            raise AnswerMismatch(f"witness lifting failed: {exc}") from None
    elif outcome.status == DECIDED_YES:
        kind, witness = "decided", outcome.witness
    else:
        return False, None
    if not inst.is_solution(witness):
        if mask_of(witness) & ~inst.alive:
            raise AnswerMismatch(f"{kind} witness {witness} has deleted vertices")
        raise AnswerMismatch(f"{kind} witness evaluates to {inst.val(witness)} vs t {inst.t}")
    return True, witness


def check_equivalence(before: AnnotatedInstance, after, budget: int = DEFAULT_BUDGET) -> EquivalenceReport:
    """Compare the exact oracle's decisions before and after a transformation.

    ``after`` may be an annotated instance, a plain one (T empty, zero
    bonuses) included, or a :class:`KernelOutcome`, whose answer comes from
    :func:`outcome_answer`: the witness of a YES, decided or lifted from the
    kernel, must be a solution of *before*, and a failed lift or check
    reports "mismatch".
    The oracle is :func:`~fcgp.solve.twin_oracle`, which returns brute
    force's exact answer from one k-set per twin-class count vector;
    ``budget`` bounds the nodes its walk visits per instance, and an
    instance whose walk passes it makes the report "skipped".
    """
    if not isinstance(after, (AnnotatedInstance, KernelOutcome)):
        raise TypeError(f"cannot check equivalence against {type(after)!r}")
    try:
        res_before = twin_oracle(before, budget=budget)
        if isinstance(after, KernelOutcome):
            after_dec, _ = outcome_answer(before, after, budget)
        else:
            after_dec = twin_oracle(after, budget=budget).decision
    except BudgetExceeded as exc:
        return EquivalenceReport("skipped", detail=f"oracle budget: {exc}")
    except AnswerMismatch as exc:
        return EquivalenceReport("mismatch", res_before.decision, True, str(exc))

    if res_before.decision == after_dec:
        return EquivalenceReport("match", res_before.decision, after_dec)
    return EquivalenceReport(
        "mismatch",
        res_before.decision,
        after_dec,
        f"before optimum {res_before.best_value} vs t {before.t}",
    )


# ---------------------------------------------------------------------------
# Test manifests (battery input)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRow:
    generator: str
    params: dict[str, str]
    seed: int
    count: int
    alpha: Fraction
    variant: str
    pipeline: str

    def instances(self):
        """Yield (seed, AnnotatedInstance) pairs for this row."""
        k_lo, k_hi = _parse_range(self.params.get("k", "1:3"))
        c_lo, c_hi = _parse_range(self.params.get("counter", "0:0"))
        allow_t = self.params.get("T", "") != "none"
        for seed in range(self.seed, self.seed + self.count):
            g = self.build_graph(seed)
            try:
                yield seed, gen_annotated(
                    g, seed, self.alpha, self.variant, (k_lo, min(k_hi, max(1, g.n))),
                    (c_lo, c_hi), allow_t=allow_t,
                )
            except ValueError:
                continue

    def build_graph(self, seed: int) -> Graph:
        if self.generator == "gnp":
            n = int(self.params["n"])
            p = Fraction(self.params.get("p", "1/2"))
            return gen_gnp(n, p.numerator, p.denominator, seed)
        if self.generator == "degenerate":
            return gen_degenerate(int(self.params["n"]), int(self.params["d"]), seed)
        raise ValueError(f"unknown generator {self.generator!r}")


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    return int(text), int(text)


def parse_manifest(text: str) -> list[ManifestRow]:
    """One row per line: ``<generator> key=value ...``; ``#`` comments.  A
    :class:`ValueError` naming the line refuses a row that could run no
    check (unknown pipeline, variant or alpha) and a number that does not parse."""
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        params = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ValueError(f"manifest line {no}: bad token {tok!r}")
            key, val = tok.split("=", 1)
            params[key] = val
        try:
            rows.append(
                ManifestRow(
                    generator=tokens[0],
                    params=params,
                    seed=int(params.get("seed", "0")),
                    count=int(params.get("count", "1")),
                    alpha=check_alpha(params["alpha"]),
                    variant=check_variant(params["variant"]),
                    pipeline=params.get("pipeline", "auto"),
                )
            )
        except KeyError as exc:
            raise ValueError(f"manifest line {no}: missing field {exc}") from None
        except ValueError as exc:  # a bad number, variant or alpha
            raise ValueError(f"manifest line {no}: {exc}") from None
        if rows[-1].pipeline not in PIPELINES:
            raise ValueError(f"manifest line {no}: unknown pipeline {rows[-1].pipeline!r}")
    return rows


@dataclass
class BatterySummary:
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[tuple[ManifestRow, int, str]] = field(default_factory=list)


def run_battery(rows: list[ManifestRow], budget: int = DEFAULT_BUDGET) -> BatterySummary:
    """Run every manifest row through its pipeline and the equivalence oracle."""
    summary = BatterySummary()
    for row in rows:
        for seed, inst in row.instances():
            try:
                outcome = run_pipeline(inst, row.pipeline)
            except (GuardViolation, BudgetExceeded):
                summary.skipped += 1
                continue
            report = check_equivalence(inst, outcome, budget=budget)
            if report.status == "match":
                summary.passed += 1
            elif report.status == "skipped":
                summary.skipped += 1
            else:
                summary.failed += 1
                summary.failures.append((row, seed, report.detail))
    return summary
