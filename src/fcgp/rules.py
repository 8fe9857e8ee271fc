"""Reduction-rule catalog and the kernelization pipelines composing them.

Every rule is an answer-preserving transformation of an annotated instance;
pipelines string them together, short-circuit to a decision whenever
|T| = k or fewer than k vertices remain, and finish by removing the
annotations.  Each primitive application is logged into a replayable
:class:`RuleTrace`.

Tie-breaking is smallest vertex index everywhere, so identical inputs give
identical traces.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from . import ramsey
from .graph import Graph, ParameterProfile, RuleInternalError, compute_profile, degeneracy_ordering, iter_mask, mask_of
from .instance import (
    MAX,
    MIN,
    THIRD,
    ZERO,
    AnnotatedInstance,
    Deannotation,
    GuardViolation,
    deannotate_identity,
    deannotate_max,
    deannotate_min,
)
from .ramsey import ExtractionPreconditionError

KERNELIZED = "kernelized"
DECIDED_YES = "decided_yes"
DECIDED_NO = "decided_no"


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    op: str  # include | exclude | shift | decide
    verts: tuple[int, ...]
    dt: Fraction
    note: str = ""

    def to_line(self) -> str:
        verts = ",".join(map(str, self.verts))
        return f"entry rule={self.rule} op={self.op} verts={verts} dt={self.dt} note={self.note}"


@dataclass(frozen=True)
class InstanceSummary:
    n: int
    m: int
    k: int
    t: Fraction
    gamma: int | None
    delta_tbar: int

    def to_line(self, tag: str) -> str:
        gamma = "-" if self.gamma is None else str(self.gamma)
        return f"{tag} n={self.n} m={self.m} k={self.k} t={self.t} gamma={gamma} delta_tbar={self.delta_tbar}"


def summarize(inst: AnnotatedInstance) -> InstanceSummary:
    m2 = sum(inst.degree(v) for v in iter_mask(inst.alive))
    try:
        gamma = inst.gamma()
    except GuardViolation:
        gamma = None
    return InstanceSummary(
        n=inst.n_alive, m=m2 // 2, k=inst.k, t=inst.t, gamma=gamma, delta_tbar=inst.delta_tbar()
    )


@dataclass
class RuleTrace:
    """Ordered, replayable log of rule applications."""

    pipeline: str
    initial: InstanceSummary | None = None
    final: InstanceSummary | None = None
    entries: list[TraceEntry] = field(default_factory=list)
    audits: dict[str, str] = field(default_factory=dict)
    deann: Deannotation | None = None

    def log(self, rule: str, op: str, verts: tuple[int, ...], dt: Fraction, note: str = "") -> None:
        self.entries.append(TraceEntry(rule=rule, op=op, verts=verts, dt=dt, note=note))

    def audit(self, key: str, value) -> None:
        self.audits[key] = str(value)

    def to_text(self) -> str:
        lines = [f"# fcgp rule trace pipeline={self.pipeline}"]
        if self.initial is not None:
            lines.append(self.initial.to_line("initial"))
        lines.extend(e.to_line() for e in self.entries)
        if self.final is not None:
            lines.append(self.final.to_line("final"))
        for key in sorted(self.audits):
            lines.append(f"audit {key}={self.audits[key]}")
        if self.deann is not None:
            d = self.deann
            lines.append(f"deann kind={d.kind} ell={d.ell} n={d.plain.graph.n} m={d.plain.graph.m}")
            lines.append("origin " + ",".join(map(str, d.origin)))
            lines.append("anchor " + ",".join(map(str, d.anchor)))
        return "\n".join(lines) + "\n"

    def replay(self, initial: AnnotatedInstance) -> AnnotatedInstance:
        """Re-apply every primitive op; asserts the logged t-deltas match."""
        inst = initial
        for e in self.entries:
            before_t = inst.t
            if e.op == "include":
                inst = inst.include(e.verts[0])
            elif e.op == "exclude":
                inst = inst.exclude(e.verts[0])
            elif e.op == "shift":
                amount = Fraction(e.note.split("=", 1)[1])
                inst = inst.shift_bonus(amount)
            elif e.op == "decide":
                continue
            else:
                raise ValueError(f"unknown op {e.op!r}")
            if inst.t - before_t != e.dt:
                raise RuleInternalError(f"replay t-delta mismatch at {e}")
        return inst


@dataclass(frozen=True)
class KernelOutcome:
    status: str  # kernelized | decided_yes | decided_no
    plain: "object | None"  # PlainInstance when kernelized
    witness: tuple[int, ...] | None
    trace: RuleTrace


def _require_degrading(inst: AnnotatedInstance, rule: str, allow_alpha_zero: bool = False) -> None:
    if inst.variant == MAX:
        if not inst.alpha > THIRD:
            raise GuardViolation(f"{rule} requires degrading variant: max needs alpha>1/3, got {inst.alpha}")
    else:
        if not inst.alpha < THIRD:
            raise GuardViolation(f"{rule} requires degrading variant: min needs alpha<1/3, got {inst.alpha}")
        if not allow_alpha_zero and inst.alpha == 0:
            raise GuardViolation(f"{rule} requires alpha > 0")


def _step(inst: AnnotatedInstance, op: str, v: int, rule: str, note: str, trace: RuleTrace | None):
    """Include or exclude v, logged with its change of t when traced."""
    new = inst.include(v) if op == "include" else inst.exclude(v)
    if trace is not None:
        trace.log(rule, op, (v,), new.t - inst.t, note)
    return new


def _shortcircuit(inst: AnnotatedInstance):
    """Decision forced by cardinality: the solution set is over- or fully
    determined (too few vertices, T full, or every survivor needed).  A Min
    instance with t < 0 is a no-instance outright: every value is >= 0."""
    if inst.n_alive < inst.k or inst.k < inst.t_size or (inst.variant == MIN and inst.t < 0):
        return (DECIDED_NO, None)
    if inst.t_size == inst.k or inst.n_alive == inst.k:
        forced = inst.tmask if inst.t_size == inst.k else inst.alive
        if inst.score_val(forced) >= inst.score_needed(inst.t):
            return (DECIDED_YES, tuple(iter_mask(forced)))
        return (DECIDED_NO, None)
    return None


# ---------------------------------------------------------------------------
# Degree-bounded rules (maximum-degree kernel machinery)
# ---------------------------------------------------------------------------

class _Ranking:
    """The free vertices of an instance ranked by score, kept exact under
    exclusion (and, for deg-bonus scores, inclusion).

    The score of a free vertex is the instance's score of its contribution
    w.r.t. T (``wrt_t``) or of its deg-bonus.  Excluding u changes neither
    for any other free vertex (a neighbor loses a degree and
    gains alpha of bonus; a T-neighbor's credit goes into t), nor t'.
    Including u leaves every deg-bonus alone.  A counter shift lowers every
    free deg-bonus by the same amount; it is not applied, so deg-bonus
    scores stay exact up to one common offset.  ``degrees`` is the histogram
    of free degrees, so Delta_Tbar only moves down a pointer.
    """

    def __init__(self, inst: AnnotatedInstance, wrt_t: bool):
        self.inst = inst
        free = inst.free_vertices()
        tmask = inst.tmask
        self.score = {v: inst.score_contribution(v, tmask) if wrt_t else inst.score_deg_bonus(v) for v in free}
        self.ranked = sorted(self.score.values())
        self.degrees = [0] * (inst.graph.n + 1)
        for v in free:
            self.degrees[inst.degree(v)] += 1
        self.top = inst.graph.n

    def at_least(self, v: int, margin: int = 0) -> int:
        """Free vertices other than v scoring >= score(v) + margin (margin >= 0)."""
        return len(self.ranked) - bisect_left(self.ranked, self.score[v] + margin) - (margin == 0)

    def above(self, v: int, margin: int) -> int:
        """Free vertices other than v scoring > score(v) - margin (margin >= 0)."""
        return len(self.ranked) - bisect_right(self.ranked, self.score[v] - margin) - (margin > 0)

    def delta_tbar(self) -> int:
        while self.top > 0 and not self.degrees[self.top]:
            self.top -= 1
        return self.top

    def _forget(self, v: int) -> None:
        self.degrees[self.inst.degree(v)] -= 1
        del self.ranked[bisect_left(self.ranked, self.score.pop(v))]

    def exclude(self, v: int) -> Fraction:
        """Exclude v; returns the change of t."""
        inst = self.inst
        for u in iter_mask(inst.graph.masks[v] & inst.alive & ~inst.tmask):
            d = inst.degree(u)
            self.degrees[d] -= 1
            self.degrees[d - 1] += 1
        self._forget(v)
        self.inst = inst.exclude(v)
        return self.inst.t - inst.t

    def include(self, v: int) -> Fraction:
        """Include v (deg-bonus scores only); returns the change of t."""
        inst = self.inst
        self._forget(v)
        self.inst = inst.include(v)
        return self.inst.t - inst.t


def rr_delta_better(inst: AnnotatedInstance, trace: RuleTrace | None = None) -> AnnotatedInstance:
    """Exclude any vertex dominated by (Delta_Tbar+1)(k-1)+1 better vertices.

    "Better" is contribution w.r.t. T in the variant's direction; ties count,
    the vertex itself does not.  Exclusions change no other contribution, so
    contributions are ranked once and better-counts and the bound only fall:
    the lowest qualifying index is found by one scan in index order, which
    restarts only when the bound drops (at most Delta_Tbar times).
    """
    _require_degrading(inst, "rr_delta_better")
    rank = _Ranking(inst, wrt_t=True)
    free = inst.free_vertices()
    bound = (rank.delta_tbar() + 1) * (inst.k - 1) + 1
    i = 0
    while i < len(free):
        v = free[i]
        i += 1
        if v not in rank.score:
            continue
        better = rank.at_least(v)
        if better < bound:
            continue
        dt = rank.exclude(v)
        if trace is not None:
            trace.log("delta:better", "exclude", (v,), dt, f"better={better} bound={bound}")
        lowered = (rank.delta_tbar() + 1) * (inst.k - 1) + 1
        if lowered < bound:
            bound, i = lowered, 0
    if trace is not None:
        trace.audit("delta_better_free", len(rank.score))
        trace.audit("delta_better_bound", bound)
    return rank.inst


def _satisfactory_threshold(inst: AnnotatedInstance) -> Fraction:
    return inst.t_prime() / inst.k_prime + (3 * inst.alpha - 1) * (inst.k - 1)


def _find_satisfactory(inst: AnnotatedInstance) -> int | None:
    need = inst.score_needed(_satisfactory_threshold(inst))
    return next((v for v in inst.free_vertices() if inst.score_contribution(v, inst.tmask) >= need), None)


def rr_include_satisfactory(inst: AnnotatedInstance, trace: RuleTrace | None = None):
    """Repeatedly include vertices whose contribution clears t'/k' by the
    (3a-1)(k-1) margin.

    Returns the new instance, or a ``(status, witness, instance)`` decision
    triple once |T| reaches k (or too few vertices remain).
    """
    _require_degrading(inst, "rr_include_satisfactory")
    while True:
        sc = _shortcircuit(inst)
        if sc is not None:
            return sc + (inst,)
        v = _find_satisfactory(inst)
        if v is None:
            return inst
        inst = _step(inst, "include", v, "general:include-high", "satisfactory", trace)


def rr_exclude_needless(inst: AnnotatedInstance, trace: RuleTrace | None = None) -> AnnotatedInstance:
    """Exclude vertices far below t'/k' (above, for Min).

    Must start at the satisfactory fixpoint.  An exclusion changes neither
    t' nor any other contribution, so the threshold and the targets are
    fixed: one pass in index order, stopping once fewer than k vertices
    remain.  No exclusion can create a satisfactory vertex; that is checked.
    """
    _require_degrading(inst, "rr_exclude_needless")
    if inst.k_prime <= 0:
        return inst
    contrib = {v: inst.score_contribution(v, inst.tmask) for v in inst.free_vertices()}
    satisfactory = inst.score_needed(_satisfactory_threshold(inst))
    if any(c >= satisfactory for c in contrib.values()):
        raise GuardViolation("rr_exclude_needless requires the satisfactory-rule fixpoint")
    need = inst.score_needed(inst.t_prime() / inst.k_prime - (3 * inst.alpha - 1) * (inst.k - 1) ** 2)
    for v, c in contrib.items():
        if inst.n_alive < inst.k:
            break
        if c >= need:
            continue
        inst = _step(inst, "exclude", v, "general:exclude-low", "needless", trace)
    if _find_satisfactory(inst) is not None:
        raise RuleInternalError("a needless exclusion created a satisfactory vertex")
    return inst


def rr_counter_shift(inst: AnnotatedInstance, trace: RuleTrace | None = None) -> AnnotatedInstance:
    """Lower all non-T bonuses by their minimum so some counter reaches zero."""
    free = inst.free_vertices()
    if not free:
        return inst
    low = min(free, key=inst.weights.__getitem__)
    if not inst.weights[low]:
        return inst
    amount = inst.bonus[low]
    before = inst.t
    inst = inst.shift_bonus(amount)
    if trace is not None:
        trace.log("general:no-zero-counter", "shift", (), inst.t - before, f"amount={amount}")
    return inst


def counter_bound_audit(inst: AnnotatedInstance) -> bool:
    """Explicit counter bound after the include/exclude/shift fixpoint:

    bonus(v) <= alpha*deg(u) + |3a-1| * (k(k-1) + k) for a zero-bonus vertex
    u outside T (the minimum-degree one gives the strongest check).
    """
    free = inst.free_vertices()
    if not free:
        return True
    zero = [v for v in free if not inst.weights[v]]
    if not zero:
        return False
    deg_u = min(inst.degree(u) for u in zero)
    # as weights: |3a-1| * (k(k-1) + k) is the score margin |(1-3a)k| times k
    cap = inst.alpha_weight * deg_u + inst.score_margin() * inst.k
    return all(inst.weights[v] <= cap for v in free)


# ---------------------------------------------------------------------------
# c-closure rules
# ---------------------------------------------------------------------------

def _closure_better_threshold(c: int, k: int) -> int:
    # (c-1)(k-1) suffices for the exchange argument for c >= 2 and also kills
    # cliques of (c-1)k+1 vertices; for c = 1 the sound threshold is k-1.
    return max(k - 1, (c - 1) * (k - 1))


def rr_closure_better(inst: AnnotatedInstance, c: int, trace: RuleTrace | None = None) -> AnnotatedInstance:
    """Exclude v once too many of its neighbors are better (w.r.t. the empty set).

    x_v counts the alive neighbors, T included, whose deg-bonus is at least
    as good as v's.  Excluding w leaves every free deg-bonus alone and
    lowers each T-neighbor's by alpha, so x is recounted only on N(w) and on
    the neighborhoods of w's T-neighbors; a heap yields the lowest
    qualifying index.
    """
    _require_degrading(inst, "rr_closure_better", allow_alpha_zero=True)
    if c < 1:
        raise GuardViolation("c must be >= 1")
    thr = _closure_better_threshold(c, inst.k)
    masks = inst.graph.masks

    def count(v: int) -> int:
        mine = inst.score_deg_bonus(v)
        return sum(1 for u in iter_mask(masks[v] & inst.alive) if inst.score_deg_bonus(u) >= mine)

    x = {v: count(v) for v in inst.free_vertices()}
    heap = [v for v, xv in x.items() if xv > thr]
    while heap:
        v = heapq.heappop(heap)
        if x.get(v, thr) <= thr:
            continue
        touched = masks[v]
        for u in iter_mask(masks[v] & inst.tmask):
            touched |= masks[u]
        x_v = x.pop(v)
        inst = _step(inst, "exclude", v, "closure:better", f"xv={x_v} thr={thr}", trace)
        for u in iter_mask(touched & inst.alive & ~inst.tmask):
            x[u] = count(u)
            if x[u] > thr:
                heapq.heappush(heap, u)
    return inst


def closure_xi_degree_bound(c: int, k: int) -> int:
    """Degree threshold at which the X/I extraction is guaranteed to work."""
    return ramsey.rc_bound((c - 1) * k + 1, (k + 1) * k ** (c - 1), c)


def _max_degree_neighborhood(inst: AnnotatedInstance, need: int):
    """The free vertex v of largest degree (lowest index on ties) and the
    graph induced by its alive neighbors, with the map back; v needs degree
    >= ``need``."""
    free = inst.free_vertices()
    v = max(free, key=lambda u: (inst.degree(u), -u), default=None)
    if v is None or inst.degree(v) < need:
        raise ExtractionPreconditionError(f"no free vertex of degree >= {need}")
    sub, back = inst.graph.induced(iter_mask(inst.graph.masks[v] & inst.alive))
    return v, sub, back


def _descend_XI(
    inst: AnnotatedInstance,
    v: int,
    start,
    depth: int,
    base: int,
    slack: int,
    growth_error: str,
    audit_key: str,
    trace: RuleTrace | None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Common-neighborhood descent shared by the c-closed (depth c, base k+1,
    slack 0) and the K_{a,b}-free (depth a, base b, slack 1) extractions.

    Starts from X = {v} and I = ``start``, an independent set inside N(v).  While some
    vertex outside X sees more than base*k^(depth-i-1) of I, i = |X|, the
    lowest-indexed one joins X and I shrinks to its neighbors; a growth past
    depth-1 disproves the structural precondition.  The result has
    |I| >= base*k^(depth-i) + slack, every vertex outside X seeing at most
    base*k^(depth-i-1) of I, I independent and inside the common
    neighborhood of X; all four are verified.
    """
    k = inst.k
    masks = inst.graph.masks
    xs = [v]
    imask = mask_of(start)
    while True:
        tau = base * k ** (depth - len(xs) - 1)
        outside = inst.alive & ~mask_of(xs)
        cand = next((u for u in iter_mask(outside) if (masks[u] & imask).bit_count() > tau), None)
        if cand is None:
            break
        if len(xs) == depth - 1:
            raise ExtractionPreconditionError(growth_error)
        xs.append(cand)
        imask &= masks[cand]
    i = len(xs)
    if imask.bit_count() < base * k ** (depth - i) + slack:
        raise RuleInternalError("extracted I below its size property")
    if any((masks[u] & imask).bit_count() > tau for u in iter_mask(outside)):
        raise RuleInternalError("a vertex outside X sees too much of I")
    iset = tuple(iter_mask(imask))
    if not inst.graph.is_independent_set(iset):
        raise RuleInternalError("extracted I is not independent")
    if any(imask & ~masks[x] for x in xs):
        raise RuleInternalError("I is not in the common neighborhood of X")
    if trace is not None:
        trace.audit(audit_key, f"x={i} i={len(iset)}")
    return tuple(xs), iset


def _exclude_worst_of(inst: AnnotatedInstance, iset: tuple[int, ...], rule: str, trace: RuleTrace | None):
    """Exclude the vertex of I outside T that every other one is better than:
    min deg-bonus for Max, max for Min, lowest index on ties."""
    candidates = [v for v in iset if not (inst.tmask >> v) & 1]
    if not candidates:
        raise GuardViolation("independent set lies inside T")
    v = min(candidates, key=lambda u: (inst.score_deg_bonus(u), u))
    return _step(inst, "exclude", v, rule, f"|I|={len(iset)}", trace)


def find_closure_XI(inst: AnnotatedInstance, c: int, trace: RuleTrace | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy common-neighborhood descent around a max-degree vertex.

    Returns (X, I) with I an independent set inside the common neighborhood
    of X, |I| >= (k+1)k^(c-i) for i = |X| <= c-1, and every vertex outside X
    having at most (k+1)k^(c-i-1) neighbors in I.  Both properties are
    verified before returning.
    """
    k = inst.k
    if c < 2:
        raise GuardViolation("X/I extraction needs c >= 2")
    if k < 1:
        raise GuardViolation("X/I extraction needs k >= 1")
    v, sub, back = _max_degree_neighborhood(inst, closure_xi_degree_bound(c, k))
    witness = ramsey.cclosed_ramsey(sub, (c - 1) * k + 1, (k + 1) * k ** (c - 1), c)
    if witness.kind == ramsey.CLIQUE:
        raise ExtractionPreconditionError(
            f"clique of size {(c - 1) * k + 1} in a neighborhood; closure-better rule not at fixpoint"
        )
    growth = "common-neighborhood growth exceeds c-1; graph not c-closed for this c"
    return _descend_XI(inst, v, (back[i] for i in witness.vertices), c, k + 1, 0, growth, "closure_xi", trace)


def rr_closure_independent_set(
    inst: AnnotatedInstance, xs: tuple[int, ...], iset: tuple[int, ...], trace: RuleTrace | None = None
) -> AnnotatedInstance:
    """Exclude the worst vertex of the extracted independent set (k >= 2)."""
    if inst.k < 2:
        raise GuardViolation("closure independent-set rule needs k >= 2")
    return _exclude_worst_of(inst, iset, "closure:independent-set", trace)


# ---------------------------------------------------------------------------
# Biclique-free rules (degeneracy kernel machinery)
# ---------------------------------------------------------------------------

def bcfree_xi_degree_bound(a: int, b: int, k: int, degeneracy: int | None = None) -> int:
    target = b * k ** (a - 1) + 1
    if degeneracy is not None:
        return (degeneracy + 1) * target
    return ramsey.bcfree_ramsey_bound(a, b, target)


def find_bcfree_XI(
    inst: AnnotatedInstance,
    a: int,
    b: int,
    degeneracy: int | None = None,
    trace: RuleTrace | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """X/I extraction in K_{a,b}-free graphs, mirroring the c-closed one.

    Returns (X, I) with |X| = i <= a-1, |I| >= b*k^(a-i) + 1 and every vertex
    outside X having at most b*k^(a-i-1) neighbors in I; verified.
    """
    k = inst.k
    if a < 2:
        raise GuardViolation("X/I extraction needs a >= 2")
    target = b * k ** (a - 1) + 1
    v, sub, back = _max_degree_neighborhood(inst, bcfree_xi_degree_bound(a, b, k, degeneracy))
    if degeneracy is not None:
        picked = ramsey.degenerate_independent_set(sub, degeneracy, target)
    else:
        picked = ramsey.bcfree_independent_set(sub, a, b, target)
    growth = "growth exceeds a-1; graph contains K_{a,b}"
    return _descend_XI(inst, v, (back[i] for i in picked), a, b, 1, growth, "bcfree_xi", trace)


def rr_bcfree_independent_set(
    inst: AnnotatedInstance, xs: tuple[int, ...], iset: tuple[int, ...], trace: RuleTrace | None = None
) -> AnnotatedInstance:
    """Exclude the worst vertex of the extracted independent set."""
    return _exclude_worst_of(inst, iset, "bc-free:independent-set", trace)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _decided(trace: RuleTrace, inst: AnnotatedInstance, status: str, witness=None) -> KernelOutcome:
    trace.log("pipeline", "decide", tuple(witness) if witness else (), ZERO, status)
    trace.final = summarize(inst)
    return KernelOutcome(status=status, plain=None, witness=None if witness is None else tuple(witness), trace=trace)


def _finish_degrading(inst: AnnotatedInstance, trace: RuleTrace) -> KernelOutcome:
    """Shared tail: satisfactory/needless to a joint fixpoint, counter shift,
    counter audit, the degree-bounded better rule, then de-annotation.

    One round of satisfactory then needless reaches the joint fixpoint, as
    needless exclusions create no satisfactory vertex."""
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    got = rr_include_satisfactory(inst, trace)
    if isinstance(got, tuple):
        status, witness, final = got
        return _decided(trace, final, status, witness)
    inst = rr_exclude_needless(got, trace)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    inst = rr_counter_shift(inst, trace)
    audit_ok = counter_bound_audit(inst)
    trace.audit("counter_bound_ok", audit_ok)
    if not audit_ok:
        raise RuleInternalError("counter bound audit failed after rule fixpoint")
    inst = rr_delta_better(inst, trace)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    deann = deannotate_max(inst) if inst.variant == MAX else deannotate_min(inst)
    return _emit_kernel(trace, inst, deann)


def _emit_kernel(trace: RuleTrace, inst: AnnotatedInstance, deann: Deannotation) -> KernelOutcome:
    trace.final = summarize(inst)
    trace.deann = deann
    trace.audit("kernel_n", deann.plain.graph.n)
    trace.audit("kernel_m", deann.plain.graph.m)
    return KernelOutcome(status=KERNELIZED, plain=deann.plain, witness=None, trace=trace)


def _start(inst: AnnotatedInstance, name: str) -> RuleTrace:
    trace = RuleTrace(pipeline=name)
    trace.initial = summarize(inst)
    return trace


def kernel_delta(inst: AnnotatedInstance, trace: RuleTrace | None = None) -> KernelOutcome:
    """(Delta + k)-polynomial kernel for the degrading cases with alpha > 0."""
    _require_degrading(inst, "pipeline=delta")
    if trace is None:
        trace = _start(inst, "delta")
    return _finish_degrading(inst, trace)


def kernel_closure(inst: AnnotatedInstance, c: int, trace: RuleTrace | None = None) -> KernelOutcome:
    """k^O(c) kernel: trim by the closure better rule and X/I extraction, then delta."""
    _require_degrading(inst, "pipeline=closure")
    if c < 1:
        raise GuardViolation("pipeline=closure requires c >= 1")
    if trace is None:
        trace = _start(inst, "closure")
    trace.audit("closure_c", c)
    while True:
        sc = _shortcircuit(inst)
        if sc is not None:
            return _decided(trace, inst, *sc)
        inst = rr_closure_better(inst, c, trace)
        sc = _shortcircuit(inst)
        if sc is not None:
            return _decided(trace, inst, *sc)
        # for k >= 2 the bound is at least 2^(c-1), above delta_tbar once 2^(c-1) > n_alive: left unbuilt
        if 2 <= c <= inst.n_alive.bit_length() and inst.k >= 2 and inst.delta_tbar() >= closure_xi_degree_bound(c, inst.k):
            xs, iset = find_closure_XI(inst, c, trace)
            inst = rr_closure_independent_set(inst, xs, iset, trace)
            continue
        break
    trace.audit("closure_delta_tbar", inst.delta_tbar())
    return _finish_degrading(inst, trace)


def kernel_degeneracy_max(inst: AnnotatedInstance, d: int, trace: RuleTrace | None = None) -> KernelOutcome:
    """k^O(d) kernel for degrading Max via the biclique-free extraction."""
    if inst.variant != MAX:
        raise GuardViolation("pipeline=degeneracy (max) requires the maximization variant")
    _require_degrading(inst, "pipeline=degeneracy")
    if d < 0:
        raise GuardViolation("degeneracy must be >= 0")
    if trace is None:
        trace = _start(inst, "degeneracy-max")
    a = b = d + 1
    while d >= 1:
        sc = _shortcircuit(inst)
        if sc is not None:
            return _decided(trace, inst, *sc)
        # for k >= 2 the bound is at least 2^d, above delta_tbar once 2^d > n_alive: left unbuilt
        if (inst.k >= 2 and d >= inst.n_alive.bit_length()) or inst.delta_tbar() < bcfree_xi_degree_bound(a, b, inst.k, d):
            break
        xs, iset = find_bcfree_XI(inst, a, b, degeneracy=d, trace=trace)
        inst = rr_bcfree_independent_set(inst, xs, iset, trace)
    trace.audit("bcfree_delta_tbar", inst.delta_tbar())
    return _finish_degrading(inst, trace)


def kernel_degeneracy_min(inst: AnnotatedInstance, d: int, trace: RuleTrace | None = None) -> KernelOutcome:
    """(d + k)-polynomial kernel for Min with alpha < 1/3 (alpha = 0 included)."""
    if inst.variant != MIN:
        raise GuardViolation("pipeline=degeneracy (min) requires the minimization variant")
    if inst.alpha >= THIRD:
        raise GuardViolation(f"pipeline=degeneracy (min) needs alpha<1/3, got {inst.alpha}")
    if trace is None:
        trace = _start(inst, "degeneracy-min")
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)

    if inst.tmask == 0 and inst.t >= d * inst.k:
        witness = _degeneracy_prefix(inst, inst.k)
        if inst.val(witness) <= inst.t:
            trace.audit("min_trivial", f"t={inst.t} dk={d * inst.k}")
            return _decided(trace, inst, DECIDED_YES, witness)

    if inst.alpha == 0:
        if inst.tmask != 0 or any(inst.weights[v] for v in iter_mask(inst.alive)):
            raise GuardViolation("alpha=0 minimization pipeline needs a plain instance (empty T, zero counters)")
        if inst.t < 0:
            return _decided(trace, inst, DECIDED_NO)
        if inst.n_alive >= (d + 1) * inst.k:
            sub, back = inst.graph.induced(inst.alive_vertices())
            picked = ramsey.degenerate_independent_set(sub, d, inst.k)
            witness = tuple(sorted(back[i] for i in picked))
            if inst.val(witness) > inst.t:
                raise RuleInternalError("independent-set witness has positive value")
            return _decided(trace, inst, DECIDED_YES, witness)
        return _emit_kernel(trace, inst, deannotate_identity(inst))

    got = _exclude_high_degplus(inst, trace)
    if isinstance(got, tuple):
        status, witness, final = got
        return _decided(trace, final, status, witness)
    inst = got
    inst = rr_delta_better(inst, trace)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    return _emit_kernel(trace, inst, deannotate_min(inst))


def _exclude_high_degplus(inst: AnnotatedInstance, trace: RuleTrace):
    """For Min with alpha in (0, 1/3): vertices of deg-bonus >= t + k are in
    no solution.  Returns the instance, or a ``(status, witness, instance)``
    triple once a decision is forced.

    Exclusions leave free deg-bonuses alone and can only lower t, so the
    scan restarts from the lowest index only when t drops.  With Min scores
    negated, deg-bonus >= t + k reads -score >= score_needed(-(t + k)).
    """
    free = inst.free_vertices()
    bar = inst.score_needed(-(inst.t + inst.k))
    i = 0
    while i < len(free):
        v = free[i]
        i += 1
        if not (inst.alive >> v) & 1 or -inst.score_deg_bonus(v) < bar:
            continue
        before = inst.t
        inst = _step(inst, "exclude", v, "min:high-degplus", "t+k bound", trace)
        sc = _shortcircuit(inst)
        if sc is not None:
            return sc + (inst,)
        if inst.t != before:
            i = 0
            bar = inst.score_needed(-(inst.t + inst.k))
    return inst


def _degeneracy_prefix(inst: AnnotatedInstance, k: int) -> tuple[int, ...]:
    sub, back = inst.graph.induced(inst.alive_vertices())
    order, _ = degeneracy_ordering(sub)
    return tuple(sorted(back[i] for i in order[:k]))


def _margin_trim_counters(inst: AnnotatedInstance, trace: RuleTrace):
    """Bound the counters via strictly-better exchanges.

    Exclude u once k-|T| vertices are strictly better than it; include u once
    all but at most k-|T|-1 others are strictly worse.  Interleaved with the
    counter shift this caps every bonus near the zero-counter degree level.

    None of the three moves changes the deg-bonus order of the remaining free
    vertices, so they are ranked once.  Exclusion counts only fall while k'
    stays, so one scan in index order finds every exclusion.  No exclusion
    follows an include of v: a vertex w that v does not strictly beat is
    among the at most k'-1 vertices not strictly worse than v, and so are
    all vertices strictly better than w, which leaves w below the new k'.
    """
    margin = inst.score_margin()
    rank = _Ranking(inst, wrt_t=False)
    free = inst.free_vertices()
    i = 0
    while True:
        sc = _shortcircuit(rank.inst)
        if sc is not None:
            return sc + (rank.inst,)
        rank.inst = rr_counter_shift(rank.inst, trace)
        slots = rank.inst.k_prime
        target = None
        while target is None and i < len(free):
            v = free[i]
            i += 1
            # w strictly better than v: score(w) >= score(v) + margin
            if v in rank.score and rank.at_least(v, margin) >= slots:
                target = v
        if target is not None:
            trace.log("hindex:counter-trim", "exclude", (target,), rank.exclude(target), "dominated")
            continue
        for v in free:
            # w not strictly worse than v: score(w) > score(v) - margin
            if v in rank.score and rank.above(v, margin) <= slots - 1:
                trace.log("hindex:counter-trim", "include", (v,), rank.include(v), "dominating")
                break
        else:
            return rank.inst


def _vx_window(inst: AnnotatedInstance, base: int) -> tuple[Fraction, int, int]:
    """x = base + |(1-3a)k/a|, the score ``cut`` of alpha*x and |V_x| for the
    h-index and vertex-cover kernels (alpha > 0).  V_x holds the alive
    vertices of deg-bonus >= alpha*x; alpha*x is a whole multiple of 1/scale,
    so that is score >= cut for Max and score <= cut for Min."""
    x = base + abs((1 - 3 * inst.alpha) * inst.k / inst.alpha)
    cut = inst.score_needed(inst.alpha * x)
    vx = sum(1 for v in iter_mask(inst.alive) if inst.sign * (inst.score_deg_bonus(v) - cut) >= 0)
    return x, cut, vx


def _audit_window(inst: AnnotatedInstance, base: int, tag: str, trace: RuleTrace):
    """The V_x window of a Max kernel, audited under ``tag``: the margin and
    cut as scores, and case 1 when at least k vertices lie in V_x."""
    x, cut, vx = _vx_window(inst, base)
    trace.audit(f"{tag}_x", x)
    trace.audit(f"{tag}_vx", vx)
    trace.audit(f"{tag}_case", 1 if vx >= inst.k else 2)
    return inst.score_margin(), cut, vx >= inst.k


def _window_exclude_low(inst: AnnotatedInstance, cutoff: int, tag: str, trace: RuleTrace) -> KernelOutcome:
    """Case 1: every free vertex of deg-bonus below alpha*x - M (score below
    ``cutoff``) can be excluded; then counters are trimmed by exchanges and
    the rest de-annotated."""
    for v in [u for u in inst.free_vertices() if inst.score_deg_bonus(u) < cutoff]:
        inst = _step(inst, "exclude", v, f"{tag}:exclude-low", "below V_x window", trace)
    got = _margin_trim_counters(inst, trace)
    if isinstance(got, tuple):
        status, witness, final = got
        return _decided(trace, final, status, witness)
    sc = _shortcircuit(got)
    if sc is not None:
        return _decided(trace, got, *sc)
    return _emit_kernel(trace, got, deannotate_max(got))


def _window_include_high(inst: AnnotatedInstance, cutoff: int, tag: str, trace: RuleTrace):
    """Case 2: include free vertices of deg-bonus >= alpha*x + M (score at
    least ``cutoff``), lowest index first.  Returns the instance once none is
    left, or the outcome once the cardinality decides."""
    while True:
        sc = _shortcircuit(inst)
        if sc is not None:
            return _decided(trace, inst, *sc)
        target = next((v for v in inst.free_vertices() if inst.score_deg_bonus(v) >= cutoff), None)
        if target is None:
            return inst
        inst = _step(inst, "include", target, f"{tag}:include-high", "above V_{x+M}", trace)


def kernel_hindex_max(inst: AnnotatedInstance, h: int, trace: RuleTrace | None = None) -> KernelOutcome:
    """Two-case h-index kernel for Max with alpha > 0.

    Case 1 (at least k vertices of deg+ >= x): every low-deg+ vertex can be
    excluded, then counters are trimmed by exchanges.  Case 2 (alpha > 1/3):
    all very-high-deg+ vertices join T, then the degree-bounded tail runs.
    """
    if inst.variant != MAX:
        raise GuardViolation("pipeline=hindex requires the maximization variant")
    if inst.alpha == 0:
        raise GuardViolation("pipeline=hindex requires alpha > 0")
    if inst.tmask != 0:
        raise GuardViolation("pipeline=hindex starts from an empty partial solution")
    if trace is None:
        trace = _start(inst, "hindex-max")
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    margin, cut, case1 = _audit_window(inst, h + 1, "hindex", trace)
    if case1:
        return _window_exclude_low(inst, cut - margin, "hindex", trace)
    if not inst.alpha > THIRD:
        raise GuardViolation(
            f"pipeline=hindex case 2 requires alpha>1/3, got {inst.alpha} (fewer than k high-degree vertices)"
        )
    got = _window_include_high(inst, cut + margin, "hindex", trace)
    return got if isinstance(got, KernelOutcome) else _finish_degrading(got, trace)


def kernel_vc_max(inst: AnnotatedInstance, cover: tuple[int, ...], trace: RuleTrace | None = None) -> KernelOutcome:
    """Vertex-cover kernel for Max, all alpha > 0."""
    if inst.variant != MAX:
        raise GuardViolation("pipeline=vc (max) requires the maximization variant")
    if inst.alpha == 0:
        raise GuardViolation("pipeline=vc (max) requires alpha > 0")
    if inst.tmask != 0:
        raise GuardViolation("pipeline=vc starts from an empty partial solution")
    if trace is None:
        trace = _start(inst, "vc-max")
    cover = inst.check_cover(cover)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    margin, cut, case1 = _audit_window(inst, len(cover), "vc", trace)
    if case1:
        return _window_exclude_low(inst, cut - margin, "vc", trace)
    inst = _window_include_high(inst, cut + margin, "vc", trace)
    if isinstance(inst, KernelOutcome):
        return inst
    cset = set(cover)
    # independent-set vertices whose every alive neighbor already sits in T
    fixed = [
        v
        for v in inst.free_vertices()
        if v not in cset and not (inst.graph.masks[v] & inst.alive & ~inst.tmask)
    ]
    if len(fixed) > inst.k:
        ranked = sorted(fixed, key=lambda v: (-inst.score_contribution(v, inst.tmask), v))
        for v in ranked[inst.k:]:
            inst = _step(inst, "exclude", v, "vc:prune-fixed", "fixed contribution", trace)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    return _emit_kernel(trace, inst, deannotate_max(inst))


def kernel_vc_min(inst: AnnotatedInstance, cover: tuple[int, ...], trace: RuleTrace | None = None) -> KernelOutcome:
    """Vertex-cover kernel for Min; alpha = 0 is decided outright when possible."""
    if inst.variant != MIN:
        raise GuardViolation("pipeline=vc (min) requires the minimization variant")
    if inst.tmask != 0:
        raise GuardViolation("pipeline=vc starts from an empty partial solution")
    if trace is None:
        trace = _start(inst, "vc-min")
    cover = inst.check_cover(cover)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    cset = set(cover)
    iset = [v for v in inst.alive_vertices() if v not in cset]

    if inst.alpha == 0:
        if any(inst.weights[v] for v in iter_mask(inst.alive)):
            raise GuardViolation("alpha=0 vc pipeline needs zero counters")
        if inst.t < 0:
            return _decided(trace, inst, DECIDED_NO)
        if len(iset) >= inst.k:
            witness = tuple(sorted(iset)[: inst.k])
            if inst.val(witness) > inst.t:
                raise RuleInternalError("independent witness has positive value")
            return _decided(trace, inst, DECIDED_YES, witness)
        return _emit_kernel(trace, inst, deannotate_identity(inst))

    x, cut, _ = _vx_window(inst, len(cover))
    margin = inst.score_margin()
    trace.audit("vc_x", x)
    # Exclusions keep every free deg-bonus and k', so better-counts only
    # fall and one pass in index order finds every target.
    rank = _Ranking(inst, wrt_t=False)
    for v in inst.free_vertices():
        if inst.score_deg_bonus(v) > cut:  # outside V_x
            continue
        # w better than v: deg_bonus(w) <= deg_bonus(v) - margin
        if rank.at_least(v, margin) < inst.k_prime:
            continue
        trace.log("vc:exclude-vx", "exclude", (v,), rank.exclude(v), "I beats V_x")
        inst = rank.inst
        sc = _shortcircuit(inst)
        if sc is not None:
            return _decided(trace, inst, *sc)
    isolated = [v for v in inst.free_vertices() if inst.degree(v) == 0]
    if len(isolated) > inst.k:
        ranked = sorted(isolated, key=lambda v: (inst.weights[v], v))
        for v in ranked[inst.k:]:
            inst = _step(inst, "exclude", v, "vc:prune-isolated", "fixed contribution", trace)
    sc = _shortcircuit(inst)
    if sc is not None:
        return _decided(trace, inst, *sc)
    return _emit_kernel(trace, inst, deannotate_min(inst))


# ---------------------------------------------------------------------------
# Pipeline selection
# ---------------------------------------------------------------------------

def select_pipeline(inst: AnnotatedInstance, profile: ParameterProfile) -> str:
    """The smallest applicable parameter, ties toward degeneracy; the cover is read only where it can win.

    - degeneracy <= h-index h: a subgraph of min degree h+1 has h+2 vertices of degree >= h+1.
    - h <= |C| for any vertex cover C: with |C| < h, some vertex of degree >= h is outside C.
    - degeneracy <= max degree: no vertex is peeled with more neighbors than it has.
    """
    if inst.variant == MAX:
        if inst.alpha == 0:
            raise GuardViolation("pipeline=auto: no kernelization route for max with alpha=0")
        if inst.alpha > THIRD:
            return "closure" if profile.c_closure < profile.degeneracy else "degeneracy"
        # 0 < alpha <= 1/3: only the h-index case-1 route or the vc route apply
        _, _, vx = _vx_window(inst, profile.h_index + 1)
        if vx >= inst.k:
            return "hindex"
        if profile.vc is not None:
            return "vc"
        raise GuardViolation(
            "pipeline=auto: max with alpha<=1/3 needs the h-index case or an exact vertex cover"
        )
    if inst.alpha < THIRD:
        return "degeneracy"
    if profile.vc is None:
        raise GuardViolation("pipeline=auto: min with alpha>=1/3 needs an exact vertex cover")
    return "vc"


def alive_profile(inst: AnnotatedInstance) -> ParameterProfile:
    """Profile of the alive part of ``inst`` in its own indices; dead vertices
    stay as isolated ones, which change no parameter and join no cover."""
    alive = inst.alive
    return compute_profile(Graph.from_masks([
        mask & alive if (alive >> v) & 1 else 0 for v, mask in enumerate(inst.graph.masks)
    ]))


def run_pipeline(inst: AnnotatedInstance, name: str, profile=None, param_override: int | None = None) -> KernelOutcome:
    """Run one named pipeline; parameters come from the profile unless overridden."""
    if profile is None:
        profile = alive_profile(inst)
    if name == "auto":
        name = select_pipeline(inst, profile)
    if name == "delta":
        return kernel_delta(inst)
    if name == "closure":
        c = param_override if param_override is not None else profile.c_closure
        return kernel_closure(inst, c)
    if name == "degeneracy":
        d = param_override if param_override is not None else profile.degeneracy
        if inst.variant == MAX:
            return kernel_degeneracy_max(inst, d)
        return kernel_degeneracy_min(inst, d)
    if name == "hindex":
        h = param_override if param_override is not None else profile.h_index
        return kernel_hindex_max(inst, h)
    if name == "vc":
        if profile.vertex_cover is None:
            raise GuardViolation("pipeline=vc requires an exact vertex cover (within the vc budget)")
        if inst.variant == MAX:
            return kernel_vc_max(inst, profile.vertex_cover)
        return kernel_vc_min(inst, profile.vertex_cover)
    raise GuardViolation(f"unknown pipeline {name!r}")


PIPELINES = ("auto", "delta", "closure", "degeneracy", "hindex", "vc")
