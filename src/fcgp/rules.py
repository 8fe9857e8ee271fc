"""Reduction-rule catalog and the kernelization pipelines composing them.

Every rule is an answer-preserving transformation of an annotated instance,
applied in place to the pipeline run's one working state (:class:`_State`);
pipelines string them together, short-circuit to a decision whenever
|T| = k or fewer than k vertices remain, and finish by removing the
annotations.  :data:`ROUTES` holds the pipelines by name.  Every run ends
in :func:`_pipeline`, which makes the checks due before the first move: a
decision leaves the rules as :class:`_Decided`, a kernel de-annotates the
run's final instance, and the outcome carries that instance.  Each move is
logged in a :class:`RuleTrace`.

Tie-breaking is smallest vertex index everywhere, so identical inputs give
identical traces.
Every bar is an integer score; a run builds rationals only for its output.
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

from . import ramsey
from .graph import Graph, ParameterProfile, RuleInternalError, compute_profile, degeneracy_ordering, iter_mask, mask_of
from .instance import (
    MAX,
    MIN,
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


class TraceEntry(NamedTuple):
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


def summarize(st: _State) -> InstanceSummary:
    # inst.gamma(), or None outside standard-counter mode, read off the free
    # weights (T and deleted vertices have weight 0) without iterating the
    # n-bit alive mask
    a = st.alpha_weight
    weights = [w for w in map(st.weights.__getitem__, st.free) if w]
    if not weights:
        gamma = 1
    elif not a or any(w % a for w in weights):
        gamma = None
    else:
        gamma = max(weights) // a + 1
    return InstanceSummary(
        n=st.n_alive, m=sum(compress(st.deg, st.where)) // 2, k=st.k, t=st.t, gamma=gamma, delta_tbar=st.delta_tbar()
    )


@dataclass
class RuleTrace:
    """Ordered log of rule applications."""

    pipeline: str
    initial: InstanceSummary | None = None
    final: InstanceSummary | None = None
    entries: list[TraceEntry] = field(default_factory=list)
    audits: dict[str, str] = field(default_factory=dict)
    deann: Deannotation | None = None

    def log(self, rule: str, op: str, verts: tuple[int, ...], dt: Fraction, note: str = "") -> None:
        self.entries.append(TraceEntry(rule, op, verts, dt, note))

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


@dataclass(frozen=True)
class KernelOutcome:
    status: str  # kernelized | decided_yes | decided_no
    plain: AnnotatedInstance | None  # when kernelized: the plain instance (T empty, zero bonuses) to decide
    witness: tuple[int, ...] | None
    trace: RuleTrace
    final: AnnotatedInstance  # the instance the run's moves lead to; kernels lift against it


# The checks a run makes before its first move, in the order its pipeline
# lists them: alpha on the degrading side of 1/3, alpha > 0, T empty, and a
# vertex cover given.  A kernel for one variant checks the variant first.
DEGRADING, POSITIVE, EMPTY_T, COVER = "degrading", "alpha>0", "empty T", "cover"


def _require(label: str, checks: tuple[str, ...], inst: AnnotatedInstance, param=None, variant=None) -> None:
    """Raise :class:`GuardViolation`, naming ``label``, at the first of the
    checks that ``inst`` (and, for COVER, the parameter) fails."""
    if variant is not None and inst.variant != variant:
        raise GuardViolation(f"{label} requires the {'maximization' if variant == MAX else 'minimization'} variant")
    for check in checks:
        if check == DEGRADING and not inst.degrading:
            if variant == MIN:  # the Min degeneracy kernel's wording
                raise GuardViolation(f"{label} (min) needs alpha<1/3, got {inst.alpha}")
            bar = "max needs alpha>1/3" if inst.variant == MAX else "min needs alpha<1/3"
            raise GuardViolation(f"{label} requires degrading variant: {bar}, got {inst.alpha}")
        if check == POSITIVE and not inst.alpha_weight:
            raise GuardViolation(f"{label} requires alpha > 0")
        if check == EMPTY_T and inst.tmask:
            raise GuardViolation(f"{label} starts from an empty partial solution")
        if check == COVER and param is None:
            raise GuardViolation(f"{label} requires an exact vertex cover (within the vc budget)")


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


class _Decided(Exception):
    """A decision reached inside the rules, on its way to the one exit in
    :func:`_pipeline`; the witness is a tuple for YES, else None."""

    def __init__(self, status: str, witness: tuple[int, ...] | None = None):
        super().__init__(status)
        self.status, self.witness = status, witness


# ---------------------------------------------------------------------------
# The working state the rule loops run on
# ---------------------------------------------------------------------------

FREE, IN_T = 1, 2  # ``_State.where`` codes; 0 marks a deleted vertex
_READ_BITS = bytes.maketrans(b"01", b"\x00\x01")
_ALIVE_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"011")


class _State:
    """The mutable working copy of an annotated instance that every rule of
    one pipeline run applies its moves to.

    ``where[v]`` is 0 (deleted), FREE or IN_T; ``free`` lists the vertices
    free at the start, so readers filter it on ``where``; ``weights`` is a
    list; ``deg[v]`` and ``tnb[v]`` count v's alive neighbors and its
    neighbors in T (read for alive v only); ``hist`` is the histogram of
    free degrees, so Delta_Tbar only moves down a pointer; ``zeros`` counts
    the free vertices of weight 0.  An exclusion updates these along
    ``graph.adj`` in O(deg) steps; a new instance per move would copy n
    weights and scan n-bit masks.  :meth:`freeze` turns the state back into
    an instance.

    After :meth:`rank` the free vertices are also ranked by score, the
    contribution w.r.t. T (``wrt_t``) or the deg-bonus, until the ranking
    rule drops them (``score = None``).  Excluding u changes neither for any
    other free vertex (a neighbor loses a degree and gains alpha of bonus; a
    T-neighbor's credit goes into t), nor t'.  Including u leaves every
    deg-bonus alone; contribution ranks are not kept under inclusion.  A
    counter shift lowers every free deg-bonus by the same amount and is not
    applied to the ranks, so they stay exact up to one common offset.
    """

    def __init__(self, inst: AnnotatedInstance):
        graph = inst.graph
        n = graph.n
        self.inst, self.adj = inst, graph.adj
        self.k, self.t, self.tmask, self.scale = inst.k, inst.t, inst.tmask, inst.scale
        self.sign, self.alpha_weight, self.pair_score = inst.sign, inst.alpha_weight, inst.pair_score
        adj = self.adj
        self.deg = deg = list(map(len, adj))
        self.n_alive = inst.n_alive
        if self.n_alive == n:
            self.where = where = bytearray(b"\x01") * n
        else:
            self.where = where = bytearray(f"{inst.alive:0{n}b}"[::-1], "ascii").translate(_READ_BITS)
            v = where.find(0)
            while v >= 0:
                for u in adj[v]:
                    deg[u] -= 1
                v = where.find(0, v + 1)
        self.free = free = list(compress(range(n), where))
        self.tnb = tnb = [0] * n
        self.t_size = 0
        if self.tmask:
            for v in iter_mask(self.tmask):
                where[v] = IN_T
                self.t_size += 1
                for u in adj[v]:
                    tnb[u] += 1
            self.free = free = [v for v in free if where[v] == FREE]
        self.weights = weights = list(inst.weights)
        self.zeros = list(map(weights.__getitem__, free)).count(0)
        degs = list(map(deg.__getitem__, free))
        self.top = max(degs, default=0)
        self.hist = hist = [0] * (self.top + 1)
        for d in degs:
            hist[d] += 1
        self.score: dict[int, int] | None = None
        self.moves = 0

    # -- reads, as on the instance ----------------------------------------

    @property
    def k_prime(self) -> int:
        return self.k - self.t_size

    def score_deg_bonus(self, v: int) -> int:
        return self.sign * (self.alpha_weight * self.deg[v] + self.weights[v])

    def score_contribution(self, v: int) -> int:
        """The score of v's contribution w.r.t. T."""
        return self.score_deg_bonus(v) + self.pair_score * self.tnb[v]

    def bar(self, needless: bool = False) -> int:
        """The least contribution score that meets t'/k' + (3a-1)(k-1), or
        t'/k' - (3a-1)(k-1)^2 if ``needless`` (t' = t - val(T), k' > 0): with
        t = P/Q, ceil((sign*P*s - score(T)*Q) / (Q*k') - pair_score * steps)."""
        ts = list(iter_mask(self.tmask))
        score_t = self.sign * self.alpha_weight * sum(map(self.deg.__getitem__, ts))
        score_t += self.pair_score * (sum(map(self.tnb.__getitem__, ts)) // 2)  # tnb counts inner edges twice
        steps = -(self.k - 1) ** 2 if needless else self.k - 1
        q = self.t.denominator
        qk = q * self.k_prime
        return -((score_t * q + self.pair_score * steps * qk - self.sign * self.t.numerator * self.scale) // qk)

    def delta_tbar(self) -> int:
        while self.top > 0 and not self.hist[self.top]:
            self.top -= 1
        return self.top

    def alive_vertices(self):
        """The alive vertices, T included, in index order, as on the instance."""
        return compress(range(len(self.where)), self.where)

    def settle(self) -> None:
        """Raise :class:`_Decided` when ``_shortcircuit`` decides the current
        instance; it is frozen only when the forced set is scored."""
        if self.n_alive > self.k > self.t_size and not (self.sign < 0 and self.t.numerator < 0):
            return
        sc = _shortcircuit(self.freeze())
        if sc is not None:
            raise _Decided(*sc)

    def freeze(self) -> AnnotatedInstance:
        """The instance the moves so far lead to (the start one if none)."""
        if not self.moves:
            return self.inst
        alive = int(self.where.translate(_ALIVE_DIGITS)[::-1], 2)
        return self.inst._derive(alive=alive, tmask=self.tmask, weights=tuple(self.weights), t=self.t)

    # -- ranking -------------------------------------------------------------

    def rank(self, wrt_t: bool) -> None:
        sign, a, deg, weights, where = self.sign, self.alpha_weight, self.deg, self.weights, self.where
        self.score = score = {v: sign * (a * deg[v] + weights[v]) for v in self.free if where[v] == FREE}
        if wrt_t:
            pair, tnb = self.pair_score, self.tnb
            for v in score:
                score[v] += pair * tnb[v]
        self.ranked = sorted(score.values())

    def at_least(self, v: int, margin: int = 0) -> int:
        """Free vertices other than v scoring >= score(v) + margin (margin >= 0)."""
        return len(self.ranked) - bisect_left(self.ranked, self.score[v] + margin) - (margin == 0)

    def above(self, v: int, margin: int) -> int:
        """Free vertices other than v scoring > score(v) - margin (margin >= 0)."""
        return len(self.ranked) - bisect_right(self.ranked, self.score[v] - margin) - (margin > 0)

    # -- moves: each returns the change of t ---------------------------------

    def _leave_free(self, v: int, in_t: str) -> None:
        if self.where[v] != FREE:
            raise GuardViolation(f"vertex {v} {in_t if self.where[v] else 'is deleted'}")
        self.hist[self.deg[v]] -= 1
        if not self.weights[v]:
            self.zeros -= 1
        if self.score is not None:
            del self.ranked[bisect_left(self.ranked, self.score.pop(v))]
        self.moves += 1

    def exclude(self, v: int) -> Fraction:
        """Delete v; each free neighbor gains bonus alpha, each T-neighbor's
        credit alpha goes into t."""
        self._leave_free(v, "is in T")
        where, deg, weights, hist = self.where, self.deg, self.weights, self.hist
        a = self.alpha_weight
        where[v] = 0
        weights[v] = 0
        self.n_alive -= 1
        for u in self.adj[v]:
            state = where[u]
            if state == FREE:
                d = deg[u]
                hist[d] -= 1
                hist[d - 1] += 1
                deg[u] = d - 1
                w = weights[u]
                if a and not w:
                    self.zeros -= 1
                weights[u] = w + a
            elif state:
                deg[u] -= 1
        if not self.tnb[v]:
            return ZERO
        dt = Fraction(-self.alpha_weight * self.tnb[v], self.scale)
        self.t += dt
        return dt

    def include(self, v: int) -> Fraction:
        """Force v into T; its bonus is folded into t."""
        self._leave_free(v, "already in T")
        self.where[v] = IN_T
        self.tmask |= 1 << v
        self.t_size += 1
        for u in self.adj[v]:
            self.tnb[u] += 1
        w, self.weights[v] = self.weights[v], 0
        if not w:
            return ZERO
        dt = Fraction(-w, self.scale)
        self.t += dt
        return dt

    def shift(self, w: int) -> Fraction:
        """Lower every free weight by ``w`` >= 0, at most the least free
        weight; t drops by w * k' / scale."""
        if w < 0:
            raise GuardViolation(f"shift weight {w} is negative")
        weights, where = self.weights, self.where
        free = [v for v in self.free if where[v] == FREE]
        if any(weights[v] < w for v in free):
            raise GuardViolation("a free bonus lies below the shift amount")
        for v in free:
            weights[v] -= w
        self.zeros = sum(1 for v in free if not weights[v])
        self.moves += 1
        dt = Fraction(-w * self.k_prime, self.scale)
        self.t += dt
        return dt


def _move(st: _State, op: str, v: int, rule: str, note: str, trace: RuleTrace | None) -> Fraction:
    """Include or exclude v on the state, logged with its change of t when traced."""
    dt = st.include(v) if op == "include" else st.exclude(v)
    if trace is not None:
        trace.log(rule, op, (v,), dt, note)
    return dt


# ---------------------------------------------------------------------------
# Degree-bounded rules (maximum-degree kernel machinery)
# ---------------------------------------------------------------------------

def rr_delta_better(st: _State, trace: RuleTrace | None = None) -> None:
    """Exclude any vertex dominated by (Delta_Tbar+1)(k-1)+1 better vertices.

    "Better" is contribution w.r.t. T in the variant's direction; ties count,
    the vertex itself does not.  Exclusions change no other contribution, so
    contributions are ranked once and better-counts and the bound only fall:
    the lowest qualifying index is found by one scan in index order, which
    restarts only when the bound drops (at most Delta_Tbar times).
    """
    _require("rr_delta_better", (DEGRADING, POSITIVE), st.inst)
    st.rank(wrt_t=True)
    free, where = st.free, st.where
    bound = (st.delta_tbar() + 1) * (st.k - 1) + 1
    i = 0
    while i < len(free):
        v = free[i]
        i += 1
        if where[v] != FREE:
            continue
        better = st.at_least(v)
        if better < bound:
            continue
        _move(st, "exclude", v, "delta:better", f"better={better} bound={bound}", trace)
        lowered = (st.delta_tbar() + 1) * (st.k - 1) + 1
        if lowered < bound:
            bound, i = lowered, 0
    if trace is not None:
        trace.audit("delta_better_free", len(st.score))
        trace.audit("delta_better_bound", bound)
    st.score = None


def _satisfactory(st: _State) -> int | None:
    """The lowest free vertex whose contribution clears t'/k' + (3a-1)(k-1)."""
    need = st.bar()
    where = st.where
    return next((v for v in st.free if where[v] == FREE and st.score_contribution(v) >= need), None)


def rr_include_satisfactory(st: _State, trace: RuleTrace | None = None) -> None:
    """Repeatedly include vertices whose contribution clears t'/k' by the
    (3a-1)(k-1) margin; settles once |T| reaches k (or too few vertices
    remain).
    """
    _require("rr_include_satisfactory", (DEGRADING, POSITIVE), st.inst)
    while True:
        st.settle()
        v = _satisfactory(st)
        if v is None:
            return
        _move(st, "include", v, "general:include-high", "satisfactory", trace)


def rr_exclude_needless(st: _State, trace: RuleTrace | None = None) -> None:
    """Exclude vertices far below t'/k' (above, for Min).

    Must start at the satisfactory fixpoint.  An exclusion changes neither
    t' nor any other contribution, so the threshold and the targets are
    fixed: one pass in index order, stopping once fewer than k vertices
    remain.  No exclusion can create a satisfactory vertex; that is checked.
    """
    _require("rr_exclude_needless", (DEGRADING, POSITIVE), st.inst)
    k_prime = st.k_prime
    if k_prime <= 0:
        return
    where = st.where
    contrib = {v: st.score_contribution(v) for v in st.free if where[v] == FREE}
    satisfactory = st.bar()
    if any(c >= satisfactory for c in contrib.values()):
        raise GuardViolation("rr_exclude_needless requires the satisfactory-rule fixpoint")
    need = st.bar(needless=True)
    for v, c in contrib.items():
        if st.n_alive < st.k:
            break
        if c >= need:
            continue
        _move(st, "exclude", v, "general:exclude-low", "needless", trace)
    if _satisfactory(st) is not None:
        raise RuleInternalError("a needless exclusion created a satisfactory vertex")


def rr_counter_shift(st: _State, trace: RuleTrace | None = None) -> None:
    """Lower all non-T bonuses by their minimum so some counter reaches zero;
    nothing while a free counter is zero."""
    if st.zeros or st.n_alive == st.t_size:
        return
    weights, where = st.weights, st.where
    w = min(weights[v] for v in st.free if where[v] == FREE)
    dt = st.shift(w)
    if trace is not None:
        trace.log("general:no-zero-counter", "shift", (), dt, f"amount={Fraction(w, st.scale)}")


def counter_bound_audit(st: _State) -> bool:
    """Explicit counter bound after the include/exclude/shift fixpoint:

    bonus(v) <= alpha*deg(u) + |3a-1| * (k(k-1) + k) for a zero-bonus vertex
    u outside T (the minimum-degree one gives the strongest check).
    """
    weights, where = st.weights, st.where
    free = [v for v in st.free if where[v] == FREE]
    if not free:
        return True
    zero = [v for v in free if not weights[v]]
    if not zero:
        return False
    deg_u = min(st.deg[u] for u in zero)
    # as weights: |3a-1| * (k(k-1) + k) is the score margin |(1-3a)k| times k
    cap = st.alpha_weight * deg_u + st.inst.score_margin() * st.k
    return all(weights[v] <= cap for v in free)


# ---------------------------------------------------------------------------
# c-closure rules
# ---------------------------------------------------------------------------

def _closure_better_threshold(c: int, k: int) -> int:
    # (c-1)(k-1) suffices for the exchange argument for c >= 2 and also kills
    # cliques of (c-1)k+1 vertices; for c = 1 the sound threshold is k-1.
    return max(k - 1, (c - 1) * (k - 1))


def rr_closure_better(st: _State, c: int, trace: RuleTrace | None = None) -> None:
    """Exclude v once too many of its neighbors are better (w.r.t. the empty set).

    x_v counts the alive neighbors, T included, whose deg-bonus is at least
    as good as v's.  Excluding w leaves every free deg-bonus alone and
    lowers each T-neighbor's by alpha, so x is recounted only on N(w) and on
    the neighborhoods of w's T-neighbors; a heap yields the lowest
    qualifying index.
    """
    _require("rr_closure_better", (DEGRADING,), st.inst)
    if c < 1:
        raise GuardViolation("c must be >= 1")
    thr = _closure_better_threshold(c, st.k)
    adj, where, score = st.adj, st.where, st.score_deg_bonus

    def count(v: int) -> int:
        mine = score(v)
        return sum(1 for u in adj[v] if where[u] and score(u) >= mine)

    x = {v: count(v) for v in st.free if where[v] == FREE}
    heap = [v for v, xv in x.items() if xv > thr]
    while heap:
        v = heapq.heappop(heap)
        if x.get(v, thr) <= thr:
            continue
        touched = adj[v]
        if st.tnb[v]:
            touched = set(touched)
            for u in adj[v]:
                if where[u] == IN_T:
                    touched.update(adj[u])
        x_v = x.pop(v)
        _move(st, "exclude", v, "closure:better", f"xv={x_v} thr={thr}", trace)
        for u in touched:
            if where[u] == FREE:
                x[u] = count(u)
                if x[u] > thr:
                    heapq.heappush(heap, u)


def closure_xi_degree_bound(c: int, k: int) -> int:
    """Degree threshold at which the X/I extraction is guaranteed to work."""
    return ramsey.rc_bound((c - 1) * k + 1, (k + 1) * k ** (c - 1), c)


def _max_degree_neighborhood(st: _State, need: int):
    """The free vertex v of largest degree (lowest index on ties) and the
    graph induced by its alive neighbors, with the map back; v needs degree
    >= ``need``."""
    top, where = st.delta_tbar(), st.where
    v = next((u for u in st.free if where[u] == FREE and st.deg[u] == top), None)
    if v is None or top < need:
        raise ExtractionPreconditionError(f"no free vertex of degree >= {need}")
    sub, back = st.inst.graph.induced(u for u in st.adj[v] if where[u])
    return v, sub, back


def _descend_XI(
    st: _State, v: int, start, depth: int, base: int, slack: int, growth_error: str, audit_key: str,
    trace: RuleTrace | None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Common-neighborhood descent shared by the c-closed (depth c, base k+1,
    slack 0) and the K_{a,b}-free (depth a, base b, slack 1) extractions.

    Starts from X = {v} and I = ``start``, an independent set inside N(v).  While some
    vertex outside X sees more than tau = base*k^(depth-i-1) of I, i = |X|, the
    lowest-indexed one joins X and I shrinks to its neighbors; a growth past
    depth-1 disproves the structural precondition.  Such a vertex lies in
    N(I), so only N(I) is counted, along ``adj``.  The result has
    |I| >= base*k^(depth-i) + slack, every vertex outside X seeing at most
    tau of I, I independent and inside the common neighborhood of X; all
    four are verified.
    """
    k, adj, where, masks = st.k, st.adj, st.where, st.inst.graph.masks
    xs = [v]
    imask = mask_of(start)
    while True:
        tau = base * k ** (depth - len(xs) - 1)
        seen = Counter(u for i in iter_mask(imask) for u in adj[i] if where[u])
        cand = min((u for u, hits in seen.items() if hits > tau and u not in xs), default=None)
        if cand is None:
            break
        if len(xs) == depth - 1:
            raise ExtractionPreconditionError(growth_error)
        xs.append(cand)
        imask &= masks[cand]
    i = len(xs)
    if imask.bit_count() < base * k ** (depth - i) + slack:
        raise RuleInternalError("extracted I below its size property")
    if any((masks[u] & imask).bit_count() > tau for u in seen if u not in xs):
        raise RuleInternalError("a vertex outside X sees too much of I")
    iset = tuple(iter_mask(imask))
    if not st.inst.graph.is_independent_set(iset):
        raise RuleInternalError("extracted I is not independent")
    if any(imask & ~masks[x] for x in xs):
        raise RuleInternalError("I is not in the common neighborhood of X")
    if trace is not None:
        trace.audit(audit_key, f"x={i} i={len(iset)}")
    return tuple(xs), iset


def _exclude_worst_of(st: _State, iset: tuple[int, ...], rule: str, trace: RuleTrace | None) -> None:
    """Exclude the vertex of I outside T that every other one is better than:
    min deg-bonus for Max, max for Min, lowest index on ties."""
    candidates = [v for v in iset if st.where[v] != IN_T]
    if not candidates:
        raise GuardViolation("independent set lies inside T")
    v = min(candidates, key=lambda u: (st.score_deg_bonus(u), u))
    _move(st, "exclude", v, rule, f"|I|={len(iset)}", trace)


def find_closure_XI(st: _State, c: int, trace: RuleTrace | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy common-neighborhood descent around a max-degree vertex.

    Returns (X, I) with I an independent set inside the common neighborhood
    of X, |I| >= (k+1)k^(c-i) for i = |X| <= c-1, and every vertex outside X
    having at most (k+1)k^(c-i-1) neighbors in I.  Both properties are
    verified before returning.
    """
    k = st.k
    if c < 2:
        raise GuardViolation("X/I extraction needs c >= 2")
    if k < 1:
        raise GuardViolation("X/I extraction needs k >= 1")
    v, sub, back = _max_degree_neighborhood(st, closure_xi_degree_bound(c, k))
    witness = ramsey.cclosed_ramsey(sub, (c - 1) * k + 1, (k + 1) * k ** (c - 1), c)
    if witness.kind == ramsey.CLIQUE:
        raise ExtractionPreconditionError(
            f"clique of size {(c - 1) * k + 1} in a neighborhood; closure-better rule not at fixpoint"
        )
    growth = "common-neighborhood growth exceeds c-1; graph not c-closed for this c"
    return _descend_XI(st, v, (back[i] for i in witness.vertices), c, k + 1, 0, growth, "closure_xi", trace)


def rr_closure_independent_set(
    st: _State, xs: tuple[int, ...], iset: tuple[int, ...], trace: RuleTrace | None = None
) -> None:
    """Exclude the worst vertex of the extracted independent set (k >= 2)."""
    if st.k < 2:
        raise GuardViolation("closure independent-set rule needs k >= 2")
    _exclude_worst_of(st, iset, "closure:independent-set", trace)


# ---------------------------------------------------------------------------
# Biclique-free rules (degeneracy kernel machinery)
# ---------------------------------------------------------------------------

def bcfree_xi_degree_bound(a: int, b: int, k: int, degeneracy: int | None = None) -> int:
    target = b * k ** (a - 1) + 1
    if degeneracy is not None:
        return (degeneracy + 1) * target
    return ramsey.bcfree_ramsey_bound(a, b, target)


def find_bcfree_XI(
    st: _State, a: int, b: int, degeneracy: int | None = None, trace: RuleTrace | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """X/I extraction in K_{a,b}-free graphs, mirroring the c-closed one.

    Returns (X, I) with |X| = i <= a-1, |I| >= b*k^(a-i) + 1 and every vertex
    outside X having at most b*k^(a-i-1) neighbors in I; verified.
    """
    k = st.k
    if a < 2:
        raise GuardViolation("X/I extraction needs a >= 2")
    target = b * k ** (a - 1) + 1
    v, sub, back = _max_degree_neighborhood(st, bcfree_xi_degree_bound(a, b, k, degeneracy))
    if degeneracy is not None:
        picked = ramsey.degenerate_independent_set(sub, degeneracy, target)
    else:
        picked = ramsey.bcfree_independent_set(sub, a, b, target)
    growth = "growth exceeds a-1; graph contains K_{a,b}"
    return _descend_XI(st, v, (back[i] for i in picked), a, b, 1, growth, "bcfree_xi", trace)


def rr_bcfree_independent_set(
    st: _State, xs: tuple[int, ...], iset: tuple[int, ...], trace: RuleTrace | None = None
) -> None:
    """Exclude the worst vertex of the extracted independent set."""
    _exclude_worst_of(st, iset, "bc-free:independent-set", trace)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _pipeline(name: str, *checks: str, variant: str | None = None, least: int | None = None):
    """Turn a kernel body ``body(st, trace, *param)`` into ``kernel(inst,
    *param) -> KernelOutcome`` for pipeline ``name``, on one ``variant`` if
    given; every run ends here.

    First the kernel makes the checks that must pass before the first move:
    the variant, ``checks`` in order, a parameter of at least ``least``, and
    for COVER that the cover covers the alive graph.  A refusal raises
    :class:`GuardViolation` before the run's one working state and its trace
    are built.  A decision the body raises as :class:`_Decided` leaves here,
    and otherwise the state is settled, frozen once and de-annotated:
    identity for alpha = 0, else by variant."""
    label = f"pipeline={name}"
    if variant is not None:
        name = f"{name}-{variant}"

    def wrap(body):
        @functools.wraps(body)
        def kernel(inst: AnnotatedInstance, *param) -> KernelOutcome:
            _require(label, checks, inst, *param, variant=variant)
            if least is not None and param[0] < least:
                raise GuardViolation(f"{label} needs a parameter >= {least}, got {param[0]}")
            if COVER in checks:
                param = (inst.check_cover(*param),)
            st = _State(inst)
            trace = RuleTrace(pipeline=name, initial=summarize(st))
            try:
                body(st, trace, *param)
                st.settle()
            except _Decided as got:
                trace.log("pipeline", "decide", got.witness or (), ZERO, got.status)
                trace.final = summarize(st)
                return KernelOutcome(got.status, None, got.witness, trace, st.freeze())
            trace.final = summarize(st)
            final = st.freeze()
            gadget = deannotate_max if final.variant == MAX else deannotate_min
            trace.deann = deann = gadget(final) if final.alpha_weight else deannotate_identity(final)
            trace.audit("kernel_n", deann.plain.graph.n)
            trace.audit("kernel_m", deann.plain.graph.m)
            return KernelOutcome(KERNELIZED, deann.plain, None, trace, final)

        return kernel

    return wrap


def _finish_degrading(st: _State, trace: RuleTrace) -> None:
    """Shared tail: satisfactory/needless to a joint fixpoint, counter shift,
    counter audit, then the degree-bounded better rule.

    One round of satisfactory then needless reaches the joint fixpoint, as
    needless exclusions create no satisfactory vertex.  The satisfactory
    rule settles first thing."""
    rr_include_satisfactory(st, trace)
    rr_exclude_needless(st, trace)
    st.settle()
    rr_counter_shift(st, trace)
    audit_ok = counter_bound_audit(st)
    trace.audit("counter_bound_ok", audit_ok)
    if not audit_ok:
        raise RuleInternalError("counter bound audit failed after rule fixpoint")
    rr_delta_better(st, trace)


@_pipeline("delta", DEGRADING, POSITIVE)
def kernel_delta(st: _State, trace: RuleTrace) -> None:
    """(Delta + k)-polynomial kernel for the degrading cases with alpha > 0."""
    _finish_degrading(st, trace)


@_pipeline("closure", DEGRADING, POSITIVE, least=1)
def kernel_closure(st: _State, trace: RuleTrace, c: int) -> None:
    """k^O(c) kernel: trim by the closure better rule and X/I extraction, then delta."""
    trace.audit("closure_c", c)
    while True:
        st.settle()
        rr_closure_better(st, c, trace)
        st.settle()
        # for k >= 2 the bound is at least 2^(c-1), above delta_tbar once 2^(c-1) > n_alive: left unbuilt
        if not (2 <= c <= st.n_alive.bit_length() and st.k >= 2 and st.delta_tbar() >= closure_xi_degree_bound(c, st.k)):
            break
        xs, iset = find_closure_XI(st, c, trace)
        rr_closure_independent_set(st, xs, iset, trace)
    trace.audit("closure_delta_tbar", st.delta_tbar())
    _finish_degrading(st, trace)


@_pipeline("degeneracy", DEGRADING, variant=MAX, least=0)
def kernel_degeneracy_max(st: _State, trace: RuleTrace, d: int) -> None:
    """k^O(d) kernel for degrading Max via the biclique-free extraction."""
    a = b = d + 1
    while d >= 1:
        st.settle()
        # for k >= 2 the bound is at least 2^d, above delta_tbar once 2^d > n_alive: left unbuilt
        if (st.k >= 2 and d >= st.n_alive.bit_length()) or st.delta_tbar() < bcfree_xi_degree_bound(a, b, st.k, d):
            break
        xs, iset = find_bcfree_XI(st, a, b, degeneracy=d, trace=trace)
        rr_bcfree_independent_set(st, xs, iset, trace)
    trace.audit("bcfree_delta_tbar", st.delta_tbar())
    _finish_degrading(st, trace)


@_pipeline("degeneracy", DEGRADING, variant=MIN)
def kernel_degeneracy_min(st: _State, trace: RuleTrace, d: int) -> None:
    """(d + k)-polynomial kernel for Min with alpha < 1/3 (alpha = 0 included)."""
    inst = st.inst
    st.settle()

    if inst.tmask == 0 and inst.t >= d * inst.k:
        witness = min_trivial_witness(inst)
        if witness is not None:
            trace.audit("min_trivial", f"t={inst.t} dk={d * inst.k}")
            raise _Decided(DECIDED_YES, witness)

    if not inst.alpha_weight:
        if not inst.is_plain:
            raise GuardViolation("alpha=0 minimization pipeline needs a plain instance (empty T, zero counters)")
        if inst.t < 0:
            raise _Decided(DECIDED_NO)
        if inst.n_alive >= (d + 1) * inst.k:
            sub, back = inst.graph.induced(inst.alive_vertices())
            picked = ramsey.degenerate_independent_set(sub, d, inst.k)
            witness = tuple(sorted(back[i] for i in picked))
            if inst.val(witness) > inst.t:
                raise RuleInternalError("independent-set witness has positive value")
            raise _Decided(DECIDED_YES, witness)
        return

    _exclude_high_degplus(st, trace)
    rr_delta_better(st, trace)


def _exclude_high_degplus(st: _State, trace: RuleTrace | None) -> None:
    """For Min with alpha in (0, 1/3): vertices of deg-bonus >= t + k are in
    no solution; settles after each exclusion.

    Exclusions leave free deg-bonuses alone and can only lower t, so the
    scan restarts from the lowest index only when t drops.  With Min scores
    negated and t = P/Q, deg-bonus >= t + k reads -score >= ceil((P+kQ)s/Q).
    """
    free, where = st.free, st.where
    i = 0
    while i < len(free):
        if not i:
            bar = -(-(st.t.numerator + st.k * st.t.denominator) * st.scale // st.t.denominator)
        v = free[i]
        i += 1
        if where[v] != FREE or -st.score_deg_bonus(v) < bar:
            continue
        dt = _move(st, "exclude", v, "min:high-degplus", "t+k bound", trace)
        st.settle()
        if dt:
            i = 0


def min_trivial_witness(inst: AnnotatedInstance) -> tuple[int, ...] | None:
    """The first k alive vertices of a degeneracy ordering, Min's trivial
    witness, when their value is at most t; else None.  Callers check
    their own case first (Min, t >= degeneracy * k)."""
    sub, back = inst.graph.induced(inst.alive_vertices())
    order, _ = degeneracy_ordering(sub)
    witness = tuple(sorted(back[i] for i in order[:inst.k]))
    return witness if inst.val(witness) <= inst.t else None


def _margin_trim_counters(st: _State, trace: RuleTrace | None) -> None:
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
    margin = st.inst.score_margin()
    st.rank(wrt_t=False)
    free, where = st.free, st.where
    i = 0
    while True:
        st.settle()
        rr_counter_shift(st, trace)
        slots = st.k_prime
        target = None
        while target is None and i < len(free):
            v = free[i]
            i += 1
            # w strictly better than v: score(w) >= score(v) + margin
            if where[v] == FREE and st.at_least(v, margin) >= slots:
                target = v
        if target is not None:
            _move(st, "exclude", target, "hindex:counter-trim", "dominated", trace)
            continue
        for v in free:
            # w not strictly worse than v: score(w) > score(v) - margin
            if where[v] == FREE and st.above(v, margin) <= slots - 1:
                _move(st, "include", v, "hindex:counter-trim", "dominating", trace)
                break
        else:
            st.score = None
            return


def _vx_window(src, base: int) -> tuple[int, int]:
    """The score ``cut`` of alpha*x, x = base + |(1-3a)k/a|, and |V_x| for the
    h-index and vertex-cover kernels (alpha > 0), on an instance or a
    working state.  V_x holds the alive vertices, T included, of deg-bonus
    >= alpha*x; alpha*x*s = a*base + |s-3a|*k is an integer, the cut times
    the sign, so V_x is score >= cut for Max and score <= cut for Min."""
    cut = src.sign * (src.alpha_weight * base + abs(src.pair_score) * src.k)
    vx = sum(1 for v in src.alive_vertices() if src.sign * (src.score_deg_bonus(v) - cut) >= 0)
    return cut, vx


def _audit_window(st: _State, base: int, tag: str, trace: RuleTrace):
    """The V_x window of a Max kernel, audited under ``tag``: the margin and
    cut as scores, and case 1 when at least k vertices lie in V_x."""
    cut, vx = _vx_window(st, base)
    trace.audit(f"{tag}_x", Fraction(st.sign * cut, st.alpha_weight))
    trace.audit(f"{tag}_vx", vx)
    trace.audit(f"{tag}_case", 1 if vx >= st.k else 2)
    return st.inst.score_margin(), cut, vx >= st.k


def _window_exclude_low(st: _State, cutoff: int, tag: str, trace: RuleTrace) -> None:
    """Case 1: every free vertex of deg-bonus below alpha*x - M (score below
    ``cutoff``) can be excluded; then counters are trimmed by exchanges."""
    where = st.where
    for v in [u for u in st.free if where[u] == FREE and st.score_deg_bonus(u) < cutoff]:
        _move(st, "exclude", v, f"{tag}:exclude-low", "below V_x window", trace)
    _margin_trim_counters(st, trace)


def _window_include_high(st: _State, cutoff: int, tag: str, trace: RuleTrace) -> None:
    """Case 2: include free vertices of deg-bonus >= alpha*x + M (score at
    least ``cutoff``), lowest index first, settling before each."""
    where = st.where
    while True:
        st.settle()
        target = next((v for v in st.free if where[v] == FREE and st.score_deg_bonus(v) >= cutoff), None)
        if target is None:
            return
        _move(st, "include", target, f"{tag}:include-high", "above V_{x+M}", trace)


@_pipeline("hindex", POSITIVE, EMPTY_T, variant=MAX)
def kernel_hindex_max(st: _State, trace: RuleTrace, h: int) -> None:
    """Two-case h-index kernel for Max with alpha > 0.

    Case 1 (at least k vertices of deg+ >= x): every low-deg+ vertex can be
    excluded, then counters are trimmed by exchanges.  Case 2 (alpha > 1/3):
    all very-high-deg+ vertices join T, then the degree-bounded tail runs.
    """
    inst = st.inst
    st.settle()
    margin, cut, case1 = _audit_window(st, h + 1, "hindex", trace)
    if case1:
        _window_exclude_low(st, cut - margin, "hindex", trace)
    elif not inst.degrading:
        raise GuardViolation(
            f"pipeline=hindex case 2 requires alpha>1/3, got {inst.alpha} (fewer than k high-degree vertices)"
        )
    else:
        _window_include_high(st, cut + margin, "hindex", trace)
        _finish_degrading(st, trace)


@_pipeline("vc", COVER, POSITIVE, EMPTY_T, variant=MAX)
def kernel_vc_max(st: _State, trace: RuleTrace, cover: tuple[int, ...]) -> None:
    """Vertex-cover kernel for Max, all alpha > 0."""
    st.settle()
    margin, cut, case1 = _audit_window(st, len(cover), "vc", trace)
    if case1:
        _window_exclude_low(st, cut - margin, "vc", trace)
        return
    _window_include_high(st, cut + margin, "vc", trace)
    cset = set(cover)
    where, adj = st.where, st.adj
    # independent-set vertices whose every alive neighbor already sits in T
    fixed = [
        v for v in st.free if where[v] == FREE and v not in cset and all(where[u] != FREE for u in adj[v])
    ]
    if len(fixed) > st.k:
        ranked = sorted(fixed, key=lambda v: (-st.score_contribution(v), v))
        for v in ranked[st.k:]:
            _move(st, "exclude", v, "vc:prune-fixed", "fixed contribution", trace)


@_pipeline("vc", COVER, EMPTY_T, variant=MIN)
def kernel_vc_min(st: _State, trace: RuleTrace, cover: tuple[int, ...]) -> None:
    """Vertex-cover kernel for Min; alpha = 0 is decided outright when possible."""
    inst = st.inst
    st.settle()
    cset = set(cover)
    iset = [v for v in inst.alive_vertices() if v not in cset]

    if not inst.alpha_weight:
        if any(inst.weights[v] for v in iter_mask(inst.alive)):
            raise GuardViolation("alpha=0 vc pipeline needs zero counters")
        if inst.t < 0:
            raise _Decided(DECIDED_NO)
        if len(iset) >= inst.k:
            witness = tuple(sorted(iset)[: inst.k])
            if inst.val(witness) > inst.t:
                raise RuleInternalError("independent witness has positive value")
            raise _Decided(DECIDED_YES, witness)
        return

    cut, _ = _vx_window(st, len(cover))
    margin = inst.score_margin()
    trace.audit("vc_x", Fraction(st.sign * cut, st.alpha_weight))
    # Exclusions keep every free deg-bonus and k', so better-counts only
    # fall and one pass in index order finds every target.
    st.rank(wrt_t=False)
    where = st.where
    for v in st.free:
        if where[v] != FREE or st.score_deg_bonus(v) > cut:  # outside V_x
            continue
        # w better than v: deg_bonus(w) <= deg_bonus(v) - margin
        if st.at_least(v, margin) < st.k_prime:
            continue
        _move(st, "exclude", v, "vc:exclude-vx", "I beats V_x", trace)
        st.settle()
    st.score = None
    isolated = [v for v in st.free if where[v] == FREE and st.deg[v] == 0]
    if len(isolated) > st.k:
        ranked = sorted(isolated, key=lambda v: (st.weights[v], v))
        for v in ranked[st.k:]:
            _move(st, "exclude", v, "vc:prune-isolated", "fixed contribution", trace)


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
        if not inst.alpha_weight:
            raise GuardViolation("pipeline=auto: no kernelization route for max with alpha=0")
        if inst.degrading:
            return "closure" if profile.c_closure < profile.degeneracy else "degeneracy"
        # 0 < alpha <= 1/3: only the h-index case-1 route or the vc route apply
        _, vx = _vx_window(inst, profile.h_index + 1)
        if vx >= inst.k:
            return "hindex"
        if profile.vc is not None:
            return "vc"
        raise GuardViolation(
            f"pipeline=auto: max with alpha<=1/3 needs the h-index case or an exact vertex cover: "
            f"|V_x| = {vx} < k = {inst.k}, and no cover found within vc_budget={profile.vc_budget}"
        )
    if inst.degrading:
        return "degeneracy"
    if profile.vc is None:
        raise GuardViolation(
            f"pipeline=auto: min with alpha>=1/3 needs an exact vertex cover: "
            f"no cover found within vc_budget={profile.vc_budget}"
        )
    return "vc"


def alive_profile(inst: AnnotatedInstance) -> ParameterProfile:
    """Profile of the alive part of ``inst`` in its own indices; dead vertices
    stay as isolated ones, which change no parameter and join no cover.
    With every vertex alive that is the profile the graph keeps, so runs on
    one graph share its parameters and its cover; otherwise a new one."""
    alive = inst.alive
    if inst.n_alive == inst.graph.n:
        return inst.graph.profile
    return compute_profile(Graph.from_masks([
        mask & alive if (alive >> v) & 1 else 0 for v, mask in enumerate(inst.graph.masks)
    ]))


# The pipelines by name: the kernel for Max, the kernel for Min, and the
# profile parameter they take (None: none).  The h-index kernel is for Max
# only; it refuses Min.
ROUTES = {
    "delta": (kernel_delta, kernel_delta, None),
    "closure": (kernel_closure, kernel_closure, "c_closure"),
    "degeneracy": (kernel_degeneracy_max, kernel_degeneracy_min, "degeneracy"),
    "hindex": (kernel_hindex_max, kernel_hindex_max, "h_index"),
    "vc": (kernel_vc_max, kernel_vc_min, "vertex_cover"),
}
PIPELINES = ("auto", *ROUTES)


def run_pipeline(inst: AnnotatedInstance, name: str, profile=None, param_override: int | None = None) -> KernelOutcome:
    """Run one named pipeline: ``auto`` resolves through :func:`select_pipeline`,
    the name's row of :data:`ROUTES` gives the kernel for the variant, and
    the kernel takes the row's profile parameter, or ``param_override`` in
    place of an integer one."""
    if profile is None:
        profile = alive_profile(inst)
    if name == "auto":
        name = select_pipeline(inst, profile)
    if name not in ROUTES:
        raise GuardViolation(f"unknown pipeline {name!r}")
    for_max, for_min, param = ROUTES[name]
    kernel = for_max if inst.variant == MAX else for_min
    if param is None:
        return kernel(inst)
    if param_override is None or param == "vertex_cover":  # a cover is read, never given
        param_override = getattr(profile, param)
    return kernel(inst, param_override)
