"""Exact solvers, from the brute-force oracle up to the FPT branchings.

All solvers work on annotated instances and report exact rational values.
Their loops compare the instance's integer scores (values times its scale,
negated for Min so that higher is better) and turn only the reported
optimum back into a rational.  One enumerator, ``_best_subset``, scores
the k-sets of the exhaustive solvers: ``brute_force``, the reference oracle
the whole test suite leans on; ``twin_oracle``, its answer over twin-class
count vectors, which the equivalence checks and ``verify`` run; and the
per-component tables of ``solve_bounded_degree``.  Its walk cuts every
subtree that cannot beat the best set found so far, and keeps the first
optimum, so the answers are those of the full enumeration.

Every search takes one ``budget``: the nodes it may visit.  The walks
count each node as they visit it and raise :class:`BudgetExceeded` at the
first one past the budget; a search that shares its budget among several
walks passes each what is left.  ``nodes_explored`` reports the visits.
Only ``densest_vc``, which visits every cover subset, counts them before
it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain, combinations

from .graph import iter_mask, mask_of
from .instance import MAX, MIN, AnnotatedInstance, GuardViolation
from .ramsey import peeling_independent_set
from .rules import alive_profile, min_trivial_witness

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """A search visited more nodes than its budget allows."""


class UndecidedWithinBudget(BudgetExceeded):
    """solve_auto ran out of applicable routes; never a wrong answer."""


@dataclass(frozen=True)
class SolveResult:
    decision: bool
    witness: tuple[int, ...] | None
    best_value: Fraction | None
    solver_id: str
    nodes_explored: int = 0


def brute_force(inst: AnnotatedInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum over all size-k supersets of T; the oracle for everything.

    One enumerator, :func:`_best_subset`, scores the free-vertex combinations
    in lexicographic order on top of the score of T, so the reported witness
    is the lexicographically smallest optimum.
    """
    need = inst.k - inst.t_size
    free = inst.free_vertices()
    if need < 0 or need > len(free):
        return SolveResult(False, None, None, "brute", 0)
    return _result(inst, *_best_subset(inst, [(v,) for v in free], need, inst.score_val(inst.tmask), budget), "brute")


def twin_oracle(inst: AnnotatedInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """:func:`brute_force`'s decision, optimum and witness from one k-set per
    count vector of the twin classes (:func:`_twin_classes`).

    A k-set's value depends only on how many vertices it takes from each
    class, and taking each class's first members in index order gives the
    lexicographically first k-set of its count vector, so the first optimum
    among these sets is brute_force's witness.  No k-set takes more than
    k' = k - |T| vertices of a class, so the walk gets each class cut to its
    first k' members; the count vectors are the same.  De-annotation gadgets
    (the leaves on one anchor, the clique vertices wired to the same
    originals) are large classes, so the vectors are far fewer than the
    k-subsets, and the walk visits far fewer nodes than brute force's.
    """
    need = inst.k - inst.t_size
    if need < 0 or need > inst.n_alive - inst.t_size:
        return SolveResult(False, None, None, "twin", 0)
    classes = _twin_classes(inst, need)
    return _result(inst, *_best_subset(inst, classes, need, inst.score_val(inst.tmask), budget), "twin")


def _twin_classes(inst: AnnotatedInstance, cap: float = math.inf) -> list[tuple[int, ...]]:
    """The free vertices (alive, outside T) split into twin classes, each in
    index order and cut to its first ``cap`` members (at least one), the
    classes ordered by their first vertex.

    False twins share their alive open neighbourhood and their weight, true
    twins their alive closed neighbourhood and their weight; every other
    vertex is a class of its own.  Swapping two twins maps the instance onto
    itself.  No vertex has twins of both kinds: were u, v false twins and
    u, w true twins, then w in N(u) = N(v), so v in N[w] = N[u], and v would
    be u's neighbour.  So a vertex whose false-twin class was cut to itself
    (cap 1) finds no true twin, and stays a class of its own.
    """
    masks, alive, weights = inst.graph.masks, inst.alive, inst.weights
    opened: dict[tuple[int, int], list[int]] = {}
    for v in iter_mask(alive & ~inst.tmask):
        key = (masks[v] & alive, weights[v])
        group = opened.get(key)
        if group is None:
            opened[key] = [v]
        elif len(group) < cap:
            group.append(v)
    closed: dict[tuple[int, int], list[int]] = {}
    classes = []
    for (around, w), group in opened.items():
        if len(group) > 1:
            classes.append(tuple(group))
        else:  # only a vertex without false twins can have true twins
            v = group[0]
            key = (around | 1 << v, w)
            group = closed.get(key)
            if group is None:
                closed[key] = [v]
            elif len(group) < cap:
                group.append(v)
    classes += map(tuple, closed.values())
    classes.sort()  # disjoint, so by first vertex
    return classes


def _result(inst: AnnotatedInstance, score: int, picked: tuple[int, ...], nodes: int, solver_id: str) -> SolveResult:
    """The result whose best score is ``score``, reached by T plus ``picked``
    after visiting ``nodes`` nodes."""
    decision = score >= inst.score_needed(inst.t)
    witness = tuple(sorted(picked + inst.t_vertices())) if decision else None
    return SolveResult(decision, witness, inst.from_score(score), solver_id, nodes)


def _best_subset(
    inst: AnnotatedInstance, classes: list[tuple[int, ...]], need: int, base: int, budget: int
) -> tuple[int, tuple[int, ...], int]:
    """Best score over the need-sets that take a prefix of every class
    (0 <= need <= the vertices in all classes), on top of ``base``:
    (score, lexicographically first best set, nodes visited).

    Every vertex of a class must be a twin of the others, so a set's score
    depends only on its count per class; singleton classes give every
    subset.  The walk is depth-first over the vertices in class order and
    iterative, so need is not bounded by the recursion limit.  From the
    vertex at position i it goes on to position i + 1 or to a later class
    start, so each class contributes a prefix.  Each step adds the vertex's
    contribution score w.r.t. T plus ``pair_score`` per edge to the vertices
    already chosen; a flat loop picks the last vertex.  When the class order
    is the index order the walk meets the sets in lexicographic order, and
    the strict ``>`` keeps the first optimum; otherwise an equal score goes
    to the smaller sorted set.

    The walk is bounded: a vertex adds at most its score plus
    ``max(pair_score, 0)`` per edge it may close (need - 1 at most), and
    ``top[p]`` is the most any vertex at a position >= p adds.  A set that
    takes position p at depth d scores at most got + (need - d) * top[p];
    when that cannot beat the best, p and, as ``top`` never rises, the rest
    of its depth are cut.  In index order a later tie never replaces the
    best, so ties are cut too; out of it only a bound below the best is.

    Each turn of the walk's loop visits one node; the walk raises
    :class:`BudgetExceeded` at the first visit past ``budget``.
    """
    if not need:
        return base, (), 0
    free = list(chain.from_iterable(classes))
    n = len(free)
    starts = list(accumulate(map(len, classes), initial=0))  # where each class begins, then n
    later = [r for r, c in enumerate(classes, 1) for _ in c]  # per position: the next class's index in starts
    shuffled = free != sorted(free)
    pair, last = inst.pair_score, need - 1
    # per position: the alive neighbours, the contribution score w.r.t. T
    # (score_contribution: sign * (alpha * deg + weight) + pair per T
    # neighbour) and the bound's gain, read off each mask once
    gmasks, alive, tmask, weights = inst.graph.masks, inst.alive, inst.tmask, inst.weights
    sign, a, credit = inst.sign, inst.alpha_weight, pair > 0
    masks, score, gain = [], [], []
    for v in free:
        m = gmasks[v] & alive
        deg = m.bit_count()
        s = sign * (a * deg + weights[v]) + pair * (m & tmask).bit_count()
        masks.append(m)
        score.append(s)
        gain.append(s + pair * min(deg, last) if credit else s)
    idx = [0] * need  # the position tried at each depth; idx[last] starts the flat loop
    got = [base] * need  # score of the vertices chosen above each depth
    chosen = [0] * need  # and their mask
    best: int | None = None
    best_at: list[int] = []
    best_key: list[int] | None = None  # sorted best set, built on the first tie
    top = list(accumulate(reversed(gain), max))[::-1] if last else []  # the bound's top[p]; need 1 never reads it
    d = nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("the exact search passed its node budget")
        p = idx[d]
        if p <= n - need + d and (best is None or got[d] + (need - d) * top[p] + shuffled > best):
            if d < last:
                got[d + 1] = got[d] + score[p] + pair * (masks[p] & chosen[d]).bit_count()
                chosen[d + 1] = chosen[d] | 1 << free[p]
                idx[d + 1] = p + 1
                d += 1
                continue
            g, c, r = got[d], chosen[d], later[p]  # p, then the class starts after it; p may go on with its class
            for i in starts[r - 1:-1] if starts[r - 1] == p else [p, *starts[r:-1]]:
                s = g + score[i] + pair * (masks[i] & c).bit_count()
                if best is None or s > best:
                    best, best_at, best_key = s, idx[:d] + [i], None
                elif shuffled and s == best:
                    key = sorted([free[j] for j in idx[:d]] + [free[i]])
                    if best_key is None:
                        best_key = sorted(free[j] for j in best_at)
                    if key < best_key:
                        best_at, best_key = idx[:d] + [i], key
        if not d:
            break
        d -= 1
        idx[d] = starts[later[idx[d]]]
    return best, tuple(free[i] for i in best_at), nodes


# ---------------------------------------------------------------------------
# Degrading branching over high-contribution vertices
# ---------------------------------------------------------------------------

def branch_degrading(inst: AnnotatedInstance, d: int, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum by one bounded search tree over high-contribution vertices.

    A node is a chosen set C containing T.  As pair_score <= 0 here, a
    k-set S containing C that meets the bound has one of its k' = k - |C|
    other vertices contributing, w.r.t. C, at least (bound - score(C)) / k';
    the vertices that do are C's children.  The bound starts at the score
    that meets t and rises to each better score found.  It is inclusive, so
    the walk still reaches every set as good as the final best and keeps
    the lexicographically first optimum, brute_force's witness.  The walk
    is depth-first on an explicit stack and tests a child against the
    current bound again before entering it.  From d*k candidates on, a
    greedy independent k'-set among them (one exists from (d+1)*k' on) is
    offered too.  ``budget`` bounds the nodes of the whole walk; on NO
    the bound never rises, so the walk is the decision tree.
    """
    if not (inst.degrading and inst.alpha_weight):
        bar = "(max) needs alpha > 1/3" if inst.variant == MAX else "(min) needs alpha in (0, 1/3)"
        raise GuardViolation(f"branch_degrading {bar}")
    free, need = inst.alive & ~inst.tmask, inst.k_prime
    if need < 0 or need > free.bit_count():
        return SolveResult(False, None, None, "branch", 0)
    masks, pair = inst.graph.masks, inst.pair_score
    own = {v: inst.score_deg_bonus(v) for v in iter_mask(free)}
    chosen, score = inst.tmask, inst.score_val(inst.tmask)
    bound, best = inst.score_needed(inst.t), None
    stack = []  # per open node: chosen, score, need, its candidates not yet entered
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("the branch search passed its node budget")
        if not need:
            found = chosen
        else:
            found, cand = None, 0
            for v in iter_mask(free & ~chosen):
                if (own[v] + pair * (masks[v] & chosen).bit_count()) * need + score >= bound:
                    cand |= 1 << v
            if cand.bit_count() >= d * inst.k:
                sub, back = inst.graph.induced(iter_mask(cand))
                picked = peeling_independent_set(sub, need)
                if len(picked) == need:
                    found = chosen | mask_of(back[i] for i in picked)
            stack.append((chosen, score, need, iter_mask(cand)))
        if found is not None:
            s, witness = inst.score_val(found), tuple(iter_mask(found))
            if s > bound or (s == bound and (best is None or witness < best)):
                bound, best = s, witness
        while stack:  # the next child that still meets the bound
            chosen, score, need, todo = stack[-1]
            v = next(todo, None)
            if v is None:
                stack.pop()
                continue
            gain = own[v] + pair * (masks[v] & chosen).bit_count()
            if gain * need + score >= bound:
                chosen, score, need = chosen | 1 << v, score + gain, need - 1
                break
        else:
            break
    if best is None:
        return SolveResult(False, None, None, "branch", nodes)
    return SolveResult(True, best, inst.from_score(bound), "branch", nodes)


# ---------------------------------------------------------------------------
# Boundary case alpha = 1/3: greedy on deg+ is exact
# ---------------------------------------------------------------------------

def solve_third(inst: AnnotatedInstance) -> SolveResult:
    """At alpha = 1/3 contributions are prefix-independent, so top-k' greedy is exact."""
    if inst.pair_score:
        raise GuardViolation("solve_third requires alpha = 1/3")
    need = inst.k - inst.t_size
    free = inst.free_vertices()
    if need < 0 or need > len(free):
        return SolveResult(False, None, None, "third", 0)
    ranked = sorted(free, key=lambda v: (-inst.score_deg_bonus(v), v))
    witness = tuple(sorted(inst.t_vertices() + tuple(ranked[:need])))
    value = inst.val(witness)
    decision = inst.better_cmp(value, inst.t)
    return SolveResult(decision, witness if decision else None, value, "third", len(free))


# ---------------------------------------------------------------------------
# Component-wise enumeration for bounded-degree residual instances
# ---------------------------------------------------------------------------

def solve_bounded_degree(inst: AnnotatedInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum by per-component subset tables combined over cardinality.

    For free vertices F (alive, outside T) the score of T + F is the score of
    T, plus the contribution score of each v in F w.r.t. T, plus pair_score
    per edge inside F.  Edges inside F never join two components of the free
    graph, so a (component x cardinality) table of per-size optima suffices;
    each entry is a :func:`_best_subset` run over the component.  The combine
    breaks equal scores toward the smaller sorted tuple, so the witness is
    the lexicographically first optimum, the one :func:`brute_force` returns.
    The runs share ``budget``: each gets the nodes the earlier ones left.
    """
    need = inst.k - inst.t_size
    if inst.n_alive < inst.k or need < 0:
        return SolveResult(False, None, None, "bounded-degree", 0)
    nodes = 0
    acc: dict[int, tuple[int, tuple[int, ...]]] = {0: (inst.score_val(inst.tmask), ())}
    for comp in _components(inst):
        nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
        for j in range(min(len(comp), need) + 1):
            js, picked, spent = _best_subset(inst, [(v,) for v in comp], j, 0, budget - nodes)
            nodes += spent
            for have, (hs, hw) in acc.items():
                if have + j > need:
                    continue
                score, witness = hs + js, tuple(sorted(hw + picked))
                cur = nxt.get(have + j)
                if cur is None or score > cur[0] or (score == cur[0] and witness < cur[1]):
                    nxt[have + j] = (score, witness)
        acc = nxt
    if need not in acc:
        return SolveResult(False, None, None, "bounded-degree", nodes)
    score, picked = acc[need]
    return _result(inst, score, picked, nodes, "bounded-degree")


def _components(inst: AnnotatedInstance) -> list[list[int]]:
    """The components of the free graph: alive vertices outside T."""
    free = inst.alive & ~inst.tmask
    seen = 0
    comps = []
    for start in iter_mask(free):
        if (seen >> start) & 1:
            continue
        frontier = 1 << start
        comp_mask = 0
        while frontier:
            comp_mask |= frontier
            grow = 0
            for v in iter_mask(frontier):
                grow |= inst.graph.masks[v] & free
            frontier = grow & ~comp_mask
        seen |= comp_mask
        comps.append(sorted(iter_mask(comp_mask)))
    return comps


# ---------------------------------------------------------------------------
# FPT branching over the high-degree vertices (Max, alpha < 1/3)
# ---------------------------------------------------------------------------

def hindex_fpt_max(inst: AnnotatedInstance, h: int, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Branch on S cap V_{>h}, then solve the low-degree rest.

    Each branch excludes the unchosen free hubs and includes the chosen
    ones, in index order.  include and exclude keep val(S) - t for every
    S containing T, so a branch's optimum is the residual optimum plus the
    drop in t, and its witness already holds the chosen hubs.  The residual's
    free graph has degree at most h, the case of
    :func:`solve_bounded_degree`.  Ties between branches go to the smaller
    witness, so the witness is the one :func:`brute_force` returns.  Each
    branch costs one node plus the nodes of its residual search, all
    charged to ``budget``.
    """
    if inst.variant != MAX:
        raise GuardViolation("hindex_fpt_max requires the maximization variant")
    if inst.pair_score <= 0:
        raise GuardViolation("hindex_fpt_max requires alpha < 1/3")
    open_high = [v for v in inst.free_vertices() if inst.degree(v) >= h + 1]
    max_extra = min(len(open_high), inst.k - inst.t_size)
    if max_extra < 0:
        return SolveResult(False, None, None, "hindex-fpt", 0)
    best: Fraction | None = None
    best_witness: tuple[int, ...] | None = None
    nodes = 0
    for j in range(0, max_extra + 1):
        for extra in combinations(open_high, j):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded("the hub branching passed its node budget")
            branch = inst
            for v in open_high:
                branch = branch.include(v) if v in extra else branch.exclude(v)
            sub = solve_bounded_degree(branch, budget - nodes)
            nodes += sub.nodes_explored
            if sub.best_value is None:
                continue
            total = sub.best_value + inst.t - branch.t
            if best is None or total > best:
                best, best_witness = total, sub.witness
            elif total == best and sub.witness is not None and sub.witness < best_witness:
                best_witness = sub.witness  # equal totals both meet t or both miss it
    if best is None:
        return SolveResult(False, None, None, "hindex-fpt", nodes)
    decision = best >= inst.t
    return SolveResult(decision, best_witness if decision else None, best, "hindex-fpt", nodes)


# ---------------------------------------------------------------------------
# Densest k-subgraph with a vertex cover (alpha = 0, Max)
# ---------------------------------------------------------------------------

def densest_vc(inst: AnnotatedInstance, cover: tuple[int, ...], budget: int = DEFAULT_BUDGET) -> SolveResult:
    """2^vc enumeration: fix S cap cover, fill greedily from the independent set.

    At alpha = 0 only internal edges count, and independent-set vertices
    contribute exactly their edges into the chosen cover part, so a greedy
    fill by that count is optimal per cover subset.
    """
    if inst.variant != MAX or inst.alpha != 0:
        raise GuardViolation("densest_vc requires max variant with alpha = 0")
    if not inst.is_plain:
        raise GuardViolation("densest_vc needs a plain instance")
    cover = inst.check_cover(cover)
    cmask = mask_of(cover)
    iset = [v for v in inst.alive_vertices() if not (cmask >> v) & 1]
    sizes = [r for r in range(min(len(cover), inst.k) + 1) if inst.k - r <= len(iset)]
    subsets = sum(math.comb(len(cover), r) for r in sizes)
    if subsets > budget:
        raise BudgetExceeded(f"{subsets} cover subsets exceed the budget")
    best: int | None = None
    best_witness: tuple[int, ...] | None = None
    for r in sizes:
        fill = inst.k - r
        for sub in combinations(cover, r):
            amask = mask_of(sub)
            inner, _ = inst.graph.edge_counts(amask)
            ranked = sorted(iset, key=lambda v: (-(inst.graph.masks[v] & amask).bit_count(), v))
            chosen = ranked[:fill]
            value = inner + sum((inst.graph.masks[v] & amask).bit_count() for v in chosen)
            witness = tuple(sorted(sub + tuple(chosen)))
            if best is None or value > best or (value == best and witness < best_witness):
                best = value
                best_witness = witness
    if best is None:
        return SolveResult(False, None, None, "densest-vc", subsets)
    decision = best >= inst.t
    return SolveResult(decision, best_witness if decision else None, Fraction(best), "densest-vc", subsets)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def _densest_vc_entry(inst: AnnotatedInstance, profile, budget: int) -> SolveResult:
    if profile.vertex_cover is None:
        raise GuardViolation("densest-vc needs an exact vertex cover within the vc budget")
    return densest_vc(inst, profile.vertex_cover, budget=budget)


# The solvers by name, each called as (inst, profile, budget).  The entries
# look their solver up by name at each call, so a wrapper put in its place
# on this module is the one that runs.
SOLVERS = {
    "brute": lambda inst, profile, budget: brute_force(inst, budget=budget),
    "branch": lambda inst, profile, budget: branch_degrading(inst, profile.degeneracy, budget),
    "third": lambda inst, profile, budget: solve_third(inst),
    "hindex": lambda inst, profile, budget: hindex_fpt_max(inst, profile.h_index, budget),
    "densest-vc": _densest_vc_entry,
}

# solve_auto's cases in order, each a test of (inst, profile): the first
# that holds names the solver to run
_AUTO_CASES = (
    ("third", lambda i, p: not i.pair_score),
    ("branch", lambda i, p: i.degrading and i.alpha_weight),
    ("densest-vc", lambda i, p: i.variant == MAX and i.alpha == 0 and i.is_plain and p.vertex_cover is not None),
    ("hindex", lambda i, p: i.variant == MAX and i.pair_score > 0),
)


def solve_auto(inst: AnnotatedInstance, profile=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Run the solver of the first of :data:`_AUTO_CASES` that holds, brute
    force if none does, and tag the result ``auto:<name>``.

    Min's trivial case comes first: a plain Min instance with alpha < 1/3
    and t >= degeneracy * k is decided by :func:`min_trivial_witness` when
    that finds a witness.  A route other than brute force that passes its
    budget falls back to brute force, with the budget afresh.  Raises
    :class:`UndecidedWithinBudget` when every route it tries passes its
    budget; a wrong answer is never returned.
    """
    if profile is None:
        profile = alive_profile(inst)
    plain_min = inst.variant == MIN and inst.degrading and inst.is_plain and inst.n_alive >= inst.k
    if plain_min and inst.t >= profile.degeneracy * inst.k:
        witness = min_trivial_witness(inst)
        if witness is not None:
            return SolveResult(True, witness, inst.val(witness), "auto:min-trivial", 0)
    route = next((name for name, holds in _AUTO_CASES if holds(inst, profile)), "brute")
    try:
        return replace(SOLVERS[route](inst, profile, budget), solver_id=f"auto:{route}")
    except BudgetExceeded:
        if route == "brute":
            raise UndecidedWithinBudget("brute-force budget exceeded") from None
    try:
        return replace(SOLVERS["brute"](inst, profile, budget), solver_id="auto:brute")
    except BudgetExceeded as exc:
        raise UndecidedWithinBudget(f"route {route} and brute force both exceeded budgets") from exc
