"""Shared builders for the test suite.

All randomness is seeded; the helpers below define the instance streams the
oracle-equivalence tests draw from.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, combinations
from pathlib import Path
from typing import Sequence

import pytest

import fcgp
from fcgp.graph import (
    Graph,
    ParameterProfile,
    RuleInternalError,
    compute_profile,
    degeneracy_ordering,
    iter_mask,
    mask_of,
)
from fcgp.harness import gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, MIN, AnnotatedInstance, Deannotation, GuardViolation
from fcgp.ramsey import ExtractionPreconditionError
from fcgp.rules import (
    RuleTrace,
    _Decided,
    _State,
    alive_profile,
    kernel_closure,
    kernel_degeneracy_max,
    kernel_degeneracy_min,
    kernel_delta,
    kernel_hindex_max,
    kernel_vc_max,
    kernel_vc_min,
    select_pipeline,
)
from fcgp.solve import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SolveResult,
    UndecidedWithinBudget,
    branch_degrading,
    brute_force,
    densest_vc,
    hindex_fpt_max,
    solve_third,
)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def disjoint_triangles(count: int) -> Graph:
    return Graph.from_edges(3 * count, [(3 * i + a, 3 * i + b) for i in range(count) for a, b in ((0, 1), (0, 2), (1, 2))])


def triangle_chain(count: int) -> Graph:
    """``disjoint_triangles(count)`` joined into one component by the edges
    from each triangle's last vertex to the next one's first; a cover still
    needs two vertices per triangle, a matching has about one edge per triangle."""
    triangles = disjoint_triangles(count)
    return Graph.from_edges(3 * count, [*triangles.edges(), *((3 * i + 2, 3 * i + 3) for i in range(count - 1))])


def greedy_cover(g: Graph) -> tuple[int, ...]:
    """Both ends of a greedy maximal matching: a cover, not a minimum one."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.update((u, v))
    return tuple(sorted(cover))


class GreedyCoverProfile(ParameterProfile):
    """A profile whose cover is :func:`greedy_cover` instead of a minimum one."""

    @cached_property
    def vertex_cover(self):
        return greedy_cover(self.graph)


def greedy_cover_profile(g: Graph) -> GreedyCoverProfile:
    return GreedyCoverProfile(graph=g, vc_budget=compute_profile(g).vc_budget)


def profile_values(profile: ParameterProfile) -> tuple:
    """Every parameter a profile reports, read in one go: profiles compare by
    identity, so equal parameters are checked through this tuple."""
    return (
        profile.vc_budget, profile.max_degree, profile.degeneracy, profile.degeneracy_ordering,
        profile.h_index, profile.c_closure, profile.vertex_cover,
    )


def plain(g: Graph, k: int, t, alpha, variant: str) -> AnnotatedInstance:
    return AnnotatedInstance.plain(g, k, t, alpha, variant)


def telescope_check(inst: AnnotatedInstance, ordering: Sequence[int]) -> Fraction:
    """Sum of contributions along ``ordering`` against its growing prefix.

    Equals ``inst.val(set(ordering))`` for every ordering of distinct
    vertices: the reference that ``contribution`` telescopes to ``val``.
    """
    if len(set(ordering)) != len(ordering):
        raise GuardViolation("ordering repeats a vertex")
    total = Fraction(0)
    prefix = 0
    for v in ordering:
        total += inst.contribution(v, prefix)
        prefix |= 1 << v
    return total


def annotated(g: Graph, tset, counters, k, t, alpha, variant) -> AnnotatedInstance:
    alpha = Fraction(alpha)
    tmask = 0
    for v in tset:
        tmask |= 1 << v
    bonus = [Fraction(0)] * g.n
    for v, c in counters.items():
        bonus[v] = alpha * c
    return AnnotatedInstance(
        graph=g,
        alive=(1 << g.n) - 1 if g.n else 0,
        tmask=tmask,
        bonus=tuple(bonus),
        k=k,
        t=Fraction(t),
        alpha=alpha,
        variant=variant,
    )


def seeded_instances(count, alpha, variant, *, base_seed=0, allow_t=True, counters=(0, 2), n_hi=10, k_hi=3):
    """Deterministic stream of annotated instances near their optima."""
    made = 0
    seed = base_seed
    alpha = Fraction(alpha)
    while made < count:
        seed += 1
        if seed % 2:
            g = gen_gnp(6 + (seed % (n_hi - 5)), 1, 2, seed * 7919 + 11)
        else:
            g = gen_degenerate(6 + (seed % (n_hi - 5)), 1 + seed % 3, seed * 6151 + 5)
        try:
            inst = gen_annotated(
                g, seed * 104729 + 7, alpha, variant, (1, min(k_hi, g.n)), counters, allow_t=allow_t
            )
        except ValueError:
            continue
        made += 1
        yield seed, inst


def apply_rule(rule, inst: AnnotatedInstance, *args):
    """Run one rule on a fresh working state of ``inst``: the instance its
    moves lead to, or the ``(status, witness, instance)`` triple once it
    decides."""
    st = _State(inst)
    try:
        rule(st, *args)
    except _Decided as got:
        return got.status, got.witness, st.freeze()
    return st.freeze()


def replay(trace: RuleTrace, initial: AnnotatedInstance) -> AnnotatedInstance:
    """Re-apply every primitive op of ``trace`` along the instance chain,
    independently of the working state; the logged t-deltas must match."""
    inst = initial
    for e in trace.entries:
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


# The rational forms of the integer bars, window and gadget constants the
# rules and de-annotations compute; the tests hold the integer forms to them.

def t_prime(inst: AnnotatedInstance) -> Fraction:
    """t - val(T): what the k' free picks still have to reach."""
    return inst.t - inst.val(inst.tmask)


def satisfactory_threshold(inst: AnnotatedInstance) -> Fraction:
    return t_prime(inst) / inst.k_prime + (3 * inst.alpha - 1) * (inst.k - 1)


def needless_threshold(inst: AnnotatedInstance) -> Fraction:
    return t_prime(inst) / inst.k_prime - (3 * inst.alpha - 1) * (inst.k - 1) ** 2


def vx_window_by_fractions(inst: AnnotatedInstance, base: int) -> tuple[Fraction, int, int]:
    """x = base + |(1-3a)k/a|, the score of alpha*x and |V_x|, the alive
    vertices of deg-bonus >= alpha*x in both variants (alpha > 0)."""
    x = base + abs((1 - 3 * inst.alpha) * inst.k / inst.alpha)
    cut = inst.score_needed(inst.alpha * x)
    vx = sum(1 for v in inst.alive_vertices() if inst.deg_bonus(v) >= inst.alpha * x)
    return x, cut, vx


def max_gadget_by_fractions(inst: AnnotatedInstance) -> tuple[int, int, int, Fraction]:
    """(floor(1/a), pad, ell, new t) of ``deannotate_max``."""
    inv_floor = math.floor(1 / inst.alpha)
    pad = math.ceil(max(Fraction(0), 2 - 1 / inst.alpha) * (inst.k - 1)) if inst.k > 1 else 0
    ell = inst.delta_tbar() + inst.gamma() + math.ceil(abs(1 / inst.alpha - 3) * inst.k) + inv_floor
    return inv_floor, pad, ell, inst.t + inst.alpha * (ell * inst.t_size + (inv_floor + pad) * inst.k)


def min_gadget_by_fractions(inst: AnnotatedInstance) -> tuple[int, Fraction]:
    """(ell, new t) of ``deannotate_min``."""
    delta = max((inst.degree(v) for v in inst.alive_vertices()), default=0)
    ell = math.floor((delta + inst.gamma() + abs((1 - 3 * inst.alpha) * inst.k)) / inst.alpha) + 1
    return ell, inst.t + inst.alpha * ell * inst.k_prime


# The oracle's and the gadgets' set-up as it was built before it went one
# pass: vertex by vertex through the instance's methods, and the gadget
# graph's edges summed from its masks.  The tests hold the one-pass
# versions to them, nodes visited included.

def twin_classes_by_buckets(inst: AnnotatedInstance) -> list[tuple[int, ...]]:
    """Reference for ``solve._twin_classes``, uncut: every free vertex
    bucketed by its alive open neighbourhood and weight, the singletons
    bucketed again by their closed one."""
    masks, alive, weights = inst.graph.masks, inst.alive, inst.weights
    opened: dict[tuple[int, int], list[int]] = {}
    for v in inst.free_vertices():
        opened.setdefault((masks[v] & alive, weights[v]), []).append(v)
    closed: dict[tuple[int, int], list[int]] = {}
    classes = []
    for (around, w), group in opened.items():
        if len(group) > 1:
            classes.append(tuple(group))
        else:
            closed.setdefault((around | 1 << group[0], w), []).append(group[0])
    classes += map(tuple, closed.values())
    classes.sort()
    return classes


def best_subset_by_methods(inst: AnnotatedInstance, classes, need: int, base: int, budget: int):
    """Reference for ``solve._best_subset``: the same walk, its per-vertex
    scores read through ``score_contribution`` and its gains summed from the
    alive masks afterwards."""
    if not need:
        return base, (), 0
    free = list(chain.from_iterable(classes))
    n = len(free)
    starts = list(accumulate(map(len, classes), initial=0))
    later = [r for r, c in enumerate(classes, 1) for _ in c]
    shuffled = free != sorted(free)
    pair = inst.pair_score
    score = [inst.score_contribution(v, inst.tmask) for v in free]
    masks = [inst.graph.masks[v] & inst.alive for v in free]
    last = need - 1
    idx, got, chosen = [0] * need, [base] * need, [0] * need
    best, best_at, best_key = None, [], None
    gain = [s + pair * min(m.bit_count(), last) for s, m in zip(score, masks)] if pair > 0 else score
    top = list(accumulate(reversed(gain), max))[::-1] if last else []
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
            g, c, r = got[d], chosen[d], later[p]
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


def deannotate_max_by_passes(inst: AnnotatedInstance) -> Deannotation:
    """Reference for ``deannotate_max``: counters, the outside degree and the
    induced graph each read in a pass of their own, the edges summed."""
    if inst.variant != MAX:
        raise GuardViolation("deannotate_max needs the maximization variant")
    s, a = inst.scale, inst.alpha_weight
    if not a:
        raise GuardViolation("de-annotation is impossible for alpha = 0")
    gamma = inst.gamma()
    if inst.n_alive < inst.k:
        raise GuardViolation("de-annotation needs at least k alive vertices")
    inv_floor = s // a
    pad = -(-max(0, 2 * a - s) * (inst.k - 1) // a) if inst.k > 1 else 0
    ell = inst.delta_tbar() + gamma - (-abs(s - 3 * a) * inst.k // a) + inv_floor
    sub, keep = inst.graph.induced(inst.alive_vertices())
    masks, origin, anchor = list(sub.masks), list(keep), [-1] * len(keep)
    nxt = len(keep)
    for i, old_v in enumerate(keep):
        leaves = inst.weights[old_v] // a + inv_floor + pad
        if (inst.tmask >> old_v) & 1:
            leaves += ell
        masks[i] |= ((1 << leaves) - 1) << nxt
        masks.extend([1 << i] * leaves)
        origin.extend([-1] * leaves)
        anchor.extend([i] * leaves)
        nxt += leaves
    new_t = inst.t + Fraction(a * (ell * inst.t_size + (inv_floor + pad) * inst.k), s)
    plain = AnnotatedInstance.plain(Graph.from_masks(masks), inst.k, new_t, inst.alpha, MAX)
    return Deannotation(plain=plain, kind="max-leaves", origin=tuple(origin), anchor=tuple(anchor), ell=ell)


def deannotate_min_by_passes(inst: AnnotatedInstance) -> Deannotation:
    """Reference for ``deannotate_min``, built as :func:`deannotate_max_by_passes` is."""
    if inst.variant != MIN:
        raise GuardViolation("deannotate_min needs the minimization variant")
    s, a = inst.scale, inst.alpha_weight
    if not a:
        raise GuardViolation("de-annotation is impossible for alpha = 0")
    gamma = inst.gamma()
    if inst.n_alive < inst.k:
        raise GuardViolation("de-annotation needs at least k alive vertices")
    delta = max((inst.degree(v) for v in iter_mask(inst.alive)), default=0)
    ell = ((delta + gamma) * s + abs(s - 3 * a) * inst.k) // a + 1
    sub, keep = inst.graph.induced(inst.alive_vertices())
    masks, base, csize = list(sub.masks), len(keep), 2 * ell + 1
    wired = [0] * (csize + 1)
    for i, old_v in enumerate(keep):
        if (inst.tmask >> old_v) & 1:
            continue
        wires = ell + inst.weights[old_v] // a
        if wires > csize:
            raise RuleInternalError("clique too small for counter wiring")
        masks[i] |= ((1 << wires) - 1) << base
        wired[wires] |= 1 << i
    whole = ((1 << csize) - 1) << base
    clique = [0] * csize
    reach = 0
    for j in reversed(range(csize)):
        reach |= wired[j + 1]
        clique[j] = (whole ^ (1 << (base + j))) | reach
    masks.extend(clique)
    new_t = inst.t + Fraction(a * ell * inst.k_prime, s)
    plain = AnnotatedInstance.plain(Graph.from_masks(masks), inst.k, new_t, inst.alpha, MIN)
    origin = tuple(keep) + (-1,) * csize
    return Deannotation(plain=plain, kind="min-clique", origin=origin, anchor=(-1,) * (base + csize), ell=ell)


def max_degree_neighborhood_by_masks(inst: AnnotatedInstance, need: int):
    """Reference for ``rules._max_degree_neighborhood`` on the frozen
    instance: the free vertex of largest degree (lowest index on ties), read
    off the n-bit masks, and the graph induced by its alive neighbors."""
    free = inst.free_vertices()
    v = max(free, key=lambda u: (inst.degree(u), -u), default=None)
    if v is None or inst.degree(v) < need:
        raise ExtractionPreconditionError(f"no free vertex of degree >= {need}")
    sub, back = inst.graph.induced(iter_mask(inst.graph.masks[v] & inst.alive))
    return v, sub, back


def descend_XI_by_masks(inst: AnnotatedInstance, v, start, depth, base, slack, growth_error, audit_key, trace):
    """Reference for ``rules._descend_XI`` on the frozen instance: every
    round scans all alive vertices outside X and counts their neighbors in I
    through the masks."""
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


def scan_optimum(inst: AnnotatedInstance):
    """(decision, optimum, witness) by a plain ``combinations`` scan over
    ``inst.val``, sharing no code with the solvers' walk: the optimum over
    the k-sets containing T, whether it meets t, and on YES the
    lexicographically first optimal k-set.  (False, None, None) when no
    k-set contains T."""
    tset, free = inst.t_vertices(), inst.free_vertices()
    need = inst.k - len(tset)
    if not 0 <= need <= len(free):
        return False, None, None
    values = {tuple(sorted(combo + tset)): inst.val(combo + tset) for combo in combinations(free, need)}
    best = (max if inst.variant == MAX else min)(values.values())
    decision = inst.better_cmp(best, inst.t)
    return decision, best, min(s for s, value in values.items() if value == best) if decision else None


# ---------------------------------------------------------------------------
# Routing by if-chains: the references for the route tables
# ---------------------------------------------------------------------------

def _require_degrading_by_chain(inst: AnnotatedInstance, rule: str) -> None:
    if not inst.degrading:
        bar = "max needs alpha>1/3" if inst.variant == MAX else "min needs alpha<1/3"
        raise GuardViolation(f"{rule} requires degrading variant: {bar}, got {inst.alpha}")
    if not inst.alpha_weight:
        raise GuardViolation(f"{rule} requires alpha > 0")


def run_pipeline_by_chain(inst: AnnotatedInstance, name: str, profile=None, param_override=None):
    """``run_pipeline`` as it stood before the route table: a dispatch by
    name and then by variant, with the guards each kernel body made before
    its first move, in their order.  The kernels it calls check again and
    pass.  Three texts the table reworded are given in their new form, the
    old one beside them; the guards no run can reach (a kernel for one
    variant given the other) are left out."""
    if profile is None:
        profile = alive_profile(inst)
    if name == "auto":
        name = select_pipeline(inst, profile)
    if name == "delta":
        _require_degrading_by_chain(inst, "pipeline=delta")
        return kernel_delta(inst)
    if name == "closure":
        c = param_override if param_override is not None else profile.c_closure
        _require_degrading_by_chain(inst, "pipeline=closure")
        if c < 1:  # was "pipeline=closure requires c >= 1"
            raise GuardViolation(f"pipeline=closure needs a parameter >= 1, got {c}")
        return kernel_closure(inst, c)
    if name == "degeneracy":
        d = param_override if param_override is not None else profile.degeneracy
        if inst.variant == MAX:
            _require_degrading_by_chain(inst, "pipeline=degeneracy")
            if d < 0:  # was "degeneracy must be >= 0"
                raise GuardViolation(f"pipeline=degeneracy needs a parameter >= 0, got {d}")
            return kernel_degeneracy_max(inst, d)
        if not inst.degrading:
            raise GuardViolation(f"pipeline=degeneracy (min) needs alpha<1/3, got {inst.alpha}")
        return kernel_degeneracy_min(inst, d)
    if name == "hindex":
        h = param_override if param_override is not None else profile.h_index
        if inst.variant != MAX:
            raise GuardViolation("pipeline=hindex requires the maximization variant")
        if not inst.alpha_weight:
            raise GuardViolation("pipeline=hindex requires alpha > 0")
        if inst.tmask != 0:
            raise GuardViolation("pipeline=hindex starts from an empty partial solution")
        return kernel_hindex_max(inst, h)
    if name == "vc":
        if profile.vertex_cover is None:
            raise GuardViolation("pipeline=vc requires an exact vertex cover (within the vc budget)")
        if inst.variant == MAX:
            if not inst.alpha_weight:  # was "pipeline=vc (max) requires alpha > 0"
                raise GuardViolation("pipeline=vc requires alpha > 0")
            if inst.tmask != 0:
                raise GuardViolation("pipeline=vc starts from an empty partial solution")
            return kernel_vc_max(inst, profile.vertex_cover)
        if inst.tmask != 0:
            raise GuardViolation("pipeline=vc starts from an empty partial solution")
        return kernel_vc_min(inst, profile.vertex_cover)
    raise GuardViolation(f"unknown pipeline {name!r}")


def solve_by_chain(solver: str, inst: AnnotatedInstance, profile, budget: int) -> SolveResult:
    """``fcgp solve``'s if-chain over the solver names before the solver table."""
    if solver == "brute":
        return brute_force(inst, budget=budget)
    if solver == "branch":
        return branch_degrading(inst, profile.degeneracy, budget=budget)
    if solver == "third":
        return solve_third(inst)
    if solver == "hindex":
        return hindex_fpt_max(inst, profile.h_index, budget=budget)
    if solver == "densest-vc":
        if profile.vertex_cover is None:
            raise GuardViolation("densest-vc needs an exact vertex cover within the vc budget")
        return densest_vc(inst, profile.vertex_cover, budget=budget)
    raise ValueError(f"unknown solver {solver!r}")


def solve_auto_by_chain(inst: AnnotatedInstance, profile=None, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """``solve_auto`` as it stood before the solver table: one if-chain over
    the cases, its min-trivial test inline."""
    if profile is None:
        profile = alive_profile(inst)

    def tag(res: SolveResult, solver_id: str) -> SolveResult:
        return SolveResult(res.decision, res.witness, res.best_value, solver_id, res.nodes_explored)

    route = "brute"
    try:
        if not inst.pair_score:
            return tag(solve_third(inst), "auto:third")
        if (
            inst.variant == MIN
            and inst.degrading
            and inst.is_plain
            and inst.n_alive >= inst.k
            and inst.t >= profile.degeneracy * inst.k
        ):
            sub, back = inst.graph.induced(inst.alive_vertices())
            order, _ = degeneracy_ordering(sub)
            witness = tuple(sorted(back[i] for i in order[:inst.k]))
            value = inst.val(witness)
            if value <= inst.t:
                return SolveResult(True, witness, value, "auto:min-trivial", 0)
        if inst.degrading and inst.alpha_weight:
            route = "branch"
            return tag(branch_degrading(inst, profile.degeneracy, budget), "auto:branch")
        if inst.variant == MAX and inst.alpha == 0 and inst.is_plain and profile.vertex_cover is not None:
            route = "densest-vc"
            return tag(densest_vc(inst, profile.vertex_cover, budget=budget), "auto:densest-vc")
        if inst.variant == MAX and inst.pair_score > 0:
            route = "hindex"
            return tag(hindex_fpt_max(inst, profile.h_index, budget), "auto:hindex")
        route = "brute"
        return tag(brute_force(inst, budget=budget), "auto:brute")
    except BudgetExceeded:
        if route == "brute":
            raise UndecidedWithinBudget("brute-force budget exceeded") from None
        try:
            return tag(brute_force(inst, budget=budget), "auto:brute")
        except BudgetExceeded as exc:
            raise UndecidedWithinBudget(f"route {route} and brute force both exceeded budgets") from exc


def routing_cases(alphas):
    """(instance, profiles) for the differential routing tests: on seeded
    small graphs, both variants and each of ``alphas``, a plain instance (and
    a copy with t = 3n, above degeneracy * k), one with counters 0-2, and one
    with counters and maybe T; each with a minimum cover, a greedy one, and
    none within the budget."""
    for seed in range(6):
        n = 6 + seed % 4
        g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 1 + seed % 3, seed)
        profiles = (compute_profile(g), greedy_cover_profile(g), compute_profile(g, vc_budget=1))
        for variant in (MAX, MIN):
            for j, alpha in enumerate(alphas):
                for counters, allow_t in (((0, 0), False), ((0, 2), False), ((0, 2), True)):
                    inst = gen_annotated(g, 100 * seed + 10 * j + allow_t, alpha, variant, (2, 3), counters, allow_t)
                    yield inst, profiles
                    if counters == (0, 0):
                        yield replace(inst, t=Fraction(3 * n)), profiles


def run_optimized(code: str) -> str:
    """Run ``code`` under ``python -O`` (asserts stripped) and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(fcgp.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout


@pytest.fixture
def tiny_graphs():
    return {
        "p3": path_graph(3),
        "k3": complete_graph(3),
        "k4": complete_graph(4),
        "c4": cycle_graph(4),
        "star5": star_graph(5),
    }
