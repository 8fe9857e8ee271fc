"""Shared builders for the test suite.

All randomness is seeded; the helpers below define the instance streams the
oracle-equivalence tests draw from.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Sequence

import pytest

import fcgp
from fcgp.graph import Graph, ParameterProfile, RuleInternalError, compute_profile, iter_mask, mask_of
from fcgp.harness import gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, AnnotatedInstance, GuardViolation
from fcgp.ramsey import ExtractionPreconditionError
from fcgp.rules import RuleTrace, _Decided, _State


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
