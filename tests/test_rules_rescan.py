"""The incremental rules against the full rescans they replace.

Each reference below recomputes every count from scratch after every single
move and takes the lowest qualifying index, which is the rule as stated.
The rules must log byte-identical traces on random annotated instances
with T and counters, for both variants.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from fcgp.graph import Graph
from fcgp.instance import MAX, MIN
from fcgp.rules import (
    RuleTrace,
    _closure_better_threshold,
    _exclude_high_degplus,
    _margin_trim_counters,
    _satisfactory,
    _shortcircuit,
    _State,
    rr_closure_better,
    rr_counter_shift,
    rr_delta_better,
    rr_exclude_needless,
    rr_include_satisfactory,
)

from conftest import annotated, apply_rule


def _instance(seed: int, variant: str, alpha: F, top: int = 3, t_hi: int = 6):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    k = rng.randint(1, 4)
    tset = rng.sample(range(n), rng.randint(0, min(k - 1, n - 1, 3)))
    counters = {v: rng.randint(0, top) for v in range(n) if v not in tset}
    t = F(rng.randint(0, 4 * t_hi), 4)
    return annotated(Graph.from_edges(n, edges), tset, counters, k, t, alpha, variant)


CASES = st.tuples(
    st.integers(0, 10**9),
    st.sampled_from(((MAX, F(1, 2)), (MAX, F(2, 3)), (MAX, F(1)), (MIN, F(1, 4)), (MIN, F(1, 5)))),
)


def _first(free, pred):
    return next((v for v in free if pred(v)), None)


def rescan_delta_better(inst, trace):
    while True:
        free = inst.free_vertices()
        bound = (inst.delta_tbar() + 1) * (inst.k - 1) + 1
        c = {v: inst.contribution(v, inst.tmask) for v in free}

        def better(v):
            return sum(1 for u in free if u != v and inst.better_cmp(c[u], c[v]))

        v = _first(free, lambda v: better(v) >= bound)
        if v is None:
            trace.audit("delta_better_free", len(free))
            trace.audit("delta_better_bound", bound)
            return inst
        note = f"better={better(v)} bound={bound}"
        before, inst = inst.t, inst.exclude(v)
        trace.log("delta:better", "exclude", (v,), inst.t - before, note)


def rescan_exclude_needless(inst, trace):
    while inst.n_alive >= inst.k:
        thr = inst.t_prime() / inst.k_prime - (3 * inst.alpha - 1) * (inst.k - 1) ** 2
        sign = 1 if inst.variant == MAX else -1
        v = _first(inst.free_vertices(), lambda v: sign * (inst.contribution(v, inst.tmask) - thr) < 0)
        if v is None:
            return inst
        before, inst = inst.t, inst.exclude(v)
        trace.log("general:exclude-low", "exclude", (v,), inst.t - before, "needless")
        if _satisfactory(_State(inst)) is not None:
            return inst
    return inst


def rescan_closure_better(inst, c, trace):
    thr = _closure_better_threshold(c, inst.k)
    while True:
        def x(v):
            mine = inst.deg_bonus(v)
            alive = (u for u in inst.alive_vertices() if inst.graph.has_edge(u, v))
            return sum(1 for u in alive if inst.better_cmp(inst.deg_bonus(u), mine))

        v = _first(inst.free_vertices(), lambda v: x(v) > thr)
        if v is None:
            return inst
        note = f"xv={x(v)} thr={thr}"
        before, inst = inst.t, inst.exclude(v)
        trace.log("closure:better", "exclude", (v,), inst.t - before, note)


def rescan_margin_trim(inst, trace):
    margin = abs((1 - 3 * inst.alpha) * inst.k)
    while True:
        sc = _shortcircuit(inst)
        if sc is not None:
            return sc + (inst,)
        inst = apply_rule(rr_counter_shift, inst, trace)
        free = inst.free_vertices()
        sign = 1 if inst.variant == MAX else -1

        def strictly_better(w, v):
            return sign * (inst.deg_bonus(w) - inst.deg_bonus(v)) >= margin

        v = _first(free, lambda v: sum(1 for w in free if w != v and strictly_better(w, v)) >= inst.k_prime)
        if v is not None:
            before, inst = inst.t, inst.exclude(v)
            trace.log("hindex:counter-trim", "exclude", (v,), inst.t - before, "dominated")
            continue
        v = _first(free, lambda v: sum(1 for w in free if w != v and not strictly_better(v, w)) < inst.k_prime)
        if v is None:
            return inst
        before, inst = inst.t, inst.include(v)
        trace.log("hindex:counter-trim", "include", (v,), inst.t - before, "dominating")


def rescan_high_degplus(inst, trace):
    while True:
        v = _first(inst.free_vertices(), lambda v: inst.deg_bonus(v) >= inst.t + inst.k)
        if v is None:
            return inst
        before, inst = inst.t, inst.exclude(v)
        trace.log("min:high-degplus", "exclude", (v,), inst.t - before, "t+k bound")
        sc = _shortcircuit(inst)
        if sc is not None:
            return sc + (inst,)


def _same(rule, reference, inst, *args):
    got, want = RuleTrace(pipeline="rule"), RuleTrace(pipeline="rule")
    out = apply_rule(rule, inst, *args, got)
    ref = reference(inst, *args, want)
    assert got.to_text() == want.to_text()
    if isinstance(out, tuple):
        out, ref = out[2], ref[2]
    assert (out.alive, out.tmask, out.bonus, out.t) == (ref.alive, ref.tmask, ref.bonus, ref.t)


@settings(max_examples=300, deadline=None)
@given(CASES)
def test_delta_better_matches_rescan(case):
    seed, (variant, alpha) = case
    _same(rr_delta_better, rescan_delta_better, _instance(seed, variant, alpha))


@settings(max_examples=300, deadline=None)
@given(CASES, st.integers(0, 40))
def test_exclude_needless_matches_rescan(case, t2):
    seed, (variant, alpha) = case
    # thresholds up to 20 leave few satisfactory and many needless vertices
    start = apply_rule(rr_include_satisfactory, replace(_instance(seed, variant, alpha), t=F(t2, 2)))
    if not isinstance(start, tuple):
        _same(rr_exclude_needless, rescan_exclude_needless, start)


@settings(max_examples=300, deadline=None)
@given(CASES, st.integers(1, 3))
def test_closure_better_matches_rescan(case, c):
    seed, (variant, alpha) = case
    _same(rr_closure_better, rescan_closure_better, _instance(seed, variant, alpha), c)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((F(1, 4), F(1, 3), F(1, 2), F(1))))
def test_margin_trim_matches_rescan(seed, alpha):
    inst = _instance(seed, MAX, alpha)
    _same(_margin_trim_counters, rescan_margin_trim, inst)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from((F(1, 4), F(1, 5), F(1, 8))))
def test_high_degplus_matches_rescan(seed, alpha):
    # large counters and a small t, so that exclusions next to T matter
    _same(_exclude_high_degplus, rescan_high_degplus, _instance(seed, MIN, alpha, top=12, t_hi=2))

