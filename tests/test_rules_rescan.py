"""The incremental rules against the full rescans they replace.

Each reference below recomputes every count from scratch after every single
move and takes the lowest qualifying index, which is the rule as stated.
The rules must log byte-identical traces on random annotated instances
with T and counters, for both variants.  The X/I extractions, which read
the working state, are checked round by round against the mask-based
references in ``conftest.py`` that scan the frozen instance.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from fcgp import rules
from fcgp.graph import Graph, RuleInternalError
from fcgp.instance import MAX, MIN
from fcgp.ramsey import ExtractionPreconditionError
from fcgp.rules import (
    KERNELIZED,
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
    run_pipeline,
)

from conftest import (
    annotated, apply_rule, descend_XI_by_masks, max_degree_neighborhood_by_masks, needless_threshold,
)
from test_graph import _hub_graph
from test_trace_golden import _book, _caterpillar


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
        thr = needless_threshold(inst)
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


# ---------------------------------------------------------------------------
# X/I extraction on the working state against the mask-based references
# ---------------------------------------------------------------------------

def _shared_pages(seed: int) -> Graph:
    """Hub 0 sees 40 to 160 pages and some leaves of its own; 1 to 4 more hubs
    each see a random share of the pages or a run of 4 to 16 of the first
    pages, so that several vertices outside X see much of I and the lowest
    index decides which one joins."""
    rng = random.Random(seed)
    hubs, pages, leaves = rng.randint(2, 5), rng.choice((40, 60, 160)), rng.randint(0, 30)
    edges = [(0, hubs + i) for i in range(pages + leaves)]
    for h in range(1, hubs):
        if rng.random() < 0.5:
            share = rng.choice((0.3, 0.6, 0.9))
            seen = [i for i in range(pages) if rng.random() < share]
        else:
            lo = rng.randrange(16)
            seen = range(lo, lo + rng.randint(4, 16))
        edges += [(h, hubs + i) for i in seen]
    return Graph.from_edges(hubs + pages + leaves, edges)


def _xi_graph(seed: int) -> Graph:
    """Hub trees (some with chords), caterpillars, books and shared pages."""
    family = seed % 6
    if family == 3:
        return _book(40 * (1 + seed // 6 % 4))
    if family >= 4:
        return _shared_pages(seed)
    rng = random.Random(seed)
    if family == 2:
        return _caterpillar(tuple(rng.randint(15, 60) for _ in range(rng.randint(2, 4))))
    n = rng.choice((60, 100, 160, 240))
    return _hub_graph(n, rng, rng.choice((0, 0, n // 20, n // 6)))


def _xi_instance(seed: int, g: Graph):
    """Max, k 2 or 3, t up to the top-k degree sum; half the seeds put a hub
    or a leaf into T and counters on the free vertices, and a third delete
    the free vertex of second highest degree."""
    rng = random.Random(seed)
    k = rng.choice((2, 2, 3))
    alpha = rng.choice((F(1, 2), F(2, 3), F(1)))
    t = alpha * sum(sorted(map(g.degree, range(g.n)))[-k:]) * rng.randint(0, 3) / 3
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    tset, counters = [], {}
    if seed % 2:
        tset = [rng.choice((by_degree[0], g.n - 1))][: k - 1]
        counters = {v: rng.randint(0, 2) for v in range(g.n) if v not in tset}
    inst = annotated(g, tset, counters, k, t, alpha, MAX)
    if seed % 3 == 0:
        inst = inst.exclude(next(v for v in by_degree[1:] if v not in tset))
    return inst


def _key(result):
    return (type(result).__name__, str(result)) if isinstance(result, Exception) else result


def _either(fn, *args):
    try:
        return fn(*args)
    except (ExtractionPreconditionError, RuleInternalError) as exc:
        return exc


def _check_xi_rounds(monkeypatch) -> list:
    """Route every X/I round through both implementations: the state-based
    helpers of ``rules`` and the mask-based references on ``st.freeze()``.
    Each round must pick the same vertex and neighborhood and return the
    same (X, I), or raise the same error, with the same audit.  Returns the
    record of every descent."""
    rounds = []
    neighborhood, descend = rules._max_degree_neighborhood, rules._descend_XI

    def checked_neighborhood(st, need):
        got = _either(neighborhood, st, need)
        assert _key(got) == _key(_either(max_degree_neighborhood_by_masks, st.freeze(), need))
        if isinstance(got, Exception):
            raise got
        return got

    def checked_descend(st, v, start, *params):
        *params, trace = params
        start = tuple(start)
        mine, ref = RuleTrace(pipeline="state"), RuleTrace(pipeline="masks")
        got = _either(descend, st, v, start, *params, mine)
        want = _either(descend_XI_by_masks, st.freeze(), v, start, *params, ref)
        assert (_key(got), mine.audits) == (_key(want), ref.audits)
        rounds.append(_key(got))
        if isinstance(got, Exception):
            raise got
        if trace is not None:
            trace.audits.update(mine.audits)
        return got

    monkeypatch.setattr(rules, "_max_degree_neighborhood", checked_neighborhood)
    monkeypatch.setattr(rules, "_descend_XI", checked_descend)
    return rounds


@pytest.mark.parametrize("pipeline, params", [("closure", (2, 3)), ("degeneracy", (1, 2))])
def test_xi_rounds_match_the_mask_scans(monkeypatch, pipeline, params):
    # closure runs kernel_closure with c in params, degeneracy runs
    # kernel_degeneracy_max with d in params; a parameter below the graph's
    # own makes the descent grow past its depth, which must fail alike
    rounds = _check_xi_rounds(monkeypatch)
    outcomes = set()
    for seed in range(60):
        inst = _xi_instance(seed, _xi_graph(seed))
        for param in params:
            try:
                outcomes.add(run_pipeline(inst, pipeline, param_override=param).status)
            except ExtractionPreconditionError:
                outcomes.add("growth")
    extracted = [r for r in rounds if isinstance(r[0], tuple)]
    assert len(extracted) >= 100 and {len(xs) for xs, _ in extracted} >= {1, 2}
    assert KERNELIZED in outcomes and "growth" in outcomes
