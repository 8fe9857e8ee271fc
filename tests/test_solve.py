from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcgp.solve as solve_mod
from fcgp.graph import Graph, RuleInternalError, compute_profile
from fcgp.harness import gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, MIN, Deannotation, GuardViolation, deannotate_max, deannotate_min
from fcgp.rules import KERNELIZED, KernelOutcome, alive_profile
from fcgp.solve import (
    DEFAULT_BUDGET,
    SOLVERS,
    BudgetExceeded,
    SolveResult,
    UndecidedWithinBudget,
    _twin_classes,
    branch_degrading,
    brute_force,
    densest_vc,
    hindex_fpt_max,
    solve_auto,
    solve_bounded_degree,
    solve_third,
    twin_oracle,
)

from conftest import (
    annotated,
    best_subset_by_methods,
    complete_graph,
    deannotate_max_by_passes,
    deannotate_min_by_passes,
    path_graph,
    plain,
    routing_cases,
    scan_optimum,
    seeded_instances,
    solve_auto_by_chain,
    solve_by_chain,
    star_graph,
    twin_classes_by_buckets,
)
from test_acceptance import ALPHAS, RULE_MATRIX, _apply_rule, _instances


# -- brute force ----------------------------------------------------------------

def test_brute_k3():
    inst = plain(complete_graph(3), 2, F(3, 2), F(1, 2), MAX)
    res = brute_force(inst)
    assert res.decision and res.best_value == F(3, 2) and res.witness == (0, 1)


def test_brute_p3_min_leaf():
    inst = plain(path_graph(3), 1, 1, F(1), MIN)
    res = brute_force(inst)
    assert res.decision and res.best_value == 1 and res.witness == (0,)


def test_brute_matches_independent_reenumeration():
    # every enumeration depth, need = 0..6, against a plain combinations scan
    for variant, alpha, need in product((MAX, MIN), (F(0), F(1, 3), F(1, 2), F(1)), range(7)):
        g = gen_gnp(11, 1, 2, need + 50)
        tset = (need % 3, 5) if need % 2 else ()
        counters = {v: (v * need) % 3 for v in range(11) if v not in tset}
        t = 0 if variant == MAX else 10**6  # always met, so the witness is reported
        inst = annotated(g, tset, counters, need + len(tset), t, alpha, variant)
        free = inst.free_vertices()
        values = {combo: inst.val(combo + tset) for combo in combinations(free, need)}
        best = (max if variant == MAX else min)(values.values())
        first = next(combo for combo, value in values.items() if value == best)
        res = brute_force(inst)
        assert res.best_value == best and res.witness == tuple(sorted(first + tset))


def test_brute_budget():
    g = gen_gnp(24, 1, 2, 1)
    with pytest.raises(BudgetExceeded):
        brute_force(plain(g, 12, 0, F(1, 2), MAX), budget=1000)


def test_brute_infeasible_k():
    inst = plain(path_graph(3), 5, 0, F(1, 2), MAX)
    res = brute_force(inst)
    assert not res.decision and res.best_value is None


def test_brute_respects_t_set():
    inst = annotated(path_graph(4), [0], {}, 2, 0, F(1, 2), MAX)
    res = brute_force(inst)
    assert 0 in res.witness


# -- twin-class oracle --------------------------------------------------------------

def _assert_same_answer(inst, budget=2_000_000):
    ref = brute_force(inst, budget=budget)
    res = twin_oracle(inst)
    assert (res.decision, res.best_value, res.witness) == (ref.decision, ref.best_value, ref.witness), inst.to_text()


def _assert_twin_partition(inst, classes):
    """Classes partition the free vertices, in index order; each holds
    pairwise false twins or pairwise true twins, and holds every twin."""
    free = inst.free_vertices()
    assert sorted(v for c in classes for v in c) == list(free)
    assert all(list(c) == sorted(c) for c in classes)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    opened = {v: (inst.graph.masks[v] & inst.alive, inst.weights[v]) for v in free}
    closed = {v: (inst.graph.masks[v] & inst.alive | 1 << v, inst.weights[v]) for v in free}
    home = {v: c for c in classes for v in c}
    for v in free:
        false_twins = {u for u in free if u != v and opened[u] == opened[v]}
        true_twins = {u for u in free if u != v and closed[u] == closed[v]}
        assert not (false_twins and true_twins), v
        assert set(home[v]) == {v} | false_twins | true_twins


def test_twin_classes_of_leaves_and_a_wired_clique():
    # leaves 1-3 on anchor 0 are false twins; clique 4-6, of which 0 is wired
    # to the prefix 4, 5, has true twins 4 and 5
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6), (0, 4), (0, 5)])
    inst = plain(g, 2, 0, F(1, 2), MAX)
    assert _twin_classes(inst) == [(0,), (1, 2, 3), (4, 5), (6,)]
    assert _twin_classes(annotated(g, [1], {2: 1}, 2, 0, F(1, 2), MAX)) == [(0,), (2,), (3,), (4, 5), (6,)]
    # an excluded leaf leaves the class; its anchor gains a counter
    assert _twin_classes(inst.exclude(3)) == [(0,), (1, 2), (4, 5), (6,)]
    for cur in (inst, inst.exclude(3), annotated(g, [1], {2: 1}, 2, 0, F(1, 2), MAX)):
        _assert_twin_partition(cur, _twin_classes(cur))


def test_twin_oracle_counts_vectors_not_subsets():
    # the 40 leaves are one class, so the hub in or out are the only two count
    # vectors; brute force walks far more of the C(41, 5) subsets
    inst = plain(star_graph(40), 5, 0, F(1, 2), MAX)
    ref = brute_force(inst, budget=comb(41, 5) // 10)
    res = twin_oracle(inst, budget=10)
    assert (res.nodes_explored, ref.nodes_explored) == (9, 19_761)
    assert (res.decision, res.best_value, res.witness) == (ref.decision, ref.best_value, ref.witness)


def test_twin_oracle_stops_after_budget_visits():
    # C(24, 6) = 134,596 subsets; the walk is not refused up front for them,
    # it runs until it has visited its budget
    inst = plain(gen_gnp(24, 1, 2, 1), 6, 0, F(1, 2), MAX)
    res = twin_oracle(inst)
    assert res.nodes_explored == 22_625
    assert twin_oracle(inst, budget=res.nodes_explored) == res
    for budget in (0, 1, 1000, res.nodes_explored - 1):
        with pytest.raises(BudgetExceeded, match="passed its node budget"):
            twin_oracle(inst, budget=budget)


def test_twin_oracle_infeasible_k():
    res = twin_oracle(plain(path_graph(3), 5, 0, F(1, 2), MAX))
    assert not res.decision and res.best_value is None and res.nodes_explored == 0


def test_twin_oracle_matches_brute_on_the_acceptance_families():
    kernels = 0
    for target, variant, alphas, allow_t in RULE_MATRIX:
        for alpha in alphas:
            for inst in _instances(variant, alpha, 8, "twin-" + target, allow_t):
                _assert_same_answer(inst)
                try:
                    after = _apply_rule(target, inst)
                except GuardViolation:
                    continue
                if isinstance(after, KernelOutcome) and after.status == KERNELIZED:
                    kernel = after.plain
                    try:
                        _assert_same_answer(kernel, budget=200_000)
                    except BudgetExceeded:
                        continue
                    kernels += 1
    assert kernels >= 100, kernels


@st.composite
def _planted_twins(draw, alpha=None, variant=None):
    """A small instance with planted twin classes: pendant leaves on one anchor
    and a clique wired by prefix, as the de-annotations build them, under a
    random relabelling, with T, counters and excluded vertices.  Alpha and
    the variant are drawn unless given."""
    base = draw(st.integers(2, 5))
    edges = [(u, v) for u in range(base) for v in range(u + 1, base) if draw(st.booleans())]
    n = base
    for anchor in range(base):
        leaves = draw(st.integers(0, 3))
        edges += [(anchor, n + j) for j in range(leaves)]
        n += leaves
    clique = list(range(n, n + draw(st.integers(0, 5))))
    n += len(clique)
    edges += list(combinations(clique, 2))
    for v in range(base):
        edges += [(v, c) for c in clique[: draw(st.integers(0, len(clique)))]]
    perm = draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    tset = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    counters = {v: draw(st.sampled_from((0, 0, 0, 1, 2))) for v in range(n) if v not in tset}
    if alpha is None:
        alpha = draw(st.sampled_from(ALPHAS))
    if variant is None:
        variant = draw(st.sampled_from((MAX, MIN)))
    k = draw(st.integers(len(tset), min(len(tset) + 4, n)))
    t = draw(st.sampled_from((None, F(0), F(3), F(13, 2), F(12))))
    if t is None:  # always met, so the witness is compared too
        t = 0 if variant == MAX else 10**6
    inst = annotated(g, tset, counters, k, t, alpha, variant)
    for pick in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        free = inst.free_vertices()
        if len(free) > k - len(tset):
            inst = inst.exclude(free[pick % len(free)])
    return inst


@settings(max_examples=300, deadline=None)
@given(inst=_planted_twins())
def test_twin_oracle_matches_brute_on_planted_twins(inst):
    _assert_twin_partition(inst, _twin_classes(inst))
    _assert_same_answer(inst)


@pytest.mark.parametrize("variant", (MAX, MIN))
@pytest.mark.parametrize("alpha", ALPHAS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_solvers_match_a_combinations_scan(alpha, variant, data):
    # the relabelling puts the twin classes out of index order, so equal
    # scores go through the walk's tie branch; pair_score is positive below
    # alpha = 1/3 for Max (above it for Min), zero at 1/3, negative otherwise
    inst = data.draw(_planted_twins(alpha, variant))
    _, opt, _ = scan_optimum(inst)
    for t in (opt, opt + inst.sign * F(1, inst.scale)):  # the optimum, one score step past it
        cur = replace(inst, t=t)
        want = scan_optimum(cur)
        assert want[0] == (t == opt)
        results = [brute_force(cur), twin_oracle(cur), solve_bounded_degree(cur)]
        if variant == MAX and alpha < F(1, 3):
            results.append(hindex_fpt_max(cur, alive_profile(cur).h_index))
        for res in results:
            assert (res.decision, res.best_value, res.witness) == want, (res.solver_id, cur.to_text())


@settings(max_examples=200, deadline=None)
@given(inst=_planted_twins())
def test_budget_is_the_nodes_a_search_visits(inst):
    # the count is the walk itself: a budget of exactly the nodes visited gives
    # the same result, one node less stops the search
    solvers = [brute_force, twin_oracle, solve_bounded_degree]
    if inst.variant == MAX and inst.pair_score > 0:  # hindex-fpt's guard
        h = alive_profile(inst).h_index
        solvers.append(lambda inst, budget: hindex_fpt_max(inst, h, budget))
    for solver in solvers:
        res = solver(inst, budget=2_000_000)
        assert solver(inst, budget=res.nodes_explored) == res
        if res.nodes_explored:
            with pytest.raises(BudgetExceeded):
                solver(inst, budget=res.nodes_explored - 1)


def _long_class_kernels():
    """De-annotated kernels with a twin class longer than k': the clique of
    Min alpha = 1/4 with k = 3-4, and the leaves on a T-vertex of Max; the
    threshold is the optimum (yes) or one step past it (no)."""
    for seed in range(4):
        g = gen_gnp(4, 1, 3, seed + 40)
        counters = {v: (seed + v) % 2 for v in range(4)}
        for deann_fn, inst in (
            (deannotate_min, annotated(g, [], counters, 3 + seed % 2, 0, F(1, 4), MIN)),
            (deannotate_max, annotated(g, [seed], counters | {seed: 0}, 2 + seed % 2, 0, F(1, 2), MAX)),
        ):
            opt = brute_force(inst).best_value
            yield deann_fn(replace(inst, t=opt if seed % 2 else opt + inst.sign * F(1, 4))).plain


def test_twin_oracle_takes_at_most_k_prime_per_class(monkeypatch):
    walk, walked = solve_mod._best_subset, []

    def best_subset(inst, classes, need, base, budget):
        walked.append(max(map(len, classes)) <= need)
        return walk(inst, classes, need, base, budget)

    monkeypatch.setattr(solve_mod, "_best_subset", best_subset)
    for kernel in _long_class_kernels():
        sizes = [len(c) for c in _twin_classes(kernel)]
        assert max(sizes) > kernel.k_prime
        ref = brute_force(kernel)
        res = twin_oracle(kernel)
        assert (res.decision, res.best_value, res.witness) == (ref.decision, ref.best_value, ref.witness)
    assert walked and all(walked)


def _solved(solver, inst, budget):
    try:
        return solver(inst, budget=budget)
    except BudgetExceeded as exc:
        return repr(exc)


def _classes_by_buckets(inst, cap):
    return [c[:cap] for c in twin_classes_by_buckets(inst)]


def _solved_by_references(solver, inst, budget):
    """``solver`` run with the twin classes and the walk's scores set up by the references."""
    with mock.patch.object(solve_mod, "_twin_classes", _classes_by_buckets), \
            mock.patch.object(solve_mod, "_best_subset", best_subset_by_methods):
        return _solved(solver, inst, budget)


def _gadget(build, inst):
    try:
        return build(inst)
    except (GuardViolation, RuleInternalError) as exc:
        return repr(exc)


@settings(max_examples=150, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), variant=st.sampled_from((MAX, MIN)), seed=st.integers(0, 10**6), dead=st.integers(0, 2))
def test_one_pass_setup_matches_the_references(alpha, variant, seed, dead):
    # annotated instances with T and counters, some vertices excluded so the
    # gadget relabels, and the gadgets built from them: every field of the
    # three walk solvers' results, nodes included, and every gadget field
    n = 4 + seed % 7
    g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 1 + seed % 3, seed)
    inst = gen_annotated(g, seed, alpha, variant, (1, 3), (0, 2))
    for _ in range(dead):
        free = inst.free_vertices()
        if len(free) > inst.k_prime:
            inst = inst.exclude(free[seed % len(free)])
    if variant == MAX:
        deann, want = _gadget(deannotate_max, inst), _gadget(deannotate_max_by_passes, inst)
    else:
        deann, want = _gadget(deannotate_min, inst), _gadget(deannotate_min_by_passes, inst)
    assert deann == want
    for cur in (inst, deann.plain) if isinstance(deann, Deannotation) else (inst,):
        cap = max(cur.k_prime, 1)  # a class keeps its first member even at k' = 0
        assert _twin_classes(cur, cap) == _classes_by_buckets(cur, cap)
        for solver in (twin_oracle, brute_force, solve_bounded_degree):
            got = _solved(solver, cur, 30_000)
            assert got == _solved_by_references(solver, cur, 30_000), (solver.__name__, cur.to_text())


# -- branch_degrading --------------------------------------------------------------

def test_branch_immediate_accept_on_independent_layer():
    # large independent L accepts without deep branching
    g = Graph.from_edges(12, [])
    inst = annotated(g, [], {v: 2 for v in range(12)}, 3, 3, F(1, 2), MAX)
    res = branch_degrading(inst, 0)
    assert res.decision and res.best_value == 3
    assert inst.val(res.witness) >= inst.t


def test_branch_empty_layer_is_no():
    inst = plain(path_graph(4), 2, 100, F(1, 2), MAX)
    res = branch_degrading(inst, 1)
    assert not res.decision


def test_branch_guard():
    with pytest.raises(GuardViolation):
        branch_degrading(plain(path_graph(3), 1, 0, F(1, 4), MAX), 1)
    with pytest.raises(GuardViolation):
        branch_degrading(plain(path_graph(3), 1, 0, F(0), MIN), 1)


DEGRADING = [(MAX, F(1, 2)), (MAX, F(1)), (MIN, F(1, 4)), (MIN, F(1, 6))]


@pytest.mark.parametrize(
    "variant,alpha,n_hi,k_hi",
    # the deep rows have trees where the rising bound prunes subtrees already open
    [pytest.param(v, a, 10, 3, id=f"{v}-alpha{i}") for i, (v, a) in enumerate(DEGRADING)]
    + [pytest.param(v, a, 14, 5, id=f"{v}-alpha{i}-deep") for i, (v, a) in enumerate(DEGRADING)],
)
def test_branch_agrees_with_brute(variant, alpha, n_hi, k_hi):
    for _, inst in seeded_instances(40, alpha, variant, base_seed=12_000, n_hi=n_hi, k_hi=k_hi):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        d = compute_profile(sub).degeneracy
        ref = brute_force(inst)
        res = branch_degrading(inst, d)
        assert res.decision == ref.decision
        if ref.decision:
            assert res.best_value == ref.best_value
            assert res.witness == ref.witness


def test_branch_node_bound():
    # on NO the bound never rises, so the whole walk is the decision tree
    noes = 0
    for seed in range(30):
        g = gen_degenerate(10, 2, seed + 70)
        d = compute_profile(g).degeneracy
        inst = gen_annotated(g, seed, F(1, 2), MAX, (1, 3), (0, 1))
        res = branch_degrading(inst, d)
        if not res.decision:
            noes += 1
            assert res.nodes_explored <= ((d + 1) * inst.k + 1) ** inst.k + 1
    assert noes >= 10


# -- alpha = 1/3 ---------------------------------------------------------------------

def test_third_star_max_center():
    inst = plain(star_graph(4), 1, F(4, 3), F(1, 3), MAX)
    res = solve_third(inst)
    assert res.decision and res.best_value == F(4, 3) and res.witness == (0,)


def test_third_star_min_leaf():
    inst = plain(star_graph(4), 1, F(1, 3), F(1, 3), MIN)
    res = solve_third(inst)
    assert res.decision and res.best_value == F(1, 3) and res.witness == (1,)


def test_third_agrees_with_brute():
    for variant in (MAX, MIN):
        for _, inst in seeded_instances(40, F(1, 3), variant, base_seed=13_000):
            ref = brute_force(inst)
            res = solve_third(inst)
            assert (res.decision, res.best_value) == (ref.decision, ref.best_value)


def test_third_guard():
    with pytest.raises(GuardViolation):
        solve_third(plain(path_graph(3), 1, 0, F(1, 2), MAX))


# -- bounded-degree component solver ----------------------------------------------------

def test_bounded_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    inst = plain(g, 2, 1, F(0), MAX)
    res = solve_bounded_degree(inst)
    assert res.decision and res.best_value == 1 and res.witness in ((0, 1), (2, 3))


def test_bounded_all_singletons_top_bonuses():
    g = Graph.from_edges(4, [])
    inst = annotated(g, [], {0: 1, 1: 5, 2: 3, 3: 0}, 2, 4, F(1, 2), MAX)
    res = solve_bounded_degree(inst)
    assert res.decision and res.best_value == F(8, 2)
    assert res.witness == (1, 2)


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MIN, F(1, 4)), (MAX, F(0)), (MIN, F(1))])
def test_bounded_agrees_with_brute(variant, alpha):
    for _, inst in seeded_instances(40, alpha, variant, base_seed=14_000):
        ref = brute_force(inst)
        res = solve_bounded_degree(inst)
        assert (res.decision, res.best_value, res.witness) == (ref.decision, ref.best_value, ref.witness)


def _agree_with_brute(inst, h):
    ref = brute_force(inst)
    want = (ref.decision, ref.best_value, ref.witness)
    for res in (solve_bounded_degree(inst), hindex_fpt_max(inst, h)):
        assert (res.decision, res.best_value, res.witness) == want


@pytest.mark.parametrize("t", [F(0), F(3), F(9, 2), F(6)])
def test_t_vertex_joins_two_free_components(t):
    # T = {2} links the free paths 0-1 and 3-4; their value is still additive
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for k in (3, 4, 5):
        inst = annotated(g, [2], {0: 1, 4: 2}, k, t, F(1, 4), MAX)
        _agree_with_brute(inst, 2)


@pytest.mark.parametrize("t", [F(1), F(7, 2), F(5)])
def test_t_hub_with_counters_on_its_neighbours(t):
    # hub 0 in T, counters on its leaves and on the free hub 5
    g = Graph.from_edges(9, [(0, i) for i in range(1, 6)] + [(5, 6), (5, 7), (5, 8), (1, 2), (6, 7)])
    for alpha in (F(0), F(1, 4)):
        for k in (2, 3, 4):
            inst = annotated(g, [0], {1: 2, 3: 1, 5: 3, 6: 1}, k, t, alpha, MAX)
            for h in (1, 2):
                _agree_with_brute(inst, h)


def test_bounded_budget():
    g = complete_graph(26)
    with pytest.raises(BudgetExceeded):
        solve_bounded_degree(plain(g, 13, 0, F(1, 2), MAX), budget=1000)


# -- h-index FPT ----------------------------------------------------------------------

def test_hindex_no_hubs_single_residual():
    inst = plain(path_graph(6), 2, 1, F(1, 4), MAX)
    h = compute_profile(path_graph(6)).h_index
    res = hindex_fpt_max(inst, h)
    ref = brute_force(inst)
    assert (res.decision, res.best_value) == (ref.decision, ref.best_value)


def test_hindex_star_instances():
    for leaves in (4, 6, 8):
        g = star_graph(leaves)
        for t in (0, 1, 2, 5):
            inst = plain(g, 2, t, F(1, 4), MAX)
            res = hindex_fpt_max(inst, 1)
            ref = brute_force(inst)
            assert (res.decision, res.best_value) == (ref.decision, ref.best_value)


@pytest.mark.parametrize("alpha", [F(0), F(1, 4)])
def test_hindex_agrees_with_brute(alpha):
    for _, inst in seeded_instances(40, alpha, MAX, base_seed=15_000):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        h = compute_profile(sub).h_index
        ref = brute_force(inst)
        res = hindex_fpt_max(inst, h)
        assert (res.decision, res.best_value, res.witness) == (ref.decision, ref.best_value, ref.witness)
        if res.decision:
            assert inst.is_solution(res.witness)


def test_hindex_guard():
    with pytest.raises(GuardViolation):
        hindex_fpt_max(plain(path_graph(3), 1, 0, F(1, 2), MAX), 1)


def test_hindex_branch_budget():
    # the hub in or out: two branches, each one node plus its residual walk
    # over the leaves, all charged to one budget
    inst = plain(star_graph(9), 3, 1, F(1, 4), MAX)
    res = hindex_fpt_max(inst, 1)
    residuals = [solve_bounded_degree(inst.include(0)), solve_bounded_degree(inst.exclude(0))]
    assert res.nodes_explored == 2 + sum(r.nodes_explored for r in residuals)
    for budget in (0, 1, res.nodes_explored - 1):
        with pytest.raises(BudgetExceeded):
            hindex_fpt_max(inst, 1, budget)


# -- densest k-subgraph with vertex cover -------------------------------------------------

def test_densest_k4_triangle():
    inst = plain(complete_graph(4), 3, 3, F(0), MAX)
    cover = compute_profile(complete_graph(4)).vertex_cover
    res = densest_vc(inst, cover)
    assert res.decision and res.best_value == 3


def test_densest_star_center_plus_leaves():
    inst = plain(star_graph(4), 3, 2, F(0), MAX)
    res = densest_vc(inst, (0,))
    assert res.decision and res.best_value == 2 and 0 in res.witness


def test_densest_agrees_with_brute():
    for _, inst in seeded_instances(40, F(0), MAX, base_seed=16_000, allow_t=False, counters=(0, 0)):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        cover = compute_profile(sub).vertex_cover
        ref = brute_force(inst)
        res = densest_vc(inst, cover)
        assert (res.decision, res.best_value) == (ref.decision, ref.best_value)


def test_densest_budget_counts_enumerated_subsets():
    # a 23-edge matching: the cover has 23 vertices, k = 2 enumerates 1 + 23 + 253 of its subsets
    g = Graph.from_edges(46, [(2 * i, 2 * i + 1) for i in range(23)])
    inst = plain(g, 2, 1, F(0), MAX)
    cover = tuple(range(0, 46, 2))
    res = densest_vc(inst, cover, budget=277)
    assert (res.decision, res.best_value, res.nodes_explored) == (True, 1, 277)
    with pytest.raises(BudgetExceeded, match="277 cover subsets"):
        densest_vc(inst, cover, budget=276)


def test_densest_rejects_bad_cover():
    inst = plain(path_graph(4), 2, 1, F(0), MAX)
    with pytest.raises(GuardViolation, match="uncovered"):
        densest_vc(inst, (0,))


# -- auto routing ----------------------------------------------------------------------------

def test_auto_routes_and_agrees():
    routes = set()
    for variant in (MAX, MIN):
        for alpha in (F(0), F(1, 4), F(1, 3), F(1, 2), F(1)):
            for _, inst in seeded_instances(8, alpha, variant, base_seed=17_000):
                ref = brute_force(inst)
                res = solve_auto(inst)
                assert res.decision == ref.decision
                if res.decision:
                    assert inst.is_solution(res.witness)
                routes.add(res.solver_id)
    assert "auto:third" in routes
    assert "auto:branch" in routes
    assert any(r in routes for r in ("auto:brute", "auto:hindex", "auto:densest-vc"))


def test_auto_cover_of_an_instance_with_dead_vertices():
    # the cover must be in the instance's indices, not the alive subgraph's
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    inst = plain(g, 2, 0, F(0), MAX).exclude(0)
    ref = brute_force(inst)
    res = solve_auto(inst)
    assert res.solver_id == "auto:densest-vc"
    assert (res.decision, res.best_value) == (ref.decision, ref.best_value) == (True, 1)
    assert inst.is_solution(res.witness)


def test_auto_min_trivial_route():
    g = gen_degenerate(9, 2, 3)
    d = compute_profile(g).degeneracy
    inst = plain(g, 3, d * 3 + 1, F(1, 4), MIN)
    res = solve_auto(inst)
    assert res.decision and res.solver_id == "auto:min-trivial"
    assert inst.val(res.witness) <= inst.t


def _solved(solve, *args):
    try:
        return solve(*args)
    except (GuardViolation, BudgetExceeded) as exc:  # the refusals and budget failures must match too
        return type(exc).__name__, str(exc)


def test_solver_table_matches_the_if_chains():
    # solve_auto and every SOLVERS entry against the chains they replaced,
    # on both variants, every alpha, T empty or not, counters 0-2, with and
    # without a cover; a budget of 20 nodes sends routes to the fallback
    routes = set()
    for inst, profiles in routing_cases(ALPHAS):
        for profile in profiles:
            for budget in (20, DEFAULT_BUDGET):
                got = _solved(solve_auto, inst, profile, budget)
                assert got == _solved(solve_auto_by_chain, inst, profile, budget), inst.to_text()
                routes.add(got.solver_id if isinstance(got, SolveResult) else got[0])
                for name, solve in SOLVERS.items():
                    got = _solved(solve, inst, profile, budget)
                    assert got == _solved(solve_by_chain, name, inst, profile, budget), (name, inst.to_text())
    assert routes >= {"auto:third", "auto:min-trivial", "auto:branch", "auto:densest-vc", "auto:hindex",
                      "auto:brute", "UndecidedWithinBudget"}


def test_auto_undecided_within_budget():
    g = gen_gnp(26, 1, 2, 9)
    inst = plain(g, 13, 40, F(5, 12), MAX)
    with pytest.raises(UndecidedWithinBudget):
        solve_auto(inst, budget=500)
