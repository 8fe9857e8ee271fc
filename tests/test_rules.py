import random
import re
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcgp.graph import Graph, compute_profile
from fcgp.harness import check_equivalence, gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, MIN, AnnotatedInstance, GuardViolation, deannotate_max, deannotate_min
from fcgp.ramsey import ExtractionPreconditionError
from fcgp.rules import (
    DECIDED_NO,
    DECIDED_YES,
    FREE,
    KERNELIZED,
    PIPELINES,
    _State,
    _vx_window,
    alive_profile,
    counter_bound_audit,
    find_bcfree_XI,
    find_closure_XI,
    kernel_closure,
    kernel_degeneracy_max,
    kernel_degeneracy_min,
    kernel_delta,
    kernel_hindex_max,
    kernel_vc_max,
    kernel_vc_min,
    rr_bcfree_independent_set,
    rr_closure_better,
    rr_closure_independent_set,
    rr_counter_shift,
    rr_delta_better,
    rr_exclude_needless,
    rr_include_satisfactory,
    run_pipeline,
    select_pipeline,
    summarize,
)
from fcgp.solve import brute_force

from test_acceptance import ALPHAS

from conftest import (
    annotated,
    apply_rule,
    complete_graph,
    greedy_cover_profile,
    max_gadget_by_fractions,
    min_gadget_by_fractions,
    needless_threshold,
    path_graph,
    plain,
    profile_values,
    replay,
    routing_cases,
    run_pipeline_by_chain,
    satisfactory_threshold,
    seeded_instances,
    star_graph,
    vx_window_by_fractions,
)


def equivalent(before, after):
    rep = check_equivalence(before, after)
    assert rep.ok, rep.detail
    return rep


# -- delta:better ---------------------------------------------------------------

def test_delta_better_isolated_counters():
    g = Graph.from_edges(10, [])
    inst = annotated(g, [], {v: 9 - v for v in range(10)}, 2, 0, F(1, 2), MAX)
    out = apply_rule(rr_delta_better, inst)
    # threshold (0+1)(k-1)+1 = 2 keeps the two best counters
    assert out.free_vertices() == (0, 1)
    equivalent(inst, out)


def test_delta_better_star_unchanged():
    inst = plain(star_graph(6), 2, 0, F(1, 2), MAX)
    out = apply_rule(rr_delta_better, inst)
    assert out.n_alive == 7


def test_delta_better_guard():
    with pytest.raises(GuardViolation, match="degrading"):
        apply_rule(rr_delta_better, plain(path_graph(3), 1, 0, F(1, 4), MAX))


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MAX, F(1)), (MIN, F(1, 4))])
def test_delta_better_random_equivalence(variant, alpha):
    for _, inst in seeded_instances(30, alpha, variant, base_seed=1000):
        out = apply_rule(rr_delta_better, inst)
        equivalent(inst, out)
        bound = (out.delta_tbar() + 1) * (out.k - 1) + 1
        assert len(out.free_vertices()) <= bound


# -- include-high / exclude-low ----------------------------------------------------

def test_satisfactory_k1_is_val_threshold():
    inst = plain(star_graph(6), 1, 3, F(1, 2), MAX)
    got = apply_rule(rr_include_satisfactory, inst)
    assert got[:2] == (DECIDED_YES, (0,))


def test_satisfactory_no_vertex_meets_threshold():
    inst = plain(path_graph(4), 2, 100, F(1, 2), MAX)
    got = apply_rule(rr_include_satisfactory, inst)
    assert got.t_size == 0


def test_needless_isolated_vertex_excluded():
    g = Graph.from_edges(3, [(1, 2)])
    inst = plain(g, 1, 10, F(1, 2), MAX)
    out = apply_rule(rr_exclude_needless, inst)
    assert 0 not in out.free_vertices()


def test_needless_noop_when_all_above():
    # contributions 3/2 fall between needless (3/2) and satisfactory (5/2) cuts
    inst = plain(complete_graph(4), 2, 4, F(1, 2), MAX)
    out = apply_rule(rr_exclude_needless, inst)
    assert out.n_alive == 4


def test_needless_requires_satisfactory_fixpoint():
    inst = plain(star_graph(6), 1, 3, F(1, 2), MAX)
    with pytest.raises(GuardViolation, match="fixpoint"):
        apply_rule(rr_exclude_needless, inst)


@pytest.mark.parametrize("variant,alpha", [(MAX, F(2, 3)), (MIN, F(1, 4))])
def test_satisfactory_then_needless_random_equivalence(variant, alpha):
    for _, inst in seeded_instances(30, alpha, variant, base_seed=2000):
        got = apply_rule(rr_include_satisfactory, inst)
        if isinstance(got, tuple):
            rep = check_equivalence(inst, _as_outcome(*got))
            assert rep.ok, rep.detail
            continue
        out = apply_rule(rr_exclude_needless, got)
        equivalent(inst, out)


def _as_outcome(status, witness, final):
    from fcgp.rules import KernelOutcome, RuleTrace

    return KernelOutcome(status=status, plain=None, witness=witness, trace=RuleTrace(pipeline="test"), final=final)


# -- counter shift -------------------------------------------------------------------

def test_counter_shift_example():
    g = Graph.from_edges(2, [])
    inst = annotated(g, [], {0: 2, 1: 3}, 2, 0, F(1, 2), MAX)
    out = apply_rule(rr_counter_shift, inst)
    assert out.bonus[0] == 0 and out.bonus[1] == F(1, 2)
    assert inst.t - out.t == 2  # two unit applications at alpha*k' = 1 each


def test_counter_shift_noop_with_zero():
    g = Graph.from_edges(2, [])
    inst = annotated(g, [], {0: 0, 1: 3}, 1, 0, F(1, 2), MAX)
    assert apply_rule(rr_counter_shift, inst) is inst


def test_counter_shift_random_equivalence():
    for _, inst in seeded_instances(20, F(1, 2), MAX, base_seed=3000, counters=(1, 3)):
        out = apply_rule(rr_counter_shift, inst)
        equivalent(inst, out)
        assert min((out.bonus[v] for v in out.free_vertices()), default=0) == 0


# -- counter bound audit ----------------------------------------------------------------

def test_counter_bound_audit_post_rules():
    for _, inst in seeded_instances(15, F(1, 2), MAX, base_seed=4000, counters=(0, 3)):
        got = apply_rule(rr_include_satisfactory, inst)
        if isinstance(got, tuple):
            continue
        out = apply_rule(rr_counter_shift, apply_rule(rr_exclude_needless, got))
        assert counter_bound_audit(_State(out))


def test_counter_bound_audit_violation():
    g = Graph.from_edges(2, [])
    inst = annotated(g, [], {0: 0, 1: 50}, 1, 0, F(1, 2), MAX)
    assert counter_bound_audit(_State(inst)) is False


def test_counter_bound_audit_zero_counters():
    inst = plain(path_graph(4), 2, 0, F(1, 2), MAX)
    assert counter_bound_audit(_State(inst)) is True


# -- closure rules -----------------------------------------------------------------------

def test_closure_better_trims_cliques():
    inst = plain(complete_graph(5), 2, 0, F(1, 2), MAX)
    out = apply_rule(rr_closure_better, inst, 1)
    assert out.n_alive <= 3
    equivalent(inst, out)


def test_closure_better_edgeless_noop():
    inst = plain(Graph.from_edges(4, []), 2, 0, F(1, 2), MAX)
    assert apply_rule(rr_closure_better, inst, 2).n_alive == 4


@pytest.mark.parametrize("c", [1, 2, 3])
def test_closure_better_random_equivalence(c):
    for _, inst in seeded_instances(25, F(1, 2), MAX, base_seed=5000 + c):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        realized = compute_profile(sub).c_closure
        out = apply_rule(rr_closure_better, inst, max(c, realized))
        equivalent(inst, out)


def test_closure_better_removes_large_cliques():
    from itertools import combinations

    for _, inst in seeded_instances(20, F(2, 3), MAX, base_seed=5500):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        c = max(2, compute_profile(sub).c_closure)
        out = apply_rule(rr_closure_better, inst, c)
        size = (c - 1) * out.k + 1
        alive = out.alive_vertices()
        if size <= len(alive):
            for combo in combinations(alive, size):
                assert not out.graph.is_clique(combo)


def _star_instance(leaves, k=2, alpha=F(1, 2), extra_counters=0):
    g = star_graph(leaves)
    counters = {v: extra_counters for v in range(1, leaves + 1)} if extra_counters else {}
    inst = annotated(g, [], counters, k, 0, alpha, MAX)
    opt = brute_force(inst).best_value
    return annotated(g, [], counters, k, opt, alpha, MAX)


def test_find_closure_xi_on_star():
    inst = _star_instance(90)
    xs, iset = find_closure_XI(_State(inst), 2)
    assert xs == (0,)
    k = inst.k
    assert len(iset) >= (k + 1) * k ** (2 - len(xs))
    for u in inst.alive_vertices():
        if u not in xs:
            assert sum(1 for w in iset if inst.graph.has_edge(u, w)) <= (k + 1) * k ** (2 - len(xs) - 1)


def test_find_closure_xi_below_threshold():
    inst = _star_instance(10)
    with pytest.raises(ExtractionPreconditionError):
        find_closure_XI(_State(inst), 2)


def test_closure_independent_set_rule_on_star():
    inst = _star_instance(90)
    xs, iset = find_closure_XI(_State(inst), 2)
    out = apply_rule(rr_closure_independent_set, inst, xs, iset)
    assert out.n_alive == inst.n_alive - 1
    equivalent(inst, out)


def test_closure_independent_set_needs_k2():
    inst = _star_instance(90, k=2)
    xs, iset = find_closure_XI(_State(inst), 2)
    small = annotated(inst.graph, [], {}, 1, 0, F(1, 2), MAX)
    with pytest.raises(GuardViolation, match="k >= 2"):
        apply_rule(rr_closure_independent_set, small, xs, iset)


def test_closure_worst_vertex_tiebreak():
    inst = _star_instance(90)
    xs, iset = find_closure_XI(_State(inst), 2)
    out = apply_rule(rr_closure_independent_set, inst, xs, iset)
    gone = set(inst.alive_vertices()) - set(out.alive_vertices())
    assert gone == {min(iset)}  # all leaves tie; smallest index goes


def test_kernel_closure_star_pipeline():
    inst = _star_instance(90)
    out = kernel_closure(inst, 2)
    equivalent(inst, out)
    assert "closure_delta_tbar" in out.trace.audits


def _book_instance(pages, alpha=F(1, 2), k=2):
    # two adjacent hubs sharing `pages` leaves: 3-closed, no K5 around the hubs
    g = Graph.from_edges(pages + 2, [(0, 1)] + [(0, i) for i in range(2, pages + 2)]
                         + [(1, i) for i in range(2, pages + 2)])
    inst = annotated(g, [], {}, k, 0, alpha, MAX)
    opt = brute_force(inst).best_value
    return annotated(g, [], {}, k, opt, alpha, MAX)


def test_find_closure_xi_grows_x():
    # the common-neighborhood descent must add the second hub
    inst = _book_instance(170)
    assert compute_profile(inst.graph).c_closure == 3
    xs, iset = find_closure_XI(_State(inst), 3)
    assert xs == (0, 1)
    k = inst.k
    assert len(iset) >= (k + 1) * k ** (3 - 2)
    for u in inst.alive_vertices():
        if u not in xs:
            assert sum(1 for w in iset if inst.graph.has_edge(u, w)) <= (k + 1) * k ** 0


def test_kernel_closure_with_grown_x_preserves_answers():
    inst = _book_instance(170)
    out = kernel_closure(inst, 3)
    equivalent(inst, out)


# -- biclique-free rules --------------------------------------------------------------------

def test_find_bcfree_xi_on_star():
    inst = _star_instance(30)
    xs, iset = find_bcfree_XI(_State(inst), 2, 2, degeneracy=1)
    assert xs == (0,)
    assert len(iset) >= 2 * inst.k + 1
    out = apply_rule(rr_bcfree_independent_set, inst, xs, iset)
    equivalent(inst, out)


def test_find_bcfree_xi_guard():
    inst = _star_instance(5)
    with pytest.raises(ExtractionPreconditionError):
        find_bcfree_XI(_State(inst), 2, 2, degeneracy=1)


def test_kernel_degeneracy_max_star():
    inst = _star_instance(30)
    out = kernel_degeneracy_max(inst, 1)
    equivalent(inst, out)


# -- pipelines: equivalence sweeps -------------------------------------------------------------

PIPE_CASES = [
    ("delta", MAX, F(1, 2)),
    ("delta", MAX, F(1)),
    ("delta", MIN, F(1, 4)),
    ("closure", MAX, F(2, 3)),
    ("closure", MIN, F(1, 4)),
    ("degeneracy", MAX, F(1, 2)),
    ("degeneracy", MIN, F(0)),
    ("degeneracy", MIN, F(1, 4)),
    ("hindex", MAX, F(1, 2)),
    ("hindex", MAX, F(1, 4)),
    ("vc", MAX, F(1, 4)),
    ("vc", MAX, F(1)),
    ("vc", MIN, F(1, 4)),
    ("vc", MIN, F(2, 3)),
]


@pytest.mark.parametrize("pipe,variant,alpha", PIPE_CASES)
def test_pipeline_random_equivalence(pipe, variant, alpha):
    checked = 0
    allow_t = pipe not in ("vc", "hindex") and not (pipe == "degeneracy" and alpha == 0)
    for seed, inst in seeded_instances(120, alpha, variant, base_seed=sum(map(ord, pipe)) + 7000, allow_t=allow_t):
        try:
            out = run_pipeline(inst, pipe)
        except GuardViolation:
            continue
        equivalent(inst, out)
        checked += 1
        if checked >= 12:
            break
    assert checked >= 10


def test_kernel_min_triviality_prefix_witness():
    g = gen_degenerate(9, 2, 42)
    d = compute_profile(g).degeneracy
    inst = plain(g, 3, d * 3, F(1, 4), MIN)
    out = kernel_degeneracy_min(inst, d)
    assert out.status == DECIDED_YES
    assert inst.val(out.witness) <= inst.t


def test_kernel_min_alpha0_path():
    inst = plain(path_graph(10), 3, 0, F(0), MIN)
    out = kernel_degeneracy_min(inst, 1)
    assert out.status == DECIDED_YES
    assert inst.val(out.witness) == 0


def test_kernel_min_alpha0_small_graph_passthrough():
    inst = plain(path_graph(5), 3, -1, F(0), MIN)
    out = kernel_degeneracy_min(inst, 1)
    assert out.status == DECIDED_NO  # negative threshold is unreachable


def test_kernel_min_alpha0_kernelized_when_tight():
    g = complete_graph(5)
    inst = plain(g, 3, 2, F(0), MIN)
    out = kernel_degeneracy_min(inst, compute_profile(g).degeneracy)
    assert out.status in (KERNELIZED, DECIDED_YES, DECIDED_NO)
    equivalent(inst, out)


def test_kernel_hindex_case_guard():
    # alpha <= 1/3 with few high-degree vertices must refuse case 2
    inst = plain(path_graph(6), 3, 1, F(1, 4), MAX)
    with pytest.raises(GuardViolation, match="case 2"):
        kernel_hindex_max(inst, compute_profile(path_graph(6)).h_index)


def test_kernel_hindex_x_value_audit():
    g = star_graph(8)
    inst = plain(g, 4, 1, F(1, 2), MAX)
    out = kernel_hindex_max(inst, 1)
    # x = h + 1 + |(1-3a)k/a| = 1 + 1 + 4 = 6
    assert out.trace.audits["hindex_x"] == "6"


def test_kernel_vc_min_alpha0_decides_yes():
    g = star_graph(6)
    inst = plain(g, 3, 0, F(0), MIN)
    out = kernel_vc_min(inst, (0,))
    assert out.status == DECIDED_YES and inst.val(out.witness) == 0


def test_kernel_vc_rejects_bad_cover():
    inst = plain(path_graph(4), 2, 0, F(1, 2), MAX)
    with pytest.raises(GuardViolation, match="uncovered"):
        kernel_vc_max(inst, (0,))


def test_pipeline_guard_message_names_precondition():
    inst = plain(path_graph(4), 2, 0, F(1, 4), MAX)
    with pytest.raises(GuardViolation, match="alpha>1/3, got 1/4"):
        kernel_delta(inst)


# -- idempotence and parameter monotonicity ------------------------------------------------------

def test_rules_idempotent_at_fixpoint():
    for _, inst in seeded_instances(10, F(1, 2), MAX, base_seed=8000, counters=(0, 2)):
        got = apply_rule(rr_include_satisfactory, inst)
        if isinstance(got, tuple):
            continue
        cur = got
        while True:
            nxt = apply_rule(rr_exclude_needless, cur)
            if nxt is cur:
                break
            cur = nxt
            again = apply_rule(rr_include_satisfactory, cur)
            if isinstance(again, tuple):
                cur = None
                break
            cur = again
        if cur is None:
            continue
        got2 = apply_rule(rr_include_satisfactory, cur)
        assert got2 is cur or got2.t_size == cur.t_size
        shifted = apply_rule(rr_counter_shift, cur)
        assert apply_rule(rr_counter_shift, shifted) is shifted
        reduced = apply_rule(rr_delta_better, shifted)
        assert apply_rule(rr_delta_better, reduced).n_alive == reduced.n_alive


def test_parameters_never_increase_under_rules():
    for _, inst in seeded_instances(8, F(1, 2), MAX, base_seed=9000):
        sub, _ = inst.graph.induced(inst.alive_vertices())
        before = compute_profile(sub)
        out = apply_rule(rr_delta_better, inst)
        sub2, _ = out.graph.induced(out.alive_vertices())
        after = compute_profile(sub2)
        assert after.max_degree <= before.max_degree
        assert after.degeneracy <= before.degeneracy
        assert after.h_index <= before.h_index
        assert after.c_closure <= before.c_closure
        assert after.vc <= before.vc


# -- traces -------------------------------------------------------------------------------------

# every pipeline on both variants, alpha on both sides of 1/3 (and 0)
RUN_ALPHAS = {MAX: (F(1, 4), F(1, 2), F(1)), MIN: (F(0), F(1, 4), F(1, 2))}


def _pipeline_runs(count: int, base_seed: int):
    """(pipeline, variant, instance, outcome or the GuardViolation raised)
    over seeded instances, plus a path of k = 4 vertices, which every
    pipeline decides before its first move."""
    for variant, alphas in RUN_ALPHAS.items():
        for alpha in alphas:
            for name in PIPELINES:
                forced = plain(path_graph(4), 4, 0, alpha, variant)
                streams = (
                    [forced],
                    (inst for _, inst in seeded_instances(count, alpha, variant, base_seed=base_seed)),
                    (inst for _, inst in seeded_instances(count, alpha, variant, base_seed=base_seed, allow_t=False)),
                )
                for inst in (inst for stream in streams for inst in stream):
                    try:
                        yield name, variant, inst, run_pipeline(inst, name)
                    except GuardViolation as exc:
                        yield name, variant, inst, exc


def _kind(out) -> str:
    if isinstance(out, GuardViolation):
        return "guard"
    if out.status == KERNELIZED:
        return "kernelized"
    return "decided at once" if len(out.trace.entries) == 1 else "decided after moves"


# the refusals a kernel can only make once settle has not decided the instance
AFTER_SETTLE = re.compile("case 2 requires|needs a plain instance|needs zero counters")


def test_one_working_state_per_pipeline_run(monkeypatch):
    made = []
    build = _State.__init__

    def counted(self, inst):
        made.append(inst)
        build(self, inst)

    monkeypatch.setattr(_State, "__init__", counted)
    kinds = {}
    refusals = set()
    for name, variant, inst, out in _pipeline_runs(12, 12_000):
        if isinstance(out, GuardViolation):
            # a refusal before the first move builds no working state
            late = bool(AFTER_SETTLE.search(str(out)))
            assert len(made) == late, (name, variant, str(out))
            refusals.add(late)
        else:
            assert len(made) == 1, (name, variant, _kind(out))
        assert all(m is inst for m in made)
        made.clear()
        kinds.setdefault((name, variant), set()).add(_kind(out))
    assert refusals == {False, True}
    every = {"kernelized", "decided at once", "decided after moves"}
    for (name, variant), seen in kinds.items():
        if (name, variant) != ("hindex", MIN):  # the h-index kernel is for Max only
            assert every <= seen, (name, variant, seen)


def test_trace_replay_reproduces_final_instance():
    # the replay walks the independent instance chain; the final instance
    # and the summary the pipeline logged were read off its one working state
    kinds = {}
    for name, variant, inst, out in _pipeline_runs(12, 12_000):
        if isinstance(out, GuardViolation):
            continue
        kinds.setdefault((name, variant), set()).add(_kind(out))
        final = replay(out.trace, inst)
        assert out.final == final and out.final.weights == final.weights, (name, variant, _kind(out))
        assert summarize(_State(final)) == out.trace.final, (name, variant)
    every = {"kernelized", "decided at once", "decided after moves"}
    assert {name for name, _ in kinds} == set(PIPELINES)
    for (name, variant), seen in kinds.items():
        assert every <= seen, (name, variant, seen)


def test_trace_deltas_sum_to_threshold_change():
    for _, inst in seeded_instances(12, F(1, 2), MAX, base_seed=10_500, counters=(0, 2)):
        out = kernel_delta(inst)
        total = sum((e.dt for e in out.trace.entries), F(0))
        assert inst.t + total == out.trace.final.t


def test_trace_determinism():
    runs = []
    for _ in range(2):
        for _, inst in seeded_instances(1, F(1, 2), MAX, base_seed=11_000):
            runs.append(kernel_delta(inst).trace.to_text())
    assert runs[0] == runs[1]


def test_select_pipeline_routes():
    g = gen_gnp(8, 1, 2, 5)
    prof = compute_profile(g)
    inst_max = plain(g, 2, 1, F(1, 2), MAX)
    assert select_pipeline(inst_max, prof) in ("degeneracy", "closure", "hindex", "vc", "delta")
    inst_min = plain(g, 2, 1, F(1, 4), MIN)
    assert select_pipeline(inst_min, prof) in ("degeneracy", "vc")
    inst_zero = plain(g, 2, 1, F(0), MAX)
    with pytest.raises(GuardViolation):
        select_pipeline(inst_zero, prof)


def _candidate_list_rule(inst, profile) -> str:
    """The selection rule as it stood before the unreachable candidates
    were deleted: the reference for the differential test below."""
    third = F(1, 3)
    if inst.variant == MAX:
        if inst.alpha == 0:
            raise GuardViolation("pipeline=auto: no kernelization route for max with alpha=0")
        if inst.alpha > third:
            candidates = [
                (profile.degeneracy, 0, "degeneracy"),
                (profile.c_closure, 1, "closure"),
                (profile.h_index, 2, "hindex"),
            ]
            if profile.vc is not None:
                candidates.append((profile.vc, 3, "vc"))
            candidates.append((profile.max_degree, 4, "delta"))
            return min(candidates)[2]
        _, vx = _vx_window(inst, profile.h_index + 1)
        if vx >= inst.k and (profile.vc is None or profile.h_index <= profile.vc):
            return "hindex"
        if profile.vc is not None:
            return "vc"
        if vx >= inst.k:
            return "hindex"
        raise GuardViolation(
            f"pipeline=auto: max with alpha<=1/3 needs the h-index case or an exact vertex cover: "
            f"|V_x| = {vx} < k = {inst.k}, and no cover found within vc_budget={profile.vc_budget}"
        )
    if inst.alpha < third:
        candidates = [(profile.degeneracy, 0, "degeneracy")]
        if inst.alpha > 0 and profile.vc is not None:
            candidates.append((profile.vc, 1, "vc"))
        return min(candidates)[2]
    if profile.vc is None:
        raise GuardViolation(
            f"pipeline=auto: min with alpha>=1/3 needs an exact vertex cover: "
            f"no cover found within vc_budget={profile.vc_budget}"
        )
    return "vc"


def _selection(rule, inst, profile) -> str:
    try:
        return rule(inst, profile)
    except GuardViolation as exc:
        return f"guard: {exc}"


def test_select_pipeline_matches_candidate_list_rule():
    # K_{3,6} and K_{3,12} reach the h-index window, K_5 has c-closure below its degeneracy
    hubs = [Graph.from_edges(3 + leaves, [(h, v) for h in range(3) for v in range(3, 3 + leaves)]) for leaves in (6, 12)]
    graphs = hubs + [complete_graph(5)] + [gen_gnp(6 + s % 7, 1, 2, s) if s % 2 else gen_degenerate(6 + s % 7, 1 + s % 3, s) for s in range(30)]
    seen = set()
    for gi, g in enumerate(graphs):
        # a minimum cover, a greedy one, and none within the budget
        profiles = (compute_profile(g), greedy_cover_profile(g), compute_profile(g, vc_budget=1))
        for variant in (MAX, MIN):
            for alpha in (F(1, 4), F(1, 3), F(1, 2), F(1)):
                for k in (1, 2, 3):
                    inst = plain(g, k, gi % 4, alpha, variant)
                    for profile in profiles:
                        got = _selection(select_pipeline, inst, profile)
                        assert got == _selection(_candidate_list_rule, inst, profile), (gi, variant, alpha, k)
                        seen.add(got.split(":")[0])
    assert seen == {"closure", "degeneracy", "hindex", "vc", "guard"}


def test_alive_profile_cover_in_instance_indices():
    # the cover of a re-indexed alive subgraph once reached the kernels and
    # solvers, which read instance indices
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    inst = plain(g, 2, 1, F(1, 2), MIN).exclude(0)
    cover = alive_profile(inst).vertex_cover
    assert inst.check_cover(cover) == cover
    for name in ("vc", "auto"):
        out = run_pipeline(inst, name)
        assert check_equivalence(inst, out).status == "match"


def test_alive_profile_with_every_vertex_alive_profiles_the_graph():
    # with nothing dead the profile is read off inst.graph itself; it must
    # equal the profile of the alive-masked copy, with and without dead vertices
    for seed in range(6):
        g = gen_degenerate(30, 1 + seed % 3, seed) if seed % 2 else gen_gnp(30, 3, 30, seed)
        inst = plain(g, 3, 1, F(1, 2), MAX)
        for dead in ((), (0,), tuple(range(0, 30, 3))):
            cur = inst
            for v in dead:
                cur = cur.exclude(v)
            alive = cur.alive
            masked = compute_profile(Graph.from_masks(
                [mask & alive if (alive >> v) & 1 else 0 for v, mask in enumerate(g.masks)]
            ))
            got = alive_profile(cur)
            assert profile_values(got) == profile_values(masked)
            assert (got.graph is g) == (not dead)


def _run_or_refusal(inst, name, profile):
    try:
        out = run_pipeline(inst, name, profile=profile)
    except GuardViolation as exc:
        return str(exc)
    return out.status, out.trace.to_text(), out.plain, out.final, out.witness


def test_runs_without_a_profile_share_the_graph_profile(monkeypatch):
    # instances on one graph that differ in k, t, alpha, T and counters: every
    # pipeline given no profile reads the one the graph keeps, so the cover is
    # searched once, and each outcome is the one a fresh profile gives
    import fcgp.graph as graph_mod

    g = gen_gnp(9, 1, 2, 11)  # built here: no other test reads its profile
    searched = []
    search = graph_mod.minimum_vertex_cover

    def counting(graph, budget=25):
        searched.append(graph)
        return search(graph, budget=budget)

    monkeypatch.setattr(graph_mod, "minimum_vertex_cover", counting)
    instances = [gen_annotated(g, 2 * i + allow_t, alpha, variant, (2, 3), (0, 2), allow_t=allow_t)
                 for i, alpha in enumerate(ALPHAS) for variant in (MAX, MIN) for allow_t in (True, False)]
    assert len({(i.k, i.t, i.alpha, i.variant, i.tmask, i.weights) for i in instances}) == len(instances)
    assert any(i.tmask for i in instances) and any(any(i.weights) for i in instances)
    runs = [(inst, name, _run_or_refusal(inst, name, None)) for inst in instances for name in PIPELINES]
    assert searched == [g]
    for inst, name, got in runs:
        assert got == _run_or_refusal(inst, name, compute_profile(g)), (name, inst.to_text())
    # a dead vertex: a profile of the alive part, built and searched anew
    dead = instances[0].exclude(instances[0].free_vertices()[0])
    profile = alive_profile(dead)
    assert profile.graph is not g and alive_profile(dead) is not profile
    searched.clear()
    assert profile.vertex_cover is not None and searched == [profile.graph]


def _routed(run, inst, name, profile, param):
    try:
        out = run(inst, name, profile=profile, param_override=param)
    except (GuardViolation, ExtractionPreconditionError) as exc:  # the refusals must match too
        return type(exc).__name__, str(exc)
    return out.status, out.trace.to_text(), out.plain, out.final, out.witness


def test_route_table_matches_the_if_chains():
    # every pipeline, through the table and through the chain it replaced,
    # on both variants, every alpha, T empty or not, counters 0-2, with and
    # without a cover, and with each parameter override
    seen = set()
    for inst, profiles in routing_cases(ALPHAS):
        seen.add((inst.variant, inst.alpha, bool(inst.tmask), inst.is_plain))
        for profile in profiles:
            for name in PIPELINES:
                for param in (None, 0, 1):
                    got = _routed(run_pipeline, inst, name, profile, param)
                    assert got == _routed(run_pipeline_by_chain, inst, name, profile, param), (
                        name, param, inst.to_text()
                    )
    for variant in (MAX, MIN):
        for alpha in ALPHAS:
            assert {(t, p) for v, a, t, p in seen if (v, a) == (variant, alpha)} >= {(False, True), (True, False)}


@pytest.mark.parametrize("t", [1, 5, 10, 20])
def test_auto_without_a_cover_in_budget_ends_fast(t):
    # the matching bound (43) refutes every cover of at most 25 vertices; the
    # unbounded search ran past 25 s here
    inst = plain(gen_degenerate(150, 2, seed=13), 5, t, F(1, 4), MAX)
    started = time.monotonic()
    with pytest.raises(GuardViolation, match="exact vertex cover"):
        run_pipeline(inst, "auto")
    assert time.monotonic() - started < 2


# -- the rules' working state ---------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    alpha=st.sampled_from(ALPHAS),
    variant=st.sampled_from((MAX, MIN)),
    ranks=st.sampled_from((None, "contribution", "deg-bonus")),
    moves=st.lists(st.tuples(st.sampled_from(("exclude", "include", "shift")), st.integers(0, 99)), max_size=10),
)
def test_working_state_matches_the_instance_chain(seed, alpha, variant, ranks, moves):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 2, seed)
    tset = rng.sample(range(n), rng.randint(0, min(2, n)))
    dead = [v for v in range(n) if v not in tset and rng.random() < 0.2]
    # bonuses need not be multiples of alpha here
    bonus = tuple(F(0) if v in tset else F(rng.randint(0, 12), rng.choice((1, 2, 3, 5))) for v in range(n))
    chain = replace(annotated(g, tset, {}, 3, 0, alpha, variant), bonus=bonus)
    chain = replace(chain, alive=chain.alive & ~sum(1 << v for v in dead))
    state = _State(chain)
    if ranks is not None:
        state.rank(wrt_t=ranks == "contribution")
    shifted = False
    for op, pick in moves:
        free = chain.free_vertices()
        if op == "shift":
            least = min((chain.weights[v] for v in free), default=0)
            w = pick % (least + 1)
            dt, after = state.shift(w), chain.shift_bonus(F(w, chain.scale))
            shifted = shifted or w > 0
        elif not free:
            continue
        elif op == "include" and ranks != "contribution":  # contribution ranks are kept under exclusion only
            v = free[pick % len(free)]
            dt, after = state.include(v), chain.include(v)
        else:
            v = free[pick % len(free)]
            dt, after = state.exclude(v), chain.exclude(v)
        assert dt == after.t - chain.t
        chain = after
        got = state.freeze()
        assert (got.alive, got.tmask, got.weights, got.t) == (chain.alive, chain.tmask, chain.weights, chain.t)
        assert (state.n_alive, state.t_size) == (chain.n_alive, chain.t_size)
        for v in chain.alive_vertices():
            assert state.deg[v] == chain.degree(v)
            assert state.tnb[v] == (g.masks[v] & chain.tmask).bit_count()
        free = chain.free_vertices()
        assert [v for v in state.free if state.where[v] == FREE] == list(free)
        assert state.delta_tbar() == chain.delta_tbar()
        assert state.zeros == sum(1 for v in free if not chain.weights[v])
        if ranks is not None:
            fresh = {v: chain.score_contribution(v, chain.tmask) if ranks == "contribution" else chain.score_deg_bonus(v) for v in free}
            assert state.score.keys() == fresh.keys()
            # a counter shift moves every score by one amount and is not applied to the ranks
            offsets = {state.score[v] - fresh[v] for v in free}
            assert len(offsets) <= 1 and (shifted or offsets <= {0})
            assert state.ranked == sorted(state.score.values())


# Every alpha = p/q with q <= 12, not only the golden ALPHAS, and thresholds
# over denominators prime to most scales, so that an off-by-one in the floor
# of a negative numerator shows.
WIDE_ALPHAS = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1)})


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    alpha=st.sampled_from(WIDE_ALPHAS),
    variant=st.sampled_from((MAX, MIN)),
    k=st.integers(1, 6),
    t=st.builds(F, st.integers(-60, 60), st.sampled_from((1, 5, 7, 11, 13))),
    moves=st.lists(st.tuples(st.booleans(), st.integers(0, 99)), max_size=4),
    base=st.integers(0, 8),
)
def test_integer_bars_match_their_rational_forms(seed, alpha, variant, k, t, moves, base):
    n = random.Random(seed).randint(k + 1, 10)
    g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 2, seed)
    state = _State(replace(gen_annotated(g, seed, alpha, variant, (k, k), (0, 3)), t=t))
    for include, pick in [(True, seed)] + moves:  # the first move makes T non-empty
        free = [v for v in state.free if state.where[v] == FREE]
        if not free:
            break
        v = free[pick % len(free)]
        if include and (state.t_size < k - 1 or not state.t_size):
            state.include(v)
        elif not include and state.n_alive > k:
            state.exclude(v)
    inst = state.freeze()
    assert inst.t_size
    if inst.k_prime > 0:
        assert state.bar() == inst.score_needed(satisfactory_threshold(inst))
        assert state.bar(needless=True) == inst.score_needed(needless_threshold(inst))
    if not alpha:
        return
    x, cut, vx = vx_window_by_fractions(inst, base)
    assert _vx_window(state, base) == _vx_window(inst, base) == (cut, vx)
    assert F(inst.sign * cut, inst.alpha_weight) == x  # the x the window audits
    if variant == MAX:
        inv_floor, pad, ell, new_t = max_gadget_by_fractions(inst)
        deann = deannotate_max(inst)
        leaves = Counter(a for a in deann.anchor if a >= 0)
        for i, old in enumerate(deann.origin[: inst.n_alive]):
            counter = inst.weights[old] // inst.alpha_weight
            assert leaves[i] == counter + inv_floor + pad + (ell if (inst.tmask >> old) & 1 else 0)
    else:
        ell, new_t = min_gadget_by_fractions(inst)
        deann = deannotate_min(inst)
    assert (deann.ell, deann.plain.t) == (ell, new_t)


# -- min with t < 0 -------------------------------------------------------------

def test_min_negative_threshold_decided_at_once():
    # every value is >= 0, so no exclusion is needed to see the answer
    inst = AnnotatedInstance.plain(gen_degenerate(800, 2, seed=800), 5, F(-1, 4), F(1, 4), MIN)
    for name in ("degeneracy", "delta", "closure"):
        out = run_pipeline(inst, name)
        assert out.status == DECIDED_NO
        assert [(e.rule, e.op) for e in out.trace.entries] == [("pipeline", "decide")]
