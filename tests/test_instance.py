import math
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcgp.cli import kernel_file_text
from fcgp.graph import Graph
from fcgp.harness import gen_degenerate, gen_gnp
from fcgp.instance import (
    MAX,
    MIN,
    AnnotatedInstance,
    GuardViolation,
    PlainInstance,
    check_alpha,
    deannotate_max,
    deannotate_min,
    lift_witness,
)
from fcgp.solve import brute_force

from conftest import (
    annotated,
    complete_graph,
    path_graph,
    plain,
    run_optimized,
    scan_optimum,
    seeded_instances,
    star_graph,
    t_prime,
    telescope_check,
)
from test_acceptance import ALPHAS


# -- val ------------------------------------------------------------------------

def test_val_p3_center():
    inst = plain(path_graph(3), 1, 1, F(1, 2), MAX)
    assert inst.val([1]) == 1


def test_val_k3_pair_third():
    inst = plain(complete_graph(3), 2, 0, F(1, 3), MAX)
    assert inst.val([0, 1]) == F(4, 3)


def test_val_counter_term():
    inst = annotated(Graph.from_edges(1, []), [], {0: 2}, 1, 0, F(1, 2), MAX)
    assert inst.val([0]) == 1


# -- contribution ----------------------------------------------------------------

def test_contribution_p3_center():
    inst = annotated(path_graph(3), [0], {}, 2, 0, F(1, 2), MAX)
    assert inst.contribution(1, [0]) == F(1, 2)


def test_contribution_third_is_degree_over_three():
    inst = plain(complete_graph(4), 2, 0, F(1, 3), MAX)
    for v in range(4):
        assert inst.contribution(v, []) == F(3, 3)


def test_contribution_isolated_bonus():
    g = Graph.from_edges(3, [(1, 2)])
    inst = annotated(g, [1], {0: 5}, 2, 0, F(1, 4), MAX)
    assert inst.contribution(0, [1]) == F(5, 4)


# -- telescoping -------------------------------------------------------------------

def test_telescope_k3_pair():
    inst = plain(complete_graph(3), 2, 0, F(1, 2), MAX)
    assert telescope_check(inst, [0, 1]) == inst.val([0, 1]) == F(3, 2)


def test_telescope_empty():
    inst = plain(complete_graph(3), 1, 0, F(1, 2), MAX)
    assert telescope_check(inst, []) == 0


def test_telescope_random_orderings():
    rng = random.Random(7)
    for seed in range(25):
        g = gen_gnp(8, 1, 2, seed)
        inst = annotated(g, [], {v: rng.randint(0, 2) for v in range(8)}, 4, 0, F(2, 5), MAX)
        verts = rng.sample(range(8), 4)
        assert telescope_check(inst, verts) == inst.val(verts)


def test_telescope_rejects_repeats():
    inst = plain(path_graph(3), 2, 0, F(1, 2), MAX)
    with pytest.raises(GuardViolation):
        telescope_check(inst, [1, 1])


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MIN, F(1, 4))])
def test_is_solution(variant, alpha):
    checked = 0
    for _, inst in seeded_instances(40, alpha, variant, base_seed=5_100):
        decision, best, witness = scan_optimum(inst)
        if not decision:
            continue
        assert inst.is_solution(witness) and inst.is_solution(iter(witness))
        outside = [v for v in inst.free_vertices() if v not in witness]
        assert not inst.is_solution(witness[:-1])
        if inst.k >= 2:
            assert not inst.is_solution(witness[:-1] + witness[:1])  # k entries, one repeated
        if outside:
            assert not inst.is_solution(witness + (outside[0],))
        if inst.t_size and outside:
            tv = inst.t_vertices()[0]
            assert not inst.is_solution(tuple(v for v in witness if v != tv) + (outside[0],))
        free_member = next((v for v in witness if not (inst.tmask >> v) & 1), None)
        if free_member is not None:
            assert not inst.exclude(free_member).is_solution(witness)  # a deleted vertex
        step = F(1, inst.scale) if variant == MAX else -F(1, inst.scale)
        assert not replace(inst, t=best + step).is_solution(witness)
        checked += 1
    assert checked >= 10


# -- better / strictly better ---------------------------------------------------------
# u is strictly better than v when deg_bonus(u) clears deg_bonus(v) by the
# exchange margin |(1-3a)k| in the variant's direction.

def test_better_at_third_is_degree_order():
    inst = plain(star_graph(4), 1, 0, F(1, 3), MAX)
    assert inst.score_margin() == 0
    assert inst.deg_bonus(0) > inst.deg_bonus(1)  # center dominates a leaf
    assert inst.score_deg_bonus(0) > inst.score_deg_bonus(1)


def test_strictly_better_margin_example():
    g = Graph.from_edges(13, [(0, i) for i in range(1, 11)] + [(11, 12)])
    inst = plain(g, 2, 0, F(1, 2), MAX)
    margin = abs((1 - 3 * inst.alpha) * inst.k)
    assert margin == 1 and inst.from_score(inst.score_margin()) == margin
    # deg+(0)=10, deg+(11)=1: 1/2 <= 5 - 1
    assert inst.deg_bonus(11) <= inst.deg_bonus(0) - margin
    assert inst.score_deg_bonus(11) <= inst.score_deg_bonus(0) - inst.score_margin()


def test_strictly_better_at_third_is_deg_plus_order():
    # zero margin at alpha = 1/3: the relation collapses to comparing deg+
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    inst = annotated(g, [], {3: 2}, 2, 0, F(1, 3), MAX)
    assert inst.score_margin() == 0
    # deg+ 3, 2, 2 and 1+2
    assert [inst.deg_bonus(v) for v in range(4)] == [1, F(2, 3), F(2, 3), 1]
    score = [inst.score_deg_bonus(v) for v in range(4)]
    assert score[0] > score[1] == score[2] < score[3] == score[0]


def test_better_at_alpha_zero_min():
    g = Graph.from_edges(3, [(0, 1)])
    inst = annotated(g, [0], {}, 2, 0, F(0), MIN)
    # alpha=0 min: fewer T-neighbors is better
    assert inst.contribution(2, [0]) == 0 and inst.contribution(1, [0]) == 1
    assert inst.better_cmp(inst.contribution(2, [0]), inst.contribution(1, [0]))
    assert not inst.better_cmp(inst.contribution(1, [0]), inst.contribution(2, [0]))
    assert inst.score_contribution(2, inst.tmask) > inst.score_contribution(1, inst.tmask)


# -- the scaled-integer core against an edge-list model ------------------------------

@st.composite
def _core_case(draw):
    n = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = sorted(set(draw(st.lists(pairs, max_size=12))))
    tset = draw(st.sets(st.integers(0, n - 1), max_size=2))
    # bonus denominators that need not divide alpha's, and t with others again
    bonus = {
        v: F(draw(st.integers(0, 9)), draw(st.sampled_from((1, 2, 3, 5, 7))))
        for v in range(n) if v not in tset
    }
    t = F(draw(st.integers(-20, 40)), draw(st.sampled_from((1, 4, 9, 11))))
    k = draw(st.integers(len(tset), n))
    moves = draw(st.lists(st.tuples(st.sampled_from(("include", "exclude", "shift")), st.integers(0, 99)),
                          max_size=6))
    return n, edges, tset, bonus, t, k, moves


class _EdgeListModel:
    """Values recomputed from the alive edge list with Fractions only."""

    def __init__(self, edges, alive, tset, bonus, t, k, alpha):
        self.edges, self.alive, self.tset = edges, set(alive), set(tset)
        self.bonus, self.t, self.k, self.alpha = dict(bonus), t, k, alpha

    def alive_edges(self):
        return [(u, v) for u, v in self.edges if u in self.alive and v in self.alive]

    def val(self, s):
        s = set(s)
        inner = sum(1 for u, v in self.alive_edges() if u in s and v in s)
        cut = sum(1 for u, v in self.alive_edges() if (u in s) != (v in s))
        return self.alpha * cut + sum((self.bonus.get(v, F(0)) for v in s), F(0)) + (1 - self.alpha) * inner

    def deg_bonus(self, v):
        return self.alpha * sum(1 for e in self.alive_edges() if v in e) + self.bonus.get(v, F(0))

    def free(self):
        return sorted(self.alive - self.tset)

    def include(self, v):
        self.t -= self.bonus.pop(v, F(0))
        self.tset.add(v)

    def exclude(self, v):
        for e in self.alive_edges():
            if v in e:
                u = e[0] + e[1] - v
                if u in self.tset:
                    self.t -= self.alpha
                else:
                    self.bonus[u] = self.bonus.get(u, F(0)) + self.alpha
        self.bonus.pop(v, None)
        self.alive.discard(v)

    def shift(self, amount):
        for v in self.free():
            self.bonus[v] = self.bonus.get(v, F(0)) - amount
        self.t -= amount * (self.k - len(self.tset))


def _assert_matches(inst, model):
    alive = sorted(model.alive)
    assert inst.alive_vertices() == tuple(alive) and inst.t_vertices() == tuple(sorted(model.tset))
    assert inst.t == model.t
    assert t_prime(inst) == model.t - model.val(model.tset)
    for v in range(inst.graph.n):
        assert inst.bonus[v] == (model.bonus.get(v, F(0)) if v in model.alive else 0)
    for v in alive:
        assert inst.deg_bonus(v) == model.deg_bonus(v)
        assert inst.contribution(v, model.tset) == model.val(model.tset | {v}) - model.val(model.tset - {v})
    for size in range(len(alive) + 1):
        for s in combinations(alive, size):
            assert inst.val(s) == model.val(s)
    for x in (inst.t, t_prime(inst)):
        need = inst.score_needed(x)
        assert inst.better_cmp(inst.from_score(need), x) and not inst.better_cmp(inst.from_score(need - 1), x)
    # brute force against the best k-set of the model
    free, need = model.free(), model.k - len(model.tset)
    values = [model.val(model.tset | set(c)) for c in combinations(free, need)] if 0 <= need <= len(free) else []
    res = brute_force(inst)
    if not values:
        assert res.best_value is None and not res.decision
        return
    best = max(values) if inst.variant == MAX else min(values)
    assert res.best_value == best
    assert res.decision == inst.better_cmp(best, model.t)


@settings(max_examples=300, deadline=None)
@given(
    case=_core_case(),
    alpha=st.sampled_from((F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))),
    variant=st.sampled_from((MAX, MIN)),
)
def test_scaled_core_matches_edge_list_model(case, alpha, variant):
    n, edges, tset, bonus, t, k, moves = case
    inst = AnnotatedInstance(
        graph=Graph.from_edges(n, edges), alive=(1 << n) - 1, tmask=sum(1 << v for v in tset),
        bonus=tuple(bonus.get(v, F(0)) for v in range(n)), k=k, t=t, alpha=alpha, variant=variant,
    )
    model = _EdgeListModel(edges, range(n), tset, bonus, t, k, alpha)
    _assert_matches(inst, model)
    for op, pick in moves:
        free = model.free()
        if not free:
            break
        v = free[pick % len(free)]
        if op == "include":
            inst = inst.include(v)
            model.include(v)
        elif op == "exclude":
            inst = inst.exclude(v)
            model.exclude(v)
        else:
            amount = min(model.bonus.get(u, F(0)) for u in free)
            inst = inst.shift_bonus(amount)
            model.shift(amount)
        _assert_matches(inst, model)


def test_shift_off_the_scale_is_a_guard_violation():
    inst = annotated(path_graph(3), [], {0: 1, 1: 1, 2: 1}, 2, 0, F(1, 2), MAX)
    assert inst.shift_bonus(F(1, 2)).bonus == (0, 0, 0)
    with pytest.raises(GuardViolation, match="not a multiple"):
        inst.shift_bonus(F(1, 3))


def _typed_attributes(inst):
    return {name: (type(value), value) for name, value in vars(inst).items()}


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 9),
    seed=st.integers(0, 999),
    k=st.integers(0, 10),
    t=st.one_of(st.integers(-5, 30), st.fractions(F(-5), F(30), max_denominator=12)),
    alpha=st.sampled_from(ALPHAS),
    variant=st.sampled_from((MAX, MIN)),
)
def test_plain_constructor_matches_the_validating_one(n, seed, k, t, alpha, variant):
    g = gen_gnp(n, 1, 2, seed)
    fast = AnnotatedInstance.plain(g, k, t, alpha, variant)
    assert "bonus" not in vars(fast)  # built on its first read
    slow = AnnotatedInstance(g, (1 << n) - 1, 0, (F(0),) * n, k, F(t), alpha, variant)
    assert fast.bonus == slow.bonus and fast == slow
    assert _typed_attributes(fast) == _typed_attributes(slow)  # fields, scale, weights and scalars
    assert fast.is_plain and not (n and fast.include(0).is_plain)
    # the names bench/ still calls give the same instance
    compat = PlainInstance(g, k, t, alpha, variant).annotate()
    assert compat.bonus == slow.bonus and _typed_attributes(compat) == _typed_attributes(slow)
    # k is checked first (a ValueError, exit 2), then alpha, then the variant
    with pytest.raises(ValueError, match="k must be >= 0") as raised:
        AnnotatedInstance.plain(g, -1 - k, t, F(3, 2), "mid")
    assert type(raised.value) is ValueError
    with pytest.raises(GuardViolation, match="alpha must lie"):
        AnnotatedInstance.plain(g, k, t, F(3, 2), "mid")
    with pytest.raises(GuardViolation, match="variant must be"):
        AnnotatedInstance.plain(g, k, t, alpha, "mid")


def test_degrading_is_the_sign_of_pair_score():
    g = path_graph(3)
    for q in range(1, 13):
        for p in range(q + 1):
            alpha = F(p, q)
            assert check_alpha(alpha) is alpha  # a Fraction is taken as it is
            assert plain(g, 2, 0, alpha, MAX).degrading == (alpha > F(1, 3))
            assert plain(g, 2, 0, alpha, MIN).degrading == (alpha < F(1, 3))
        for alpha in (F(-1, q), F(q + 1, q)):
            with pytest.raises(GuardViolation, match="alpha must lie"):
                check_alpha(alpha)


# -- include / exclude ----------------------------------------------------------------

def test_include_zero_bonus_only_grows_t_set():
    inst = plain(path_graph(3), 2, 5, F(1, 2), MAX)
    nxt = inst.include(1)
    assert nxt.t == inst.t and nxt.t_vertices() == (1,)


def test_include_folds_bonus():
    g = Graph.from_edges(2, [])
    inst = annotated(g, [], {0: 3}, 1, 2, F(1, 2), MAX)
    nxt = inst.include(0)
    assert nxt.t == 2 - F(3, 2) and nxt.bonus[0] == 0


def test_exclude_isolated_is_pure_deletion():
    g = Graph.from_edges(3, [(1, 2)])
    inst = plain(g, 1, 0, F(1, 2), MAX)
    nxt = inst.exclude(0)
    assert nxt.n_alive == 2 and nxt.t == inst.t and all(b == 0 for b in nxt.bonus)


def test_exclude_p3_center_gives_leaf_bonuses():
    inst = plain(path_graph(3), 1, 0, F(1, 2), MAX)
    nxt = inst.exclude(1)
    assert nxt.bonus[0] == F(1, 2) and nxt.bonus[2] == F(1, 2)
    assert nxt.degree(0) == 0 and nxt.degree(2) == 0


def _restricted_optimum(inst, v, want_in):
    best = None
    free = [u for u in inst.free_vertices() if u != v]
    base = list(inst.t_vertices()) + ([v] if want_in else [])
    need = inst.k - len(base)
    if need < 0 or need > len(free):
        return None
    sign = 1 if inst.variant == MAX else -1
    for combo in combinations(free, need):
        value = inst.val(base + list(combo))
        if best is None or sign * (value - best) > 0:
            best = value
    return best


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MIN, F(1, 4)), (MAX, F(1, 3)), (MIN, F(1))])
def test_include_matches_restricted_solve(variant, alpha):
    for seed in range(12):
        g = gen_gnp(8, 1, 2, seed + 300)
        inst = annotated(g, [], {v: (seed + v) % 3 for v in range(8)}, 3, 2, alpha, variant)
        v = seed % 8
        restricted = _restricted_optimum(inst, v, want_in=True)
        after = inst.include(v)
        got = brute_force(after)
        if restricted is None:
            assert got.best_value is None
        else:
            assert got.best_value + (inst.t - after.t) == restricted


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MIN, F(1, 4)), (MAX, F(0)), (MIN, F(2, 3))])
def test_exclude_matches_restricted_solve(variant, alpha):
    for seed in range(12):
        g = gen_gnp(8, 1, 2, seed + 600)
        inst = annotated(g, [], {v: (seed + v) % 2 for v in range(8)}, 3, 2, alpha, variant)
        v = (seed * 3) % 8
        restricted = _restricted_optimum(inst, v, want_in=False)
        after = inst.exclude(v)
        got = brute_force(after)
        if restricted is None:
            assert got.best_value is None
        else:
            assert got.best_value + (inst.t - after.t) == restricted


def test_exclude_rejects_t_member():
    inst = annotated(path_graph(3), [1], {}, 2, 0, F(1, 2), MAX)
    with pytest.raises(GuardViolation):
        inst.exclude(1)


# -- modularity --------------------------------------------------------------------

@given(st.integers(0, 2**40 - 1), st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]))
@settings(max_examples=200, deadline=None)
def test_modularity_direction(bits, alpha):
    rng = random.Random(bits)
    g = gen_gnp(7, 1, 2, bits % 997)
    inst = plain(g, 3, 0, alpha, MAX)
    xs = {v for v in range(7) if (bits >> v) & 1}
    ys = xs | {v for v in range(7) if (bits >> (v + 7)) & 1}
    outside = [v for v in range(7) if v not in ys]
    if not outside:
        return
    v = outside[bits % len(outside)]
    dx = inst.val(xs | {v}) - inst.val(xs)
    dy = inst.val(ys | {v}) - inst.val(ys)
    if alpha > F(1, 3):
        assert dx >= dy
    elif alpha < F(1, 3):
        assert dx <= dy
    else:
        assert dx == dy


# -- de-annotation ---------------------------------------------------------------------

def test_deannotate_max_single_vertex_counter2():
    g = Graph.from_edges(1, [])
    inst = annotated(g, [], {0: 2}, 1, 1, F(1, 2), MAX)
    deann = deannotate_max(inst)
    # counter 2 plus floor(2) leaves; t' = 1 + (1/2)(0 + 2*1) = 2
    assert deann.plain.graph.n == 5 and deann.plain.t == 2
    before = brute_force(inst)
    after = brute_force(deann.plain)
    assert before.decision == after.decision


def test_deannotate_max_alpha_one_counterless():
    g = path_graph(3)
    inst = plain(g, 2, 1, F(1), MAX)
    deann = deannotate_max(inst)
    # floor(1/1) = 1 leaf plus the (2 - 1/a)(k-1) = 1 exchange pad per vertex
    assert deann.plain.graph.n == 9 and deann.plain.t == inst.t + 4


def test_deannotate_max_alpha_one_no_pad_at_k1():
    g = path_graph(3)
    inst = plain(g, 1, 1, F(1), MAX)
    deann = deannotate_max(inst)
    # k = 1 needs no exchange pad: exactly one leaf per vertex, t' = t + k
    assert deann.plain.graph.n == 6 and deann.plain.t == inst.t + 1


def test_deannotate_max_large_alpha_regression():
    # no-instance that the unpadded construction would flip to yes
    g = Graph.from_edges(6, [(0, 1), (2, 4), (4, 5)])
    inst = annotated(g, [1], {3: 2, 4: 2}, 4, F(27, 4), F(1), MAX)
    assert not brute_force(inst).decision
    deann = deannotate_max(inst)
    assert not brute_force(deann.plain, budget=10_000_000).decision


def test_deannotate_min_two_isolated():
    g = Graph.from_edges(2, [])
    inst = plain(g, 1, 0, F(1, 2), MIN)
    deann = deannotate_min(inst)
    # ell = smallest integer > 2*(0 + 1 + 1/2) = 3 -> 4; t' = a*ell*k'
    assert deann.ell == 4
    assert deann.plain.t == F(1, 2) * 4
    assert deann.plain.graph.n == 2 + (2 * 4 + 1)


def test_deannotate_min_t_only_shifts_for_free_vertices():
    g = complete_graph(3)
    inst = annotated(g, [0, 1], {}, 2, 5, F(1, 4), MIN)
    deann = deannotate_min(inst)
    assert deann.plain.t == inst.t  # k - |T| = 0


@pytest.mark.parametrize("variant,alpha", [(MAX, F(1, 2)), (MAX, F(2, 3)), (MIN, F(1, 4)), (MIN, F(1, 2))])
def test_deannotation_preserves_answers(variant, alpha):
    deann_fn = deannotate_max if variant == MAX else deannotate_min
    for seed in range(15):
        g = gen_gnp(6, 1, 2, seed + 900)
        inst = annotated(g, [seed % 6], {v: (seed + v) % 3 for v in range(6) if v != seed % 6},
                         1 + seed % 3, F(seed % 7, 2), alpha, variant)
        if inst.k <= inst.t_size:
            continue
        deann = deann_fn(inst)
        before = brute_force(inst)
        after = brute_force(deann.plain, budget=4_000_000)
        assert before.decision == after.decision
        if after.decision:
            lifted = lift_witness(deann, inst, after.witness)
            assert len(lifted) == inst.k


def _edge_list_deannotation(inst):
    """The gadget kernel of ``inst`` built edge by edge through ``from_edges``:
    (plain instance, origin, anchor, ell)."""
    counters = inst.counters()
    keep = inst.alive_vertices()
    index = {old: new for new, old in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in inst.graph.edges() if u in index and v in index]
    origin, anchor = list(keep), [-1] * len(keep)
    if inst.variant == MAX:
        inv_floor = math.floor(1 / inst.alpha)
        pad = math.ceil(max(F(0), 2 - 1 / inst.alpha) * (inst.k - 1)) if inst.k > 1 else 0
        ell = inst.delta_tbar() + inst.gamma() + math.ceil(abs(1 / inst.alpha - 3) * inst.k) + inv_floor
        for i, old_v in enumerate(keep):
            leaves = counters[old_v] + inv_floor + pad + (ell if (inst.tmask >> old_v) & 1 else 0)
            for _ in range(leaves):
                edges.append((i, len(origin)))
                origin.append(-1)
                anchor.append(i)
        t = inst.t + inst.alpha * (ell * inst.t_size + (inv_floor + pad) * inst.k)
    else:
        delta = max((inst.degree(v) for v in keep), default=0)
        ell = math.floor((delta + inst.gamma() + abs((1 - 3 * inst.alpha) * inst.k)) / inst.alpha) + 1
        clique = range(len(keep), len(keep) + 2 * ell + 1)
        edges.extend(combinations(clique, 2))
        for i, old_v in enumerate(keep):
            if not (inst.tmask >> old_v) & 1:
                edges.extend((i, clique[j]) for j in range(ell + counters[old_v]))
        origin += [-1] * len(clique)
        anchor += [-1] * len(clique)
        t = inst.t + inst.alpha * ell * inst.k_prime
    graph = Graph.from_edges(len(origin), edges)
    return AnnotatedInstance.plain(graph, inst.k, t, inst.alpha, inst.variant), tuple(origin), tuple(anchor), ell


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("variant", [MAX, MIN])
def test_gadget_masks_match_the_edge_list_construction(variant, alpha):
    deann_fn = deannotate_max if variant == MAX else deannotate_min
    rng = random.Random(f"gadgets {variant} {alpha}")
    for seed in range(40):
        n = rng.randint(1, 9)
        g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 1 + seed % 3, seed)
        tset = rng.sample(range(n), rng.randint(0, min(2, n)))
        counters = {v: rng.randint(0, 3) for v in range(n) if v not in tset}
        inst = annotated(g, tset, counters, rng.randint(max(1, len(tset)), n), F(rng.randint(0, 20), 2), alpha, variant)
        for _ in range(rng.randint(0, 2)):
            free = inst.free_vertices()
            if inst.n_alive > inst.k and free:
                inst = inst.exclude(rng.choice(free))
        if alpha == 0:
            with pytest.raises(GuardViolation, match="alpha = 0"):
                deann_fn(inst)
            continue
        deann = deann_fn(inst)
        ref, origin, anchor, ell = _edge_list_deannotation(inst)
        assert deann.plain.graph.masks == ref.graph.masks, inst.to_text()
        assert deann.plain.graph == ref.graph
        assert (deann.origin, deann.anchor, deann.ell, deann.plain.t) == (origin, anchor, ell, ref.t)
        assert kernel_file_text(deann.plain) == kernel_file_text(ref)


def test_deannotate_guards():
    inst = plain(path_graph(3), 1, 0, F(0), MAX)
    with pytest.raises(GuardViolation):
        deannotate_max(inst)
    bad = annotated(path_graph(3), [], {}, 1, 0, F(1, 2), MIN)
    bad = AnnotatedInstance(
        graph=bad.graph, alive=bad.alive, tmask=0,
        bonus=(F(1, 3), F(0), F(0)), k=1, t=F(0), alpha=F(1, 2), variant=MIN,
    )
    with pytest.raises(GuardViolation, match="integer multiple"):
        deannotate_min(bad)


def test_deannotate_short_instance_violates_guard():
    # fewer than k alive vertices: the gadget graph would admit k-sets
    for variant, deann_fn in ((MAX, deannotate_max), (MIN, deannotate_min)):
        with pytest.raises(GuardViolation, match="at least k alive"):
            deann_fn(plain(path_graph(2), 3, 0, F(1, 2), variant))


# -- serialization -----------------------------------------------------------------------

def test_snapshot_round_trip():
    g = gen_gnp(7, 1, 2, 123)
    inst = annotated(g, [2], {0: 1, 5: 2}, 3, F(7, 2), F(1, 2), MAX)
    back = AnnotatedInstance.from_text(inst.to_text())
    assert back.k == inst.k and back.t == inst.t and back.alpha == inst.alpha
    assert back.graph.m == inst.graph.m
    assert brute_force(back).best_value == brute_force(inst).best_value


def test_snapshot_remaps_alive_vertices():
    inst = plain(path_graph(4), 2, 0, F(1, 2), MAX).exclude(0)
    back = AnnotatedInstance.from_text(inst.to_text())
    assert back.graph.n == 3
    assert brute_force(back).best_value == brute_force(inst).best_value


def test_clique_wiring_check_survives_optimize():
    # alpha = 6, past the checks of __post_init__, makes the clique too small
    # for counter 10: ell = 5, so 15 wires against 11 clique vertices
    out = run_optimized(
        "from fractions import Fraction as F\n"
        "from fcgp.graph import Graph, RuleInternalError\n"
        "from fcgp.instance import MIN, AnnotatedInstance, deannotate_min\n"
        "class Lying(AnnotatedInstance):\n"
        "    def __post_init__(self):\n"
        "        self._set_scale(1, (60,))\n"
        "inst = Lying(Graph.from_edges(1, []), 1, 0, (F(60),), 1, F(0), F(6), MIN)\n"
        "try:\n"
        "    deannotate_min(inst)\n"
        "except RuleInternalError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "clique too small for counter wiring\n"
