import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcgp.graph as graph_mod
from fcgp.graph import (
    Graph,
    GraphFormatError,
    VcBudgetExceeded,
    compute_profile,
    degeneracy_ordering,
    iter_mask,
    minimum_vertex_cover,
    parse_graph,
    sniff_format,
)
from fcgp.harness import gen_degenerate, gen_gnp

from conftest import complete_graph, cycle_graph, disjoint_triangles, greedy_cover, path_graph, star_graph, triangle_chain


# -- parsing -----------------------------------------------------------------

def test_parse_edgelist_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.adj == ((1,), (0, 2), (1,))


def test_parse_dimacs_k3():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3", "dimacs")
    assert g.n == 3 and g.m == 3
    assert g.is_clique([0, 1, 2])


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("2 1\n0 0")
    assert "line 2" in str(err.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph("3 2\n0 1\n0 1")


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphFormatError, match="0 <= u < v"):
        parse_graph("3 1\n1 5")


def test_parse_rejects_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="declared"):
        parse_graph("3 2\n0 1")


def test_parse_comments_and_whitespace():
    g = parse_graph("# header\n 3 1 \n\n0   2  # trailing\n")
    assert g.m == 1 and g.has_edge(0, 2)


def test_dimacs_rejects_unknown_tag_and_range():
    with pytest.raises(GraphFormatError):
        parse_graph("p edge 2 1\nx 1 2", "dimacs")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("p edge 2 1\ne 1 3", "dimacs")


def test_sniff_format():
    assert sniff_format("p edge 2 1\ne 1 2") == "dimacs"
    assert sniff_format("# c\n2 1\n0 1") == "edgelist"


# -- edge counts --------------------------------------------------------------

def test_edge_counts_k3_pair():
    assert complete_graph(3).edge_counts([0, 1]) == (1, 2)


def test_edge_counts_p3_center():
    assert path_graph(3).edge_counts([1]) == (0, 2)


def test_edge_counts_empty_set():
    assert cycle_graph(5).edge_counts([]) == (0, 0)


@given(st.integers(0, 8), st.integers(0, 2**28))
@settings(max_examples=60, deadline=None)
def test_edge_partition_invariant(n, bits):
    # m_in + m_out + m(G - S) = m(G) for every S
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (bits >> (i * n + j)) & 1]
    g = Graph.from_edges(n, edges)
    smask = bits % (2**n or 1)
    s = [v for v in range(n) if (smask >> v) & 1]
    m_in, m_out = g.edge_counts(s)
    rest, _ = g.induced([v for v in range(n) if not (smask >> v) & 1])
    assert m_in + m_out + rest.m == g.m


# -- profiles -----------------------------------------------------------------

def test_profile_c4():
    prof = compute_profile(cycle_graph(4))
    assert (prof.max_degree, prof.degeneracy, prof.h_index, prof.c_closure, prof.vc) == (2, 2, 2, 3, 2)


def test_profile_k4():
    prof = compute_profile(complete_graph(4))
    assert (prof.max_degree, prof.degeneracy, prof.h_index, prof.c_closure, prof.vc) == (3, 3, 3, 1, 3)


def test_profile_star5():
    prof = compute_profile(star_graph(5))
    assert (prof.max_degree, prof.degeneracy, prof.h_index, prof.c_closure, prof.vc) == (5, 1, 1, 2, 1)


def test_degeneracy_ordering_witness():
    # every vertex has <= d neighbors among its successors, and some suffix
    # attains min degree d
    from fcgp.harness import gen_gnp

    for seed in range(12):
        g = gen_gnp(10, 1, 2, seed)
        order, d = degeneracy_ordering(g)
        pos = {v: i for i, v in enumerate(order)}
        for i, v in enumerate(order):
            later = sum(1 for u in g.neighbors(v) if pos[u] > i)
            assert later <= d
        attained = False
        for i in range(len(order)):
            sub, _ = g.induced(order[i:])
            if sub.n and min(sub.degree(v) for v in range(sub.n)) == d:
                attained = True
                break
        assert attained


def test_c_closure_matches_bruteforce():
    from fcgp.harness import gen_gnp

    for seed in range(10):
        g = gen_gnp(9, 1, 2, seed + 40)
        prof = compute_profile(g)
        best = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    best = max(best, len(set(g.neighbors(u)) & set(g.neighbors(v))))
        assert prof.c_closure == best + 1


def test_c_closure_tiny_graphs():
    assert compute_profile(Graph.from_edges(0, [])).c_closure == 1
    assert compute_profile(Graph.from_edges(1, [])).c_closure == 1


def c_closure_by_masks(g: Graph) -> int:
    """The c-closure as computed before wedge counting, kept as the reference:
    for each u, the vertices above u at distance two as one mask union, then
    a popcount of each pair's common neighbours."""
    best = 0
    for u in range(g.n):
        far = 0
        for w in g.adj[u]:
            far |= g.masks[w]
        far &= ~g.masks[u] & -(1 << (u + 1))
        for v in iter_mask(far):
            best = max(best, (g.masks[u] & g.masks[v]).bit_count())
    return best + 1


def _hub_graph(n: int, rng: random.Random, chords: int) -> Graph:
    """A tree grown by preferential attachment (each new vertex joins an
    endpoint drawn in proportion to degree, which grows hubs), plus chords."""
    edges = set()
    ends = [0]
    for v in range(1, n):
        u = rng.choice(ends)
        edges.add((u, v))
        ends += [u, v]
    for _ in range(chords if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


@given(st.integers(0, 10**6), st.integers(0, 90), st.sampled_from(("gnp", "degenerate", "hub tree", "hub tree + chords")))
@settings(max_examples=200, deadline=None)
def test_c_closure_by_wedges_matches_masks(seed, n, family):
    rng = random.Random(seed)
    if family == "gnp":
        g = gen_gnp(n, rng.randint(1, 4), rng.choice((4, 8, max(n, 4))), seed)
    elif family == "degenerate":
        g = gen_degenerate(n, rng.randint(1, 4), seed)
    else:
        g = _hub_graph(n, rng, 0 if family == "hub tree" else rng.randint(1, 2 * n + 1))
    assert compute_profile(g).c_closure == c_closure_by_masks(g)


def _profile_graphs():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(1, 120)
        yield gen_degenerate(n, 1 + seed % 4, seed)
        yield gen_gnp(n, rng.randint(1, 4), max(n, 4), seed)
        yield _hub_graph(n, rng, rng.choice((0, n // 4)))


def test_lazy_profile_matches_direct_calls():
    # each parameter, read in a different order per graph, equals the direct
    # call of its function, and a second read returns the kept value
    for i, g in enumerate(_profile_graphs()):
        prof = compute_profile(g)
        names = ["max_degree", "degeneracy", "degeneracy_ordering", "h_index", "c_closure"]
        random.Random(i).shuffle(names)
        got = {name: getattr(prof, name) for name in names}
        order, d = degeneracy_ordering(g)
        want = {
            "max_degree": max((g.degree(v) for v in range(g.n)), default=0),
            "degeneracy": d,
            "degeneracy_ordering": order,
            "h_index": graph_mod.h_index(g),
            "c_closure": graph_mod.c_closure(g),
        }
        assert got == want
        assert all(getattr(prof, name) is got[name] for name in names)


def _count_parameter_calls(monkeypatch) -> dict:
    calls = {}
    for name in ("degeneracy_ordering", "h_index", "c_closure"):
        def counting(g, name=name, fn=getattr(graph_mod, name)):
            calls[name] = calls.get(name, 0) + 1
            return fn(g)

        monkeypatch.setattr(graph_mod, name, counting)
    return calls


@pytest.mark.parametrize("pipeline, called", [("delta", {}), ("closure", {"c_closure": 1})])
def test_a_run_computes_only_the_parameters_it_reads(monkeypatch, pipeline, called):
    from fcgp.instance import MAX, AnnotatedInstance
    from fcgp.rules import run_pipeline

    calls = _count_parameter_calls(monkeypatch)
    for i, g in enumerate(_profile_graphs()):
        inst = AnnotatedInstance.plain(g, 3, Fraction(g.m, 2), Fraction(1, 2), MAX)
        for profile in (compute_profile(g), None):  # None: run_pipeline builds its own
            calls.clear()
            run_pipeline(inst, pipeline, profile=profile)
            assert calls == called, (i, profile)


def test_vertex_cover_minimality_exhaustive():
    from itertools import combinations

    from fcgp.harness import gen_gnp

    for seed in range(8):
        g = gen_gnp(9, 1, 2, seed + 77)
        cover = minimum_vertex_cover(g)
        assert all(u in cover or v in cover for u, v in g.edges())
        for smaller in combinations(range(g.n), len(cover) - 1):
            s = set(smaller)
            assert not all(u in s or v in s for u, v in g.edges())


def test_vertex_cover_budget():
    with pytest.raises(VcBudgetExceeded):
        minimum_vertex_cover(complete_graph(8), budget=3)
    prof = compute_profile(complete_graph(8), vc_budget=3)
    assert prof.vertex_cover is None and prof.vc is None


def test_cover_is_searched_on_first_read_only(monkeypatch):
    budgets = []
    search = graph_mod.minimum_vertex_cover

    def counting(g, budget=25):
        budgets.append(budget)
        return search(g, budget=budget)

    monkeypatch.setattr(graph_mod, "minimum_vertex_cover", counting)
    prof = compute_profile(cycle_graph(6), vc_budget=5)
    assert budgets == []
    assert prof.vc == 3 and len(prof.vertex_cover) == 3
    assert budgets == [5]
    assert compute_profile(cycle_graph(6), vc_budget=-1).vc is None
    assert budgets == [5]


# -- exact vertex cover search -------------------------------------------------

def unbounded_vc_decide(g: Graph, cover: int, remaining: int, nodes: list[int]) -> int | None:
    """The cover search with no cut: branch on the lowest-index vertex u with
    an uncovered edge, taking u, then u's lowest-index uncovered neighbour."""
    nodes[0] += 1
    edge = None
    for u in range(g.n):
        if (cover >> u) & 1:
            continue
        free = g.masks[u] & ~cover
        if free:
            edge = (u, (free & -free).bit_length() - 1)
            break
    if edge is None:
        return cover
    if remaining == 0:
        return None
    u, v = edge
    got = unbounded_vc_decide(g, cover | (1 << u), remaining - 1, nodes)
    if got is not None:
        return got
    return unbounded_vc_decide(g, cover | (1 << v), remaining - 1, nodes)


def unbounded_cover(g: Graph, budget: int = 25) -> tuple[tuple[int, ...] | None, int]:
    """The canonical cover by iterative deepening from size 0, and its node count."""
    nodes = [0]
    for size in range(min(budget, g.n) + 1):
        cover = unbounded_vc_decide(g, 0, size, nodes)
        if cover is not None:
            return tuple(sorted(iter_mask(cover))), nodes[0]
    return None, nodes[0]


def planted_cover_graph(seed: int) -> Graph:
    """20-30 vertices whose every edge touches one of 3-15 hubs (covers up to 14)."""
    rng = random.Random(seed)
    n = rng.randint(20, 30)
    hubs = rng.sample(range(n), rng.randint(3, 15))
    edges = set()
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.choice(hubs), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def relabelled(n: int, edges, rng: random.Random) -> Graph:
    """The graph of ``edges`` under a random relabelling of ``0..n-1``."""
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def interleaved_components_graph(seed: int) -> Graph:
    """2-4 random components of 2-7 vertices each, whose labels interleave."""
    rng = random.Random(seed)
    n = 0
    edges = []
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 7)
        part = [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < 0.5]
        part.append((0, 1))
        edges += [(n + u, n + v) for u, v in set(part)]
        n += size
    return relabelled(n, edges, rng)


def leafy_graph(seed: int) -> Graph:
    """A random tree of 3-8 vertices with 0-4 pendant leaves on each, relabelled."""
    rng = random.Random(seed)
    core = rng.randint(3, 8)
    edges = [(rng.randrange(v), v) for v in range(1, core)]
    n = core
    for v in range(core):
        for _ in range(rng.randint(0, 4)):
            edges.append((v, n))
            n += 1
    return relabelled(n, edges, rng)


def triangle_heavy_graph(seed: int) -> Graph:
    """3-6 random triangles on 8-16 vertices, possibly sharing vertices and edges."""
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    edges = set()
    for _ in range(rng.randint(3, 6)):
        a, b, c = sorted(rng.sample(range(n), 3))
        edges |= {(a, b), (a, c), (b, c)}
    return Graph.from_edges(n, edges)


def test_cover_matches_the_unbounded_search(monkeypatch):
    graphs = [
        *(gen_gnp(6 + seed % 15, 1, 4, seed) for seed in range(170)),
        *(gen_degenerate(8 + seed % 23, 1 + seed % 3, seed) for seed in range(170)),
        *(planted_cover_graph(seed) for seed in range(200)),
        *(interleaved_components_graph(seed) for seed in range(100)),
        *(leafy_graph(seed) for seed in range(100)),
        *(triangle_heavy_graph(seed) for seed in range(100)),
    ]
    totals = []
    search = graph_mod._vc_decide

    def counting(*args):
        got = search(*args)
        totals.append(got[1])
        return got

    monkeypatch.setattr(graph_mod, "_vc_decide", counting)
    sizes = set()
    for g in graphs:
        want, want_nodes = unbounded_cover(g)
        totals.clear()
        try:
            got = minimum_vertex_cover(g)
        except VcBudgetExceeded:
            got = None
        assert got == want
        assert (totals[-1] if totals else 0) <= want_nodes
        if want is not None:
            # with the budget at the cover size, a cut one vertex early loses the cover
            assert minimum_vertex_cover(g, budget=len(want)) == want
        sizes.add(None if got is None else len(got))
    assert set(range(1, 15)) <= sizes


def test_deep_cover_search_needs_no_recursion():
    # a perfect matching's bound equals every remaining size, so the search goes 1,200 levels deep
    g = Graph.from_edges(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    assert minimum_vertex_cover(g, budget=5000) == tuple(range(0, 2400, 2))


def test_cover_below_the_matching_bound_is_not_searched(monkeypatch):
    # 26 disjoint edges need 26 vertices: the bound alone refutes budget 25
    g = Graph.from_edges(52, [(2 * i, 2 * i + 1) for i in range(26)])
    monkeypatch.setattr(graph_mod, "_vc_decide", None)
    with pytest.raises(VcBudgetExceeded, match="size <= 25"):
        minimum_vertex_cover(g)


def test_node_budget_ends_the_search():
    # one component, whose greedy matching has 13 edges while a cover needs
    # two vertices per triangle: the sizes 13 to 23 all fail, and the budget
    # runs out among them
    with pytest.raises(VcBudgetExceeded, match=f"node budget of {graph_mod.VC_NODE_BUDGET:,} nodes"):
        minimum_vertex_cover(triangle_chain(12))
    assert len(minimum_vertex_cover(triangle_chain(6))) == 12


def test_components_are_searched_one_at_a_time():
    # each triangle is its own search of a few nodes, where one search over
    # the whole graph passed the node budget; the star's centre is its cover
    g = Graph.from_edges(1037, [*disjoint_triangles(12).edges(), *((36, leaf) for leaf in range(37, 1037))])
    start = time.perf_counter()
    cover = minimum_vertex_cover(g)
    assert time.perf_counter() - start < 5
    assert cover == (*sorted(v for i in range(12) for v in (3 * i, 3 * i + 1)), 36)
    assert minimum_vertex_cover(disjoint_triangles(12)) == cover[:-1]


@given(st.integers(0, 9), st.integers(0, 2**81 - 1))
@settings(max_examples=150, deadline=None)
def test_parameter_inequalities(n, bits):
    # the inequalities pipeline selection relies on, for minimum and greedy covers
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (bits >> (i * n + j)) & 1]
    g = Graph.from_edges(n, edges)
    prof = compute_profile(g)
    assert prof.degeneracy <= prof.h_index <= prof.vc <= len(greedy_cover(g))
    assert prof.degeneracy <= prof.max_degree


@st.composite
def _edge_lists(draw):
    """A vertex count and distinct edges over it, each in either orientation, in random order."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return n, []
    chosen = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), unique_by=lambda e: e[0]))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in chosen]


@given(_edge_lists())
@settings(max_examples=200, deadline=None)
def test_masks_are_the_graph(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    assert Graph.from_masks(g.masks) == g
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert g.adj == tuple(tuple(sorted(s)) for s in nbrs)
    assert g.m == len(edges)
    assert [g.degree(v) for v in range(n)] == [len(s) for s in nbrs]


@given(st.integers(0, 40), st.integers(0, 5), st.integers(0, 2), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_adjacency_rows_are_the_mask_bits(n, ands, ors, seed):
    # n random n-digit rows, thinned by ANDs and filled by ORs of more: sparse
    # graphs are read bit by bit, dense ones from their binary digits
    rng = random.Random(seed)
    masks = []
    for _ in range(n):
        mask = rng.getrandbits(n)
        for _ in range(rng.randint(0, ands)):
            mask &= rng.getrandbits(n)
        for _ in range(rng.randint(0, ors)):
            mask |= rng.getrandbits(n)
        masks.append(mask)
    assert Graph.from_masks(masks).adj == tuple(tuple(iter_mask(mask)) for mask in masks)


def test_graph_from_edges_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_induced_subgraph_mapping():
    g = cycle_graph(5)
    sub, back = g.induced([1, 2, 4])
    assert sub.n == 3 and back == (1, 2, 4)
    assert sub.has_edge(0, 1) and not sub.has_edge(0, 2) and not sub.has_edge(1, 2)
