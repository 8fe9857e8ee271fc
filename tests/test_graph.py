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
    minimum_vertex_cover,
    parse_graph,
    sniff_format,
)

from conftest import complete_graph, cycle_graph, greedy_cover, path_graph, star_graph


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


@given(st.integers(0, 9), st.integers(0, 2**81 - 1))
@settings(max_examples=150, deadline=None)
def test_parameter_inequalities(n, bits):
    # the inequalities pipeline selection relies on, for minimum and greedy covers
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (bits >> (i * n + j)) & 1]
    g = Graph.from_edges(n, edges)
    prof = compute_profile(g)
    assert prof.degeneracy <= prof.h_index <= prof.vc <= len(greedy_cover(g))
    assert prof.degeneracy <= prof.max_degree


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
