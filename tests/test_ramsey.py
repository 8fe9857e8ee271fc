from fractions import Fraction

import pytest

from fcgp import ramsey
from fcgp.graph import Graph, compute_profile
from fcgp.harness import gen_degenerate, gen_gnp

from conftest import complete_graph, empty_graph, path_graph, run_optimized


def verify(g, witness):
    if witness.kind == ramsey.CLIQUE:
        assert g.is_clique(witness.vertices)
    else:
        assert g.is_independent_set(witness.vertices)


# -- classic ------------------------------------------------------------------

# the n = 1100 rows descend 1,099 steps, past the default recursion limit
@pytest.mark.parametrize("n,p,q", [(6, 3, 3), (1100, 1100, 2)])
def test_classic_complete_graph_gives_clique(n, p, q):
    g = complete_graph(n)
    w = ramsey.classic_ramsey(g, p, q)
    assert w.kind == ramsey.CLIQUE and len(w.vertices) == p
    verify(g, w)


@pytest.mark.parametrize("n,p,q", [(6, 3, 3), (1100, 2, 1100)])
def test_classic_empty_graph_gives_independent_set(n, p, q):
    w = ramsey.classic_ramsey(empty_graph(n), p, q)
    assert w.kind == ramsey.INDEPENDENT_SET and len(w.vertices) == q


def test_classic_c5_plus_isolated():
    # C5 has no triangle (brute-checked) so the answer must be an independent set
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    from itertools import combinations

    assert not any(g.is_clique(c) for c in combinations(range(6), 3))
    w = ramsey.classic_ramsey(g, 3, 3)
    assert w.kind == ramsey.INDEPENDENT_SET and len(w.vertices) == 3
    verify(g, w)


def test_classic_too_few_vertices():
    with pytest.raises(ramsey.TooFewVertices):
        ramsey.classic_ramsey(empty_graph(5), 3, 3)


def test_classic_prefers_clique_side():
    # K6: both sides would do; the clique branch must win
    w = ramsey.classic_ramsey(complete_graph(6), 2, 2)
    assert w.kind == ramsey.CLIQUE


def test_classic_bound_is_pascal():
    for p in range(1, 6):
        for q in range(1, 6):
            if p > 1 and q > 1:
                assert ramsey.classic_bound(p, q) == ramsey.classic_bound(p - 1, q) + ramsey.classic_bound(p, q - 1)


# -- c-closed -----------------------------------------------------------------

def test_rc_bound_values():
    assert ramsey.rc_bound(3, 3, 2) == 6
    assert ramsey.rc_bound(1, 1, 1) == 1
    assert ramsey.rc_bound(2, 4, 3) == 10


def test_cclosed_k6():
    w = ramsey.cclosed_ramsey(complete_graph(6), 3, 3, 1)
    assert w.kind == ramsey.CLIQUE and len(w.vertices) == 3


def test_cclosed_empty6():
    w = ramsey.cclosed_ramsey(empty_graph(6), 3, 3, 1)
    assert w.kind == ramsey.INDEPENDENT_SET and len(w.vertices) == 3


def test_cclosed_random_graphs_at_bound():
    for seed in range(30):
        g = gen_gnp(12, 1, 3, seed)
        c = compute_profile(g).c_closure
        if g.n >= ramsey.rc_bound(3, 3, c):
            w = ramsey.cclosed_ramsey(g, 3, 3, c)
            verify(g, w)
            assert len(w.vertices) == 3


def test_cclosed_too_few():
    with pytest.raises(ramsey.TooFewVertices):
        ramsey.cclosed_ramsey(empty_graph(3), 3, 5, 2)


# -- biclique-free ------------------------------------------------------------

def test_bcfree_bound_values():
    assert ramsey.bcfree_ramsey_bound(2, 2, 2) == 12
    assert ramsey.bcfree_ramsey_bound(1, 3, 4) == 4 * (3 + 1)
    assert ramsey.bcfree_ramsey_bound(2, 2, 3) == 21


def test_bcfree_forest_pair():
    g = gen_degenerate(12, 1, 3)
    got = ramsey.bcfree_independent_set(g, 2, 2, 2)
    assert len(got) == 2 and g.is_independent_set(got)


def test_bcfree_empty_graph():
    g = empty_graph(12)
    assert ramsey.bcfree_independent_set(g, 2, 2, 2) == (0, 1)


def test_bcfree_random_trees():
    for seed in range(30):
        g = gen_degenerate(21, 1, seed)
        got = ramsey.bcfree_independent_set(g, 2, 2, 3)
        assert len(got) == 3 and g.is_independent_set(got)


def test_bcfree_detects_biclique():
    # K4 contains K_{2,2}; the improvement loop must flag the precondition
    g = complete_graph(13)
    with pytest.raises(ramsey.ExtractionPreconditionError):
        ramsey.bcfree_independent_set(g, 2, 2, 2)


# -- degenerate greedy ----------------------------------------------------------

def test_degenerate_p6():
    assert ramsey.degenerate_independent_set(path_graph(6), 1, 3) == (0, 2, 4)


def test_degenerate_two_triangles():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    got = ramsey.degenerate_independent_set(g, 2, 2)
    assert len(got) == 2 and g.is_independent_set(got)


def test_degenerate_random_trees():
    for seed in range(20):
        g = gen_degenerate(8, 1, seed + 5)
        got = ramsey.degenerate_independent_set(g, 1, 4)
        assert len(got) == 4 and g.is_independent_set(got)


def test_degenerate_too_few():
    with pytest.raises(ramsey.TooFewVertices):
        ramsey.degenerate_independent_set(path_graph(5), 1, 3)


def test_pascal_check_survives_optimize():
    # a pool below the Ramsey bound leaves neither side enough vertices
    out = run_optimized(
        "from fcgp.graph import Graph, RuleInternalError\n"
        "from fcgp.ramsey import _classic\n"
        "try:\n"
        "    _classic(Graph.from_edges(1, []), (0,), 2, 2)\n"
        "except RuleInternalError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "Pascal identity violated\n"
