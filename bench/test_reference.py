"""The benchmark's reference solver agrees with fcgp's brute-force oracle.

Run from the repository root:  python3 -m pytest bench/test_reference.py
"""

from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
from fcgp.harness import gen_annotated, gen_degenerate, gen_gnp  # noqa: E402
from fcgp.instance import PlainInstance  # noqa: E402
from fcgp.solve import brute_force  # noqa: E402

ALPHAS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))


def _graph(seed: int, n: int):
    return gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 1 + seed % 3, seed)


def test_enumeration_matches_brute_force_on_annotated_instances():
    for seed in range(60):
        g = _graph(seed, 6 + seed % 5)
        for alpha in ALPHAS:
            for variant in (ref.MAX, ref.MIN):
                inst = gen_annotated(g, seed, alpha, variant, (1, 4), (0, 2), allow_t=seed % 3 != 0)
                rinst = ref.RefInstance.from_annotated(inst)
                got = ref.solve(rinst)
                want = brute_force(inst)
                assert got.optimum == want.best_value, (seed, alpha, variant)
                assert got.decision(rinst) == want.decision
                assert rinst.value(got.witness) == got.optimum
                assert rinst.tset <= set(got.witness) and len(got.witness) == inst.k


def test_branch_and_bound_matches_brute_force_on_plain_instances():
    degrading = [(ref.MAX, a) for a in (F(1, 2), F(2, 3), F(1))] + [(ref.MIN, F(1, 4))]
    for seed in range(30):
        g = _graph(seed, 14 + seed % 7)
        edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
        for variant, alpha in degrading:
            k = 1 + seed % 4
            rinst = ref.RefInstance.plain(g.n, edges, k, 0, alpha, variant)
            assert rinst.is_plain and rinst.degrading
            got = ref.solve(rinst)
            want = brute_force(PlainInstance(g, k, F(0), alpha, variant).annotate())
            assert got.optimum == want.best_value, (seed, alpha, variant, k)
            assert rinst.value(got.witness) == got.optimum


def test_value_from_the_edge_list():
    # path 0-1-2: S={0,1} has one inside edge and one edge leaving
    rinst = ref.RefInstance.plain(3, [(0, 1), (1, 2)], 2, F(1), F(1, 2), ref.MAX)
    assert rinst.value((0, 1)) == F(1, 2) * 1 + F(1, 2) * 1
    assert rinst.is_witness((0, 1))
    assert not rinst.is_witness((0, 0))
    assert not rinst.is_witness((0,))
