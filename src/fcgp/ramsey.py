"""Constructive clique-or-independent-set extraction.

Three flavors — the classic binomial-bound descent, the c-closed variant,
and the biclique-free variant — plus the greedy extractor for d-degenerate
graphs.  Every extractor verifies its witness before returning; a failed
verification signals an internal bug, never bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph, RuleInternalError, degeneracy_ordering

CLIQUE = "clique"
INDEPENDENT_SET = "independent_set"


class TooFewVertices(ValueError):
    """Input graph is below the extractor's size precondition."""


class ExtractionPreconditionError(ValueError):
    """A structural precondition (e.g. biclique-freeness) turned out false."""


class WitnessVerificationError(AssertionError):
    """An extractor produced an invalid witness; internal bug signal."""


@dataclass(frozen=True)
class RamseyWitness:
    kind: str
    vertices: tuple[int, ...]


def _verified(g: Graph, kind: str, vertices: list[int]) -> RamseyWitness:
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise WitnessVerificationError(f"repeated vertices in {kind} witness")
    ok = g.is_clique(vs) if kind == CLIQUE else g.is_independent_set(vs)
    if not ok:
        raise WitnessVerificationError(f"{kind} witness {vs} fails adjacency check")
    return RamseyWitness(kind=kind, vertices=vs)


def classic_bound(p: int, q: int) -> int:
    """R(p, q) <= C(p + q - 2, p - 1)."""
    return math.comb(p + q - 2, p - 1)


def classic_ramsey(g: Graph, p: int, q: int) -> RamseyWitness:
    """Clique of size p or independent set of size q, for n >= C(p+q-2, p-1).

    Standard descent, a loop in :func:`_classic`: pick the smallest vertex v
    and descend into its neighborhood with (p-1, q) or its non-neighborhood
    with (p, q-1), preferring the clique side when both meet their binomial
    bound.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if g.n < classic_bound(p, q):
        raise TooFewVertices(f"need {classic_bound(p, q)} vertices, have {g.n}")
    kind, verts = _classic(g, tuple(range(g.n)), p, q)
    return _verified(g, kind, verts)


def _classic(g: Graph, pool: tuple[int, ...], p: int, q: int) -> tuple[str, list[int]]:
    """The descent as a loop, one (v, side) per step; the witness is the
    last pool's first vertex plus each v whose side matches the kind found."""
    steps: list[tuple[int, str]] = []
    while p > 1 and q > 1:
        v = pool[0]
        nbrs = tuple(u for u in pool[1:] if g.has_edge(v, u))
        rest = tuple(u for u in pool[1:] if not g.has_edge(v, u))
        # Pascal: one side always meets its bound; prefer the clique side.
        if len(nbrs) >= classic_bound(p - 1, q):
            steps.append((v, CLIQUE))
            pool, p = nbrs, p - 1
        elif len(rest) >= classic_bound(p, q - 1):
            steps.append((v, INDEPENDENT_SET))
            pool, q = rest, q - 1
        else:
            raise RuleInternalError("Pascal identity violated")
    kind = CLIQUE if p == 1 else INDEPENDENT_SET
    return kind, [pool[0]] + [v for v, side in reversed(steps) if side == kind]


def rc_bound(q: int, b: int, c: int) -> int:
    """Vertex threshold forcing a q-clique or b-independent-set in c-closed graphs."""
    if q < 1 or b < 1 or c < 1:
        raise ValueError("q, b, c must be >= 1")
    return (c - 1) * math.comb(b - 1, 2) + (q - 1) * (b - 1) + 1


def cclosed_ramsey(g: Graph, q: int, b: int, c: int) -> RamseyWitness:
    """Clique of size q or independent set of size b in a c-closed graph.

    Requires n >= rc_bound(q, b, c).  Grows a maximal independent set I;
    while |I| < b either some bucket V_u = {v : N(v) cap I = {u}} hides two
    non-adjacent vertices (swap them in for u, growing I), or some bucket
    reaches size q and, being pairwise adjacent around u, yields a clique.
    The counting argument guarantees one of the two fires.
    """
    if g.n < rc_bound(q, b, c):
        raise TooFewVertices(f"need {rc_bound(q, b, c)} vertices, have {g.n}")
    if q == 1:
        return _verified(g, CLIQUE, [0])
    ind: list[int] = []
    for _ in range(g.n + 1):
        ind = _greedy_maximal_extend(g, ind)
        if len(ind) >= b:
            return _verified(g, INDEPENDENT_SET, sorted(ind)[:b])
        buckets = _single_anchor_buckets(g, ind)
        swapped = False
        for u in sorted(buckets):
            members = buckets[u]
            pair = _nonadjacent_pair(g, members)
            if pair is not None:
                ind = [w for w in ind if w != u] + list(pair)
                swapped = True
                break
            if 1 + len(members) >= q:
                return _verified(g, CLIQUE, [u] + members[: q - 1])
        if not swapped:
            raise WitnessVerificationError(
                "counting argument failed; graph is likely not c-closed for the given c"
            )
    raise WitnessVerificationError("independent-set growth failed to terminate")


def _greedy_maximal_extend(g: Graph, ind: list[int]) -> list[int]:
    out = list(ind)
    taken = set(out)
    for v in range(g.n):
        if v not in taken and not any(g.has_edge(v, u) for u in out):
            out.append(v)
            taken.add(v)
    return out


def _single_anchor_buckets(g: Graph, ind: list[int]) -> dict[int, list[int]]:
    ind_set = set(ind)
    buckets: dict[int, list[int]] = {u: [] for u in ind}
    for v in range(g.n):
        if v in ind_set:
            continue
        anchors = [u for u in ind if g.has_edge(v, u)]
        if len(anchors) == 1:
            buckets[anchors[0]].append(v)
    return buckets


def _nonadjacent_pair(g: Graph, vertices: list[int]) -> tuple[int, int] | None:
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if not g.has_edge(u, v):
                return (u, v)
    return None


def bcfree_ramsey_bound(a: int, b: int, k: int) -> int:
    """Vertex threshold guaranteeing a size-k independent set in K_{a,b}-free graphs.

    k + b*C(k,a) + sum over l in [a-1] of R(a+b, l+1)*C(k,l), with the inner
    Ramsey numbers replaced by the constructive binomial bound.
    """
    if not (1 <= a <= b) or k < 1:
        raise ValueError("need 1 <= a <= b and k >= 1")
    total = k + b * math.comb(k, a)
    for ell in range(1, a):
        total += classic_bound(a + b, ell + 1) * math.comb(k, ell)
    return total


def bcfree_independent_set(g: Graph, a: int, b: int, k: int) -> tuple[int, ...]:
    """Independent set of size k in a K_{a,b}-free graph with enough vertices.

    Iterative improvement: keep a maximal independent set I'; as long as it
    is small, some trace class V_X = {v outside I' : N(v) cap I' = X} with
    |X| = l < a exceeds the classic bound for (a+b, l+1), so a clique-free
    extraction inside V_X swaps l vertices of I' for l+1 new ones.  A missing
    qualifying X means the K_{a,b}-free precondition was violated (or the
    graph is too small).
    """
    if g.n < bcfree_ramsey_bound(a, b, k):
        raise TooFewVertices(f"need {bcfree_ramsey_bound(a, b, k)} vertices, have {g.n}")
    ind = _greedy_maximal_extend(g, [])
    for _ in range(k + 1):
        if len(ind) >= k:
            chosen = sorted(ind)[:k]
            if not g.is_independent_set(chosen):
                raise WitnessVerificationError("dependent output set")
            return tuple(chosen)
        ind = _improve_bcfree(g, ind, a, b)
    raise WitnessVerificationError("improvement loop exceeded its round bound")


def _improve_bcfree(g: Graph, ind: list[int], a: int, b: int) -> list[int]:
    ind_sorted = sorted(ind)
    ind_set = set(ind_sorted)
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        if v in ind_set:
            continue
        sig = tuple(u for u in ind_sorted if g.has_edge(v, u))
        if 1 <= len(sig) <= a - 1:
            classes.setdefault(sig, []).append(v)
    for sig in sorted(classes):
        members = classes[sig]
        ell = len(sig)
        if len(members) > classic_bound(a + b, ell + 1):
            sub, back = g.induced(members)
            witness = classic_ramsey(sub, a + b, ell + 1)
            if witness.kind == CLIQUE:
                raise ExtractionPreconditionError(
                    f"found a clique of size {a + b}; graph contains K_{{{a},{b}}}"
                )
            fresh = [back[i] for i in witness.vertices]
            return [u for u in ind_sorted if u not in sig] + fresh
    raise ExtractionPreconditionError(
        "no improvable trace class; K_{a,b}-free precondition or size bound violated"
    )


def degenerate_independent_set(g: Graph, d: int, k: int) -> tuple[int, ...]:
    """Size-k independent set in a d-degenerate graph with n >= (d+1)*k.

    Greedy along the degeneracy ordering: take the earliest surviving vertex
    and delete its closed neighborhood; each step kills at most d+1 vertices.
    """
    if g.n < (d + 1) * k:
        raise TooFewVertices(f"need {(d + 1) * k} vertices, have {g.n}")
    chosen = peeling_independent_set(g, k)
    if len(chosen) < k:
        raise ExtractionPreconditionError(
            f"greedy produced only {len(chosen)} vertices; graph not {d}-degenerate?"
        )
    if not g.is_independent_set(chosen):
        raise WitnessVerificationError("greedy output not independent")
    return chosen


def peeling_independent_set(g: Graph, size: int) -> tuple[int, ...]:
    """Greedy independent set along the degeneracy ordering, sorted: take the
    earliest surviving vertex and delete its closed neighborhood, until
    ``size`` vertices are taken or none survives."""
    alive = set(range(g.n))
    picked: list[int] = []
    for v in degeneracy_ordering(g)[0]:
        if len(picked) == size:
            break
        if v in alive:
            picked.append(v)
            alive.discard(v)
            alive.difference_update(g.neighbors(v))
    return tuple(sorted(picked))
