"""Immutable undirected simple graphs and structural-parameter computation.

Vertices are dense integer indices ``0..n-1``.  A graph is one neighbour
bitmask per vertex, so set operations (common neighbours, degrees
restricted to an alive-mask) are cheap and gadget graphs are built from
runs of bits.  The sorted neighbour tuples serve the sparse scans: an edge
list fills them as it is read, and a graph built from masks derives them
on first read.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Malformed graph input.  ``line_no`` is 1-based when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class VcBudgetExceeded(RuntimeError):
    """Exact vertex cover search would exceed the configured budget."""


class RuleInternalError(AssertionError):
    """A verified postcondition or internal invariant failed; implementation bug."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# bin() digit b'0' or b'1' to the byte 0 or 1, a selector for itertools.compress
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class Graph:
    """Static undirected simple graph: bit u of ``masks[v]`` marks the edge uv.

    Invariants: no self-loops, masks symmetric, ``m`` equals half the
    degree sum.  ``adj`` holds the neighbour tuples in ascending order:
    :meth:`from_edges` fills it from its neighbour sets, and a graph built
    by :meth:`from_masks` derives it from the masks on its first read.
    ``profile`` is kept the same way.
    """

    n: int
    masks: tuple[int, ...]
    m: int

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph of an edge list, checked edge by edge in input order.

        Duplicates are looked up in per-vertex neighbour sets, and ``adj``
        is filled from them, sorted; reading bits of n-bit masks would cost
        O(n) digit operations per edge."""
        if n < 0:
            raise ValueError("negative vertex count")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            nu = nbrs[u]
            if v in nu:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nu.add(v)
            nbrs[v].add(u)
            m += 1
        adj = tuple([tuple(sorted(nu)) for nu in nbrs])
        masks = []
        for nu in adj:
            mask = 0
            for v in nu:
                mask |= 1 << v
            masks.append(mask)
        g = Graph(n=n, masks=tuple(masks), m=m)
        g.__dict__["adj"] = adj
        return g

    @staticmethod
    def from_masks(masks: Iterable[int]) -> "Graph":
        """The graph of neighbour masks that are symmetric and loop-free by
        construction; unlike :meth:`from_edges` nothing is checked."""
        masks = tuple(masks)
        return Graph(n=len(masks), masks=masks, m=sum(mask.bit_count() for mask in masks) // 2)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        # read by graphs from from_masks; from_edges fills it.  Rows are built
        # through lists: a tuple grown from an iterator raised the peak RSS
        # measurably.  When more than one in eight of the n * n mask digits is
        # set, as in a gadget clique, rows are read from their binary digits
        # by C-level work; sparser graphs, such as pendant-leaf gadgets, are
        # read bit by bit
        if 16 * self.m <= self.n * self.n:
            return tuple([tuple(list(iter_mask(mask))) for mask in self.masks])
        rows = (bin(mask)[:1:-1].encode().translate(_DIGIT_BITS) for mask in self.masks)
        return tuple([tuple(list(compress(range(len(digits)), digits))) for digits in rows])

    @cached_property
    def profile(self) -> "ParameterProfile":
        """The default-budget profile of runs given none (``rules.alive_profile``),
        built on first read and kept; :func:`compute_profile` builds a new one."""
        return compute_profile(self)

    def degree(self, v: int) -> int:
        # O(1) once adj exists; masks[v].bit_count() costs O(n) digit operations
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_counts(self, s: Iterable[int]) -> tuple[int, int]:
        """Return ``(m_in, m_out)``: edges inside ``s`` and edges leaving it."""
        smask = s if isinstance(s, int) else mask_of(s)
        inside2 = 0
        out = 0
        for v in iter_mask(smask):
            hits = self.masks[v] & smask
            inside2 += hits.bit_count()
            out += self.degree(v) - hits.bit_count()
        return inside2 // 2, out

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by ``vertices`` plus the old-index map (new -> old)."""
        keep = sorted(set(vertices))
        bit = {old: 1 << new for new, old in enumerate(keep)}
        kmask = mask_of(keep)
        masks = []
        for old in keep:
            mask = 0
            for u in iter_mask(self.masks[old] & kmask):
                mask |= bit[u]
            masks.append(mask)
        return Graph.from_masks(masks), tuple(keep)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return all(self.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return not any(self.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


@dataclass(frozen=True, eq=False)
class ParameterProfile:
    """Structural parameters of ``graph`` with witnesses, each computed on first read.

    ``degeneracy_ordering`` is the min-degree peeling order (ties broken by
    smallest index); every vertex has at most ``degeneracy`` neighbors among
    its successors.  ``vertex_cover``, the one NP-hard parameter, is the
    canonical minimum cover of :func:`minimum_vertex_cover` if one of at
    most ``vc_budget`` vertices exists and the search finds it within
    ``VC_NODE_BUDGET`` nodes, counted over all components and sizes, else
    ``None`` (a negative budget never searches).
    """

    graph: Graph = field(repr=False)
    vc_budget: int

    max_degree = cached_property(lambda self: max(map(len, self.graph.adj), default=0))
    _peel = cached_property(lambda self: degeneracy_ordering(self.graph))
    degeneracy_ordering = property(lambda self: self._peel[0])
    degeneracy = property(lambda self: self._peel[1])
    h_index = cached_property(lambda self: h_index(self.graph))
    c_closure = cached_property(lambda self: c_closure(self.graph))

    @cached_property
    def vertex_cover(self) -> tuple[int, ...] | None:
        if self.vc_budget < 0:
            return None
        try:
            return minimum_vertex_cover(self.graph, budget=self.vc_budget)
        except VcBudgetExceeded:
            return None

    @property
    def vc(self) -> int | None:
        return None if self.vertex_cover is None else len(self.vertex_cover)


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    """Parse an edge-list or DIMACS description into a :class:`Graph`.

    Edge list: first non-comment line ``n m``, then m lines ``u v`` with
    ``0 <= u < v < n``; ``#`` starts a comment.  DIMACS: ``p edge n m``
    header, then ``e u v`` with 1-indexed endpoints; ``c`` lines are comments.
    """
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def sniff_format(text: str) -> str:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("p ", "c ", "e ")) or line in ("p", "c", "e"):
            return "dimacs"
        return "edgelist"
    return "edgelist"


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_edgelist(text: str) -> Graph:
    lines = _data_lines(text)
    try:
        no, head = next(lines)
    except StopIteration:
        raise GraphFormatError("empty input, expected 'n m' header") from None
    parts = head.split()
    if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
        raise GraphFormatError(f"expected 'n m' header, got {head!r}", no)
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise GraphFormatError("negative n or m", no)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in lines:
        parts = line.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise GraphFormatError(f"expected edge 'u v', got {line!r}", no)
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise GraphFormatError(f"self-loop {u}", no)
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}", no)
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", no)
        seen.add((u, v))
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    return Graph.from_edges(n, edges)


def _parse_dimacs(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in _data_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            continue
        if tag == "p":
            if n is not None:
                raise GraphFormatError("second 'p' line", no)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"expected 'p edge n m', got {line!r}", no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(f"bad 'p edge' numbers in {line!r}", no) from None
            continue
        if tag == "e":
            if n is None:
                raise GraphFormatError("'e' line before 'p edge' header", no)
            if len(parts) != 3:
                raise GraphFormatError(f"expected 'e u v', got {line!r}", no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"bad endpoints in {line!r}", no) from None
            if u == v:
                raise GraphFormatError(f"self-loop {u}", no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range 1..{n}", no)
            a, b = min(u, v) - 1, max(u, v) - 1
            if (a, b) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})", no)
            seen.add((a, b))
            edges.append((a, b))
            continue
        raise GraphFormatError(f"unknown DIMACS line tag {tag!r}", no)
    if n is None:
        raise GraphFormatError("missing 'p edge' header")
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    return Graph.from_edges(n, edges)


def degeneracy_ordering(g: Graph) -> tuple[tuple[int, ...], int]:
    """Min-degree peeling order and the degeneracy it witnesses.

    Ties go to the smallest index: a heap keyed on (degree, index), whose
    stale entries are skipped, gives the order in O(m log n).
    """
    deg = [len(a) for a in g.adj]
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapq.heapify(heap)
    done = [False] * g.n
    order: list[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if done[v] or dv != deg[v]:
            continue
        done[v] = True
        d = max(d, dv)
        order.append(v)
        for u in g.adj[v]:
            if not done[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return tuple(order), d


def h_index(g: Graph) -> int:
    degs = sorted(map(len, g.adj), reverse=True)
    h = 0
    for i, deg in enumerate(degs, start=1):
        if deg >= i:
            h = i
    return h


def c_closure(g: Graph) -> int:
    """One more than the most common neighbors of a non-adjacent pair.

    Wedge counting, O(sum of squared degrees): for each u, every wedge
    u - w - v with v > u adds one to ``common[v]``; the counts of u's own
    neighbors are cleared before the largest is read.
    """
    adj = g.adj
    common = [0] * g.n
    best = 0
    for u, au in enumerate(adj):
        reached = []
        for w in au:
            aw = adj[w]
            for v in aw[bisect_right(aw, u):]:
                c = common[v]
                if not c:
                    reached.append(v)
                common[v] = c + 1
        for v in au:
            common[v] = 0
        for v in reached:
            if common[v] > best:
                best = common[v]
            common[v] = 0
    return best + 1


# search-tree nodes one minimum_vertex_cover call may visit, over all components and sizes
VC_NODE_BUDGET = 500_000


def minimum_vertex_cover(g: Graph, budget: int = 25) -> tuple[int, ...]:
    """Exact minimum vertex cover via bounded search-tree branching, one
    connected component at a time.

    Canonical cover: the first cover of minimum size in the depth-first
    order that branches on the lowest-index vertex u with an uncovered edge,
    taking u first and then u's lowest-index uncovered neighbour.  Searching
    per component keeps it: a leaf's decisions in one component form a path
    of that component's own tree, and two leaves are ordered by the first
    component where they part, so the graph's first minimum cover is the
    union of each component's first minimum cover.  Each component tries
    sizes upward from the size of a greedy matching of its edges
    (:func:`_matching_bound`), and a subtree is cut when such a matching of
    its uncovered edges outnumbers the vertices it may still take; such a
    subtree holds no cover, so the cuts never change which cover comes back.
    Raises :class:`VcBudgetExceeded` when no cover of size <= budget exists
    (the components' matchings alone may show it), or when the search visits
    more than :data:`VC_NODE_BUDGET` nodes, counted over all components and
    sizes.
    """
    masks = g.masks
    degree = [mask.bit_count() for mask in masks]
    spare = budget  # vertices left for the components not yet bounded
    parts = []
    for comp in _components(masks):
        order = [(1 << v, masks[v]) for v in sorted(iter_mask(comp), key=degree.__getitem__)]
        low = _matching_bound(masks, order, comp, spare)
        parts.append((comp, order, low))
        spare -= low
        if spare < 0:
            break
    cover = nodes = 0
    for comp, order, size in parts:
        while spare >= 0:
            found, nodes = _vc_decide(masks, comp, order, size, nodes)
            if found is not None:
                cover |= found
                break
            size += 1
            spare -= 1
    if spare < 0:
        raise VcBudgetExceeded(f"no vertex cover of size <= {budget}")
    return tuple(iter_mask(cover))


def _components(masks: tuple[int, ...]) -> Iterator[int]:
    """The vertex masks of the connected components with an edge, by lowest vertex."""
    rest = reduce(or_, masks, 0)  # a vertex with an edge is a neighbour of another
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= masks[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        rest &= ~comp
        yield comp


def _matching_bound(masks: tuple[int, ...], order: list[tuple[int, int]], left: int, cap: int) -> int:
    """The size of a greedy matching of the edges inside ``left``, stopped
    once it passes ``cap``.  ``order`` holds one component's vertices as
    (bit, neighbour mask), by ascending degree; each unmatched one takes its
    unmatched neighbour with the fewest unmatched neighbours, the lowest
    index on a tie."""
    size = 0
    for bit, row in order:
        if not left & bit:
            continue
        free = row & left
        if not free:
            continue
        mate = free & -free
        if free != mate:
            least = None
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                degree = (masks[low.bit_length() - 1] & left).bit_count()
                if least is None or degree < least:
                    least, mate = degree, low
        size += 1
        if size > cap:
            break
        left ^= bit | mate
    return size


def _vc_decide(masks: tuple[int, ...], comp: int, order: list[tuple[int, int]], size: int, nodes: int) -> tuple[int | None, int]:
    """The first cover of the component ``comp`` with exactly ``size``
    vertices in the canonical order, or None, and the node count carried on
    from ``nodes``.

    Vertices below a node's branching vertex have every edge covered, so its
    children look for their branching vertex from there.
    """
    stack = [(0, size, 0)]
    while stack:
        cover, remaining, start = stack.pop()
        nodes += 1
        if nodes > VC_NODE_BUDGET:
            raise VcBudgetExceeded(f"vertex cover search passed its node budget of {VC_NODE_BUDGET:,} nodes")
        left = comp & ~cover
        bound = _matching_bound(masks, order, left, remaining)
        if not bound:
            return cover, nodes
        if bound > remaining:
            continue
        rest = left >> start << start
        while True:
            low = rest & -rest
            u = low.bit_length() - 1
            free = masks[u] & left
            if free:
                break
            rest ^= low
        stack.append((cover | (free & -free), remaining - 1, u))
        stack.append((cover | low, remaining - 1, u))
    return None, nodes


def compute_profile(g: Graph, vc_budget: int = 25) -> ParameterProfile:
    """The profile of ``g``; each parameter is computed on first read."""
    return ParameterProfile(graph=g, vc_budget=vc_budget)
