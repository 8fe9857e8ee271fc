"""Reference evaluator and exact solver for alpha-FCGP, independent of fcgp.

The benchmark checks every output of the program against this module, so it
deliberately shares no code with ``fcgp.instance`` or ``fcgp.solve``: values
are recomputed from the edge list, and optima come from plain enumeration or
from a branch-and-bound whose bound is derived here from the formula.

    val(S) = alpha * m(S, V \\ S) + sum of bonuses in S + (1 - alpha) * m(S)

On a plain instance (no forced set, no bonuses) this equals
alpha * sum(deg) + (1 - 3 alpha) * m(S).  In the degrading cases (max with
alpha > 1/3, min with alpha < 1/3) the edge term can only hurt, so alpha
times the best remaining degrees bounds any completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

MAX = "max"
MIN = "min"
THIRD = Fraction(1, 3)

# Exhaustive enumeration is only used where it stays cheap.
ENUM_MAX_N = 30
ENUM_MAX_SUBSETS = 2_000_000


class ReferenceLimit(ValueError):
    """The instance is outside what the reference solver handles exactly."""


@dataclass(frozen=True)
class RefInstance:
    """An instance given by raw data: vertices, adjacency, T and bonuses."""

    vertices: tuple[int, ...]
    adj: dict[int, frozenset[int]]
    k: int
    t: Fraction
    alpha: Fraction
    variant: str
    tset: frozenset[int] = frozenset()
    bonus: dict[int, Fraction] | None = None

    @staticmethod
    def plain(n: int, edges, k: int, t, alpha, variant: str) -> "RefInstance":
        nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return RefInstance(
            vertices=tuple(range(n)),
            adj={v: frozenset(s) for v, s in nbrs.items()},
            k=k,
            t=Fraction(t),
            alpha=Fraction(alpha),
            variant=variant,
        )

    @staticmethod
    def from_annotated(inst) -> "RefInstance":
        """Read the raw fields of an annotated instance; no method of it is used."""
        alive = [v for v in range(inst.graph.n) if (inst.alive >> v) & 1]
        alive_set = set(alive)
        adj = {v: frozenset(u for u in inst.graph.adj[v] if u in alive_set) for v in alive}
        tset = frozenset(v for v in alive if (inst.tmask >> v) & 1)
        bonus = {v: Fraction(inst.bonus[v]) for v in alive if inst.bonus[v] != 0}
        return RefInstance(
            vertices=tuple(alive),
            adj=adj,
            k=inst.k,
            t=Fraction(inst.t),
            alpha=Fraction(inst.alpha),
            variant=inst.variant,
            tset=tset,
            bonus=bonus or None,
        )

    @property
    def is_plain(self) -> bool:
        return not self.tset and not self.bonus

    @property
    def degrading(self) -> bool:
        if self.variant == MAX:
            return self.alpha > THIRD
        return self.alpha < THIRD

    def value(self, s) -> Fraction:
        chosen = set(s)
        if not chosen <= set(self.adj):
            raise ValueError("set leaves the instance")
        inside2 = out = 0
        for v in chosen:
            hits = len(self.adj[v] & chosen)
            inside2 += hits
            out += len(self.adj[v]) - hits
        bonus = sum((self.bonus.get(v, 0) for v in chosen), Fraction(0)) if self.bonus else 0
        return self.alpha * out + bonus + (1 - self.alpha) * (inside2 // 2)

    def meets(self, value: Fraction) -> bool:
        return value >= self.t if self.variant == MAX else value <= self.t

    def is_witness(self, s) -> bool:
        """Exactly k distinct vertices of the instance, T inside, threshold met."""
        s = tuple(s)
        return (
            len(set(s)) == len(s) == self.k
            and set(s) <= set(self.adj)
            and self.tset <= set(s)
            and self.meets(self.value(s))
        )


@dataclass(frozen=True)
class RefResult:
    optimum: Fraction | None  # None when no k-set containing T exists
    witness: tuple[int, ...] | None

    def decision(self, inst: RefInstance) -> bool:
        return self.optimum is not None and inst.meets(self.optimum)


def solve(inst: RefInstance) -> RefResult:
    """Exact optimum: branch-and-bound on degrading plain instances, else enumeration."""
    if inst.is_plain and inst.degrading and inst.alpha > 0:
        return _branch_and_bound(inst)
    return _enumerate(inst)


def _enumerate(inst: RefInstance) -> RefResult:
    """All k-sets containing T, on scores scaled to integers.

    score(S) = sign * val(S) * L = sum of u(v) + c * m(S \\ T), where u(v)
    folds alpha * deg(v), the bonus and the edges from v into T.
    """
    free = [v for v in inst.vertices if v not in inst.tset]
    need = inst.k - len(inst.tset)
    if need < 0 or need > len(free):
        return RefResult(None, None)
    if len(inst.vertices) > ENUM_MAX_N and math.comb(len(free), need) > ENUM_MAX_SUBSETS:
        raise ReferenceLimit(f"C({len(free)},{need}) subsets is beyond the reference budget")
    sign = 1 if inst.variant == MAX else -1
    bonus = inst.bonus or {}
    scale = math.lcm(inst.alpha.denominator, *(b.denominator for b in bonus.values()))
    a = (inst.alpha * scale).numerator
    c = sign * (scale - 3 * a)
    pos = {v: i for i, v in enumerate(free)}
    adj = [sum(1 << pos[u] for u in inst.adj[v] if u in pos) for v in free]
    u = [
        sign * (a * len(inst.adj[v]) + int(bonus.get(v, 0) * scale)) + c * len(inst.adj[v] & inst.tset)
        for v in free
    ]
    base = int(sign * inst.value(inst.tset) * scale)
    best = [None, 0]
    nf = len(free)

    def rec(start: int, score, chosen: int, left: int) -> None:
        if left == 1:
            for j in range(start, nf):
                got = score + u[j] + c * (adj[j] & chosen).bit_count()
                if best[0] is None or got > best[0]:
                    best[0], best[1] = got, chosen | (1 << j)
            return
        for j in range(start, nf - left + 1):
            rec(j + 1, score + u[j] + c * (adj[j] & chosen).bit_count(), chosen | (1 << j), left - 1)

    if need == 0:
        best = [base, 0]
    else:
        rec(0, base, 0, need)
    witness = tuple(sorted(list(inst.tset) + [free[j] for j in range(nf) if (best[1] >> j) & 1]))
    return RefResult(Fraction(sign * best[0], scale), witness)


def _branch_and_bound(inst: RefInstance) -> RefResult:
    """Degree-order search; scores are integers scaled by alpha's denominator.

    score(S) = sign * val(S) * D = sum of w(v) + c * m(S) with w(v) =
    sign * a * deg(v) and c = sign * (D - 3a) <= 0, so the sum of the
    largest remaining w bounds every completion.
    """
    k = inst.k
    if k > len(inst.vertices):
        return RefResult(None, None)
    sign = 1 if inst.variant == MAX else -1
    a, den = inst.alpha.numerator, inst.alpha.denominator
    c = sign * (den - 3 * a)
    order = sorted(inst.vertices, key=lambda v: (-sign * len(inst.adj[v]), v))
    w = [sign * a * len(inst.adj[v]) for v in order]
    prefix = [0]
    for x in w:
        prefix.append(prefix[-1] + x)
    pos = {v: i for i, v in enumerate(order)}
    nbr_pos = [frozenset(pos[u] for u in inst.adj[v]) for v in order]
    n = len(order)
    best = [None]
    best_set: list[tuple[int, ...]] = [()]
    chosen: list[int] = []

    def dfs(start: int, score: int) -> None:
        need = k - len(chosen)
        if need == 0:
            if best[0] is None or score > best[0]:
                best[0], best_set[0] = score, tuple(chosen)
            return
        for i in range(start, n - need + 1):
            if best[0] is not None and score + prefix[i + need] - prefix[i] <= best[0]:
                return
            gain = w[i] + c * sum(1 for j in chosen if j in nbr_pos[i])
            chosen.append(i)
            dfs(i + 1, score + gain)
            chosen.pop()

    dfs(0, 0)
    witness = tuple(sorted(order[i] for i in best_set[0]))
    return RefResult(Fraction(sign * best[0], den), witness)


def vertex_cover_number(n: int, edges) -> int:
    """Size of a minimum vertex cover: branch on a max-degree vertex v
    (take v, or take all of N(v)), pruned by the best cover found."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = [n]

    def rec(alive: int, size: int) -> None:
        if size >= best[0]:
            return
        top, top_deg, degree_sum = -1, 0, 0
        rest = alive
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[v] & alive).bit_count()
            degree_sum += d
            if d > top_deg:
                top, top_deg = v, d
        if top_deg <= 1:  # a matching is left: one endpoint per edge
            best[0] = min(best[0], size + degree_sum // 2)
            return
        rec(alive & ~(1 << top), size + 1)
        rec(alive & ~(adj[top] & alive) & ~(1 << top), size + top_deg)

    rec((1 << n) - 1, 0)
    return best[0]
