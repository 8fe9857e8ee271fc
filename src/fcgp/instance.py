"""Annotated fixed-cardinality partitioning instances.

An instance carries a graph, a forced partial solution T, a per-vertex
rational ``bonus`` (the additive value a vertex earns when selected;
``bonus = alpha * counter`` in standard-counter mode), the cardinality k,
the threshold t, the edge weight alpha and the optimization direction.

Every value, threshold and comparison is exact rational arithmetic; no
floating point is involved in any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, RuleInternalError, iter_mask, mask_of

MAX = "max"
MIN = "min"

ZERO = Fraction(0)
THIRD = Fraction(1, 3)


class GuardViolation(ValueError):
    """An operation was invoked outside its declared precondition."""


def check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not ZERO <= alpha <= 1:
        raise GuardViolation(f"alpha must lie in [0,1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class PlainInstance:
    """Annotation-free instance: does some k-set reach the threshold?"""

    graph: Graph
    k: int
    t: Fraction
    alpha: Fraction
    variant: str

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    def annotate(self) -> "AnnotatedInstance":
        return AnnotatedInstance(
            graph=self.graph,
            alive=mask_of(range(self.graph.n)),
            tmask=0,
            bonus=(ZERO,) * self.graph.n,
            k=self.k,
            t=Fraction(self.t),
            alpha=check_alpha(self.alpha),
            variant=self.variant,
        )

    def header_line(self) -> str:
        return f"fcgp {self.variant} alpha={self.alpha} k={self.k} t={self.t}"


@dataclass(frozen=True)
class AnnotatedInstance:
    graph: Graph
    alive: int
    tmask: int
    bonus: tuple[Fraction, ...]
    k: int
    t: Fraction
    alpha: Fraction
    variant: str

    def __post_init__(self):
        if self.variant not in (MAX, MIN):
            raise GuardViolation(f"variant must be 'max' or 'min', got {self.variant!r}")
        check_alpha(self.alpha)
        if self.tmask & ~self.alive:
            raise GuardViolation("T contains deleted vertices")
        for v in iter_mask(self.tmask):
            if self.bonus[v] != 0:
                raise GuardViolation(f"vertex {v} in T has nonzero bonus")
        if any(b < 0 for b in self.bonus):
            raise GuardViolation("negative bonus")

    # -- basic views -------------------------------------------------------

    @property
    def n_alive(self) -> int:
        return self.alive.bit_count()

    @property
    def t_size(self) -> int:
        return self.tmask.bit_count()

    @property
    def k_prime(self) -> int:
        return self.k - self.t_size

    def alive_vertices(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.alive))

    def t_vertices(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.tmask))

    def free_vertices(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.alive & ~self.tmask))

    def degree(self, v: int) -> int:
        return (self.graph.masks[v] & self.alive).bit_count()

    def deg_bonus(self, v: int) -> Fraction:
        """alpha * degree + bonus; equals alpha * deg+ in standard-counter mode."""
        return self.alpha * self.degree(v) + self.bonus[v]

    def delta_tbar(self) -> int:
        return max((self.degree(v) for v in iter_mask(self.alive & ~self.tmask)), default=0)

    def counters(self) -> dict[int, int]:
        """Integer counters of standard-counter mode; raises when not integral."""
        out: dict[int, int] = {}
        for v in iter_mask(self.alive):
            b = self.bonus[v]
            if b == 0:
                out[v] = 0
                continue
            if self.alpha == 0:
                raise GuardViolation("nonzero bonus with alpha = 0 is not standard-counter")
            c = b / self.alpha
            if c.denominator != 1:
                raise GuardViolation(f"bonus {b} of vertex {v} is not an integer multiple of alpha")
            out[v] = int(c)
        return out

    def gamma(self) -> int:
        """Largest counter outside T, plus one (standard-counter mode)."""
        cs = self.counters()
        return max((cs[v] for v in iter_mask(self.alive & ~self.tmask)), default=0) + 1

    # -- value and contribution --------------------------------------------

    def _as_mask(self, s: Iterable[int] | int) -> int:
        m = s if isinstance(s, int) else mask_of(s)
        if m & ~self.alive:
            raise GuardViolation("vertex set leaves the alive graph")
        return m

    def val(self, s: Iterable[int] | int) -> Fraction:
        """alpha * m(S, V\\S) + sum of bonuses + (1 - alpha) * m(S)."""
        smask = self._as_mask(s)
        inside2 = 0
        out = 0
        bonus_sum = ZERO
        for v in iter_mask(smask):
            hits = (self.graph.masks[v] & self.alive & smask).bit_count()
            inside2 += hits
            out += (self.graph.masks[v] & self.alive).bit_count() - hits
            bonus_sum += self.bonus[v]
        return self.alpha * out + bonus_sum + (1 - self.alpha) * (inside2 // 2)

    def contribution(self, v: int, t_like: Iterable[int] | int) -> Fraction:
        """Exact increase of val when v joins the partial solution t_like."""
        tmask = self._as_mask(t_like)
        common = (self.graph.masks[v] & tmask).bit_count()
        if not common:
            return self.deg_bonus(v)
        return self.deg_bonus(v) + (1 - 3 * self.alpha) * common

    def check_cover(self, cover: Iterable[int]) -> tuple[int, ...]:
        """The alive members of ``cover``; they must cover every alive edge."""
        cover = tuple(v for v in cover if (self.alive >> v) & 1)
        cmask = mask_of(cover)
        for v in iter_mask(self.alive & ~cmask):
            if self.graph.masks[v] & self.alive & ~cmask:
                raise GuardViolation(f"vertex cover leaves an edge at vertex {v} uncovered")
        return cover

    def t_prime(self) -> Fraction:
        return self.t - self.val(self.tmask)

    def better_cmp(self, x: Fraction, y: Fraction) -> bool:
        """x at least as good as y in the variant's direction."""
        return x >= y if self.variant == MAX else x <= y

    def is_better(self, v: int, u: int, t_like: Iterable[int] | int) -> bool:
        return self.better_cmp(self.contribution(v, t_like), self.contribution(u, t_like))

    def is_strictly_better(self, v: int, u: int) -> bool:
        """Sufficient margin condition; sound but not complete."""
        margin = abs((1 - 3 * self.alpha) * self.k)
        if self.variant == MAX:
            return self.deg_bonus(u) <= self.deg_bonus(v) - margin
        return self.deg_bonus(u) >= self.deg_bonus(v) + margin

    # -- inclusion / exclusion ---------------------------------------------

    def _derive(self, **changes) -> "AnnotatedInstance":
        """Copy with ``changes``, skipping the O(n) checks of __post_init__.

        include, exclude and shift_bonus keep every invariant those checks
        test (T alive with zero bonus, no negative bonus) by construction.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        return new

    def include(self, v: int) -> "AnnotatedInstance":
        """Force v into the solution; its bonus is folded into t."""
        if not (self.alive >> v) & 1:
            raise GuardViolation(f"vertex {v} is deleted")
        if (self.tmask >> v) & 1:
            raise GuardViolation(f"vertex {v} already in T")
        bonus = list(self.bonus)
        new_t = self.t - bonus[v]
        bonus[v] = ZERO
        return self._derive(tmask=self.tmask | (1 << v), bonus=tuple(bonus), t=new_t)

    def exclude(self, v: int) -> "AnnotatedInstance":
        """Delete v; each surviving neighbor gains bonus alpha.

        Neighbors inside T keep bonus 0 — their credit is folded straight
        into t, which keeps the T-bonus invariant intact.
        """
        if not (self.alive >> v) & 1:
            raise GuardViolation(f"vertex {v} is deleted")
        if (self.tmask >> v) & 1:
            raise GuardViolation(f"vertex {v} is in T")
        bonus = list(self.bonus)
        new_t = self.t
        for u in iter_mask(self.graph.masks[v] & self.alive):
            if (self.tmask >> u) & 1:
                new_t -= self.alpha
            else:
                bonus[u] += self.alpha
        bonus[v] = ZERO
        return self._derive(alive=self.alive ^ (1 << v), bonus=tuple(bonus), t=new_t)

    def shift_bonus(self, amount: Fraction) -> "AnnotatedInstance":
        """Uniformly lower every non-T bonus by ``amount``; t drops by amount * k'."""
        if amount < 0:
            raise GuardViolation("negative shift")
        bonus = list(self.bonus)
        for v in iter_mask(self.alive & ~self.tmask):
            if bonus[v] < amount:
                raise GuardViolation(f"bonus of vertex {v} below shift amount")
            bonus[v] -= amount
        return self._derive(bonus=tuple(bonus), t=self.t - amount * self.k_prime)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Snapshot form: alive subgraph (remapped), T line, bonus lines, scalars."""
        keep = self.alive_vertices()
        index = {old: new for new, old in enumerate(keep)}
        sub, _ = self.graph.induced(keep)
        lines = [f"{sub.n} {sub.m}"]
        lines.extend(f"{u} {v}" for u, v in sub.edges())
        lines.append("T: " + " ".join(str(index[v]) for v in self.t_vertices()))
        lines.append(
            "bonus: "
            + " ".join(f"{index[v]}={self.bonus[v]}" for v in keep if self.bonus[v] != 0)
        )
        lines.append(f"k={self.k} t={self.t} alpha={self.alpha} variant={self.variant}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "AnnotatedInstance":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if len(lines) < 3:
            raise ValueError("truncated instance snapshot")
        graph_lines = lines[:-3]
        g = Graph.from_edges(
            int(graph_lines[0].split()[0]),
            [tuple(map(int, ln.split())) for ln in graph_lines[1:]],
        )
        t_line, bonus_line, scal_line = lines[-3], lines[-2], lines[-1]
        if not t_line.startswith("T:") or not bonus_line.startswith("bonus:"):
            raise ValueError("missing T/bonus lines")
        tmask = mask_of(int(tok) for tok in t_line[2:].split())
        bonus = [ZERO] * g.n
        for tok in bonus_line[len("bonus:"):].split():
            idx, frac = tok.split("=")
            bonus[int(idx)] = Fraction(frac)
        fields = dict(tok.split("=") for tok in scal_line.split())
        return AnnotatedInstance(
            graph=g,
            alive=mask_of(range(g.n)),
            tmask=tmask,
            bonus=tuple(bonus),
            k=int(fields["k"]),
            t=Fraction(fields["t"]),
            alpha=Fraction(fields["alpha"]),
            variant=fields["variant"],
        )


def telescope_check(inst: AnnotatedInstance, ordering: Sequence[int]) -> Fraction:
    """Sum of contributions along ``ordering`` against its growing prefix.

    Equals ``inst.val(set(ordering))`` for every ordering of distinct
    vertices; kept as an explicit oracle operation.
    """
    if len(set(ordering)) != len(ordering):
        raise GuardViolation("ordering repeats a vertex")
    total = ZERO
    prefix = 0
    for v in ordering:
        total += inst.contribution(v, prefix)
        prefix |= 1 << v
    return total


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Deannotation:
    """A plain instance plus enough structure to lift witnesses back.

    ``origin[i]`` is the original vertex id of kernel vertex i, or -1 for a
    gadget vertex.  For leaf gadgets ``anchor[i]`` is the kernel index of the
    vertex the leaf hangs off; otherwise -1.
    """

    plain: PlainInstance
    kind: str  # "max-leaves" | "min-clique" | "identity" | "trivial-no"
    origin: tuple[int, ...]
    anchor: tuple[int, ...]
    ell: int


def _trivial_no(inst: AnnotatedInstance) -> Deannotation:
    plain = PlainInstance(
        graph=Graph.from_edges(0, []), k=inst.k, t=inst.t, alpha=inst.alpha, variant=inst.variant
    )
    return Deannotation(plain=plain, kind="trivial-no", origin=(), anchor=(), ell=0)


def deannotate_identity(inst: AnnotatedInstance) -> Deannotation:
    """Strip annotations that are already trivial (T empty, all bonuses zero)."""
    if inst.tmask != 0 or any(inst.bonus[v] != 0 for v in iter_mask(inst.alive)):
        raise GuardViolation("identity de-annotation needs T empty and zero bonuses")
    keep = inst.alive_vertices()
    sub, back = inst.graph.induced(keep)
    plain = PlainInstance(graph=sub, k=inst.k, t=inst.t, alpha=inst.alpha, variant=inst.variant)
    return Deannotation(plain=plain, kind="identity", origin=back, anchor=(-1,) * sub.n, ell=0)


def deannotate_max(inst: AnnotatedInstance) -> Deannotation:
    """Leaf construction removing annotations from a Max instance.

    Every vertex v gains counter(v) + floor(1/alpha) + pad pendant leaves;
    every T-vertex additionally gains ell leaves, where ell covers the
    maximum outside degree, the counter ceiling and the contribution spread
    of any k-set.  The threshold rises by a * (ell*|T| + (floor(1/a)+pad)*k).

    The pad of ceil(max(0, 2 - 1/a) * (k-1)) extra leaves per vertex keeps
    the leaf-removal exchange sound for a > 1/2: without it, a selected leaf
    whose anchor has other selected neighbors cannot be swapped for the
    anchor, and the constructed instance may flip a no-instance to yes.
    """
    if inst.variant != MAX:
        raise GuardViolation("deannotate_max needs the maximization variant")
    if inst.alpha == 0:
        raise GuardViolation("de-annotation is impossible for alpha = 0")
    counters = inst.counters()  # also validates standard-counter mode
    if inst.n_alive < inst.k:
        return _trivial_no(inst)
    inv_floor = floor_frac(1 / inst.alpha)
    pad = ceil_frac(max(ZERO, 2 - 1 / inst.alpha) * (inst.k - 1)) if inst.k > 1 else 0
    gamma = inst.gamma()
    dtb = inst.delta_tbar()
    # ceil keeps the strictly-better margin when |1/alpha - 3| * k is fractional
    ell = dtb + gamma + ceil_frac(abs(1 / inst.alpha - 3) * inst.k) + inv_floor

    sub, keep = inst.graph.induced(inst.alive_vertices())
    edges = list(sub.edges())
    origin = list(keep)
    anchor = [-1] * len(keep)
    nxt = len(keep)
    for i, old_v in enumerate(keep):
        leaves = counters[old_v] + inv_floor + pad
        if (inst.tmask >> old_v) & 1:
            leaves += ell
        for _ in range(leaves):
            edges.append((i, nxt))
            origin.append(-1)
            anchor.append(i)
            nxt += 1
    new_t = inst.t + inst.alpha * (ell * inst.t_size + (inv_floor + pad) * inst.k)
    plain = PlainInstance(
        graph=Graph.from_edges(nxt, edges), k=inst.k, t=new_t, alpha=inst.alpha, variant=MAX
    )
    return Deannotation(plain=plain, kind="max-leaves", origin=tuple(origin), anchor=tuple(anchor), ell=ell)


def deannotate_min(inst: AnnotatedInstance) -> Deannotation:
    """Clique construction removing annotations from a Min instance.

    A clique C on 2*ell + 1 fresh vertices is added, ell being the smallest
    integer above (Delta + Gamma + |(1-3a)k|) / alpha; every non-T vertex v
    is wired to ell + counter(v) clique vertices and t rises by a*ell*(k-|T|).
    """
    if inst.variant != MIN:
        raise GuardViolation("deannotate_min needs the minimization variant")
    if inst.alpha == 0:
        raise GuardViolation("de-annotation is impossible for alpha = 0")
    counters = inst.counters()
    if inst.n_alive < inst.k:
        return _trivial_no(inst)
    gamma = inst.gamma()
    delta = max((inst.degree(v) for v in iter_mask(inst.alive)), default=0)
    ell = floor_frac((delta + gamma + abs((1 - 3 * inst.alpha) * inst.k)) / inst.alpha) + 1

    sub, keep = inst.graph.induced(inst.alive_vertices())
    edges = list(sub.edges())
    base = len(keep)
    csize = 2 * ell + 1
    clique = list(range(base, base + csize))
    edges.extend((clique[i], clique[j]) for i in range(csize) for j in range(i + 1, csize))
    for i, old_v in enumerate(keep):
        if (inst.tmask >> old_v) & 1:
            continue
        wires = ell + counters[old_v]
        if wires > csize:
            raise RuleInternalError("clique too small for counter wiring")
        edges.extend((i, clique[j]) for j in range(wires))
    new_t = inst.t + inst.alpha * ell * inst.k_prime
    plain = PlainInstance(
        graph=Graph.from_edges(base + csize, edges), k=inst.k, t=new_t, alpha=inst.alpha, variant=MIN
    )
    origin = tuple(keep) + (-1,) * csize
    anchor = (-1,) * (base + csize)
    return Deannotation(plain=plain, kind="min-clique", origin=origin, anchor=anchor, ell=ell)


class LiftError(RuntimeError):
    """A kernel witness could not be repaired into an original witness."""


def lift_witness(deann: Deannotation, inst: AnnotatedInstance, witness: Iterable[int]) -> tuple[int, ...]:
    """Map a kernel solution back to a solution of the annotated instance.

    Gadget vertices are swapped out by the exchange argument backing the
    construction (leaf -> its anchor or a leaf-free vertex; clique vertex ->
    any spare original; missing T-vertices -> worst non-T member).  The
    repaired set is verified against the annotated instance before return.
    """
    plain = deann.plain
    g = plain.graph
    cur = set(witness)
    if len(cur) != plain.k:
        raise LiftError(f"kernel witness has size {len(cur)}, expected {plain.k}")
    if deann.kind == "trivial-no":
        raise LiftError("trivial no-instance has no witness to lift")
    originals = [i for i in range(g.n) if deann.origin[i] >= 0]
    t_kernel = {i for i in originals if (inst.tmask >> deann.origin[i]) & 1}

    if deann.kind == "max-leaves":
        for leaf in sorted(i for i in range(g.n) if deann.origin[i] < 0):
            if leaf not in cur:
                continue
            a = deann.anchor[leaf]
            if a not in cur:
                cur.discard(leaf)
                cur.add(a)
                continue
            spare = [
                w
                for w in originals
                if w not in cur and not any(deann.anchor[x] == w for x in cur if deann.origin[x] < 0)
            ]
            if not spare:
                raise LiftError("no leaf-free spare vertex for leaf swap")
            best = max(spare, key=lambda w: (g.degree(w), -w))
            cur.discard(leaf)
            cur.add(best)
    elif deann.kind == "min-clique":
        for gadget in sorted(i for i in range(g.n) if deann.origin[i] < 0):
            if gadget not in cur:
                continue
            spare = [w for w in originals if w not in cur]
            if not spare:
                raise LiftError("no spare original vertex for clique swap")
            best = min(spare, key=lambda w: (g.degree(w), w))
            cur.discard(gadget)
            cur.add(best)
    elif deann.kind != "identity":
        raise LiftError(f"unknown de-annotation kind {deann.kind!r}")

    for tv in sorted(t_kernel - cur):
        swappable = sorted(w for w in cur if w not in t_kernel)
        if not swappable:
            raise LiftError("cannot restore T-membership")
        if plain.variant == MAX:
            worst = min(swappable, key=lambda w: (g.degree(w), w))
        else:
            worst = max(swappable, key=lambda w: (g.degree(w), -w))
        cur.discard(worst)
        cur.add(tv)

    lifted = tuple(sorted(deann.origin[i] for i in cur))
    if len(lifted) != inst.k or any(o < 0 for o in lifted):
        raise LiftError("repair left gadget vertices in the witness")
    value = inst.val(lifted)
    if not inst.better_cmp(value, inst.t):
        raise LiftError(f"lifted witness value {value} misses threshold {inst.t}")
    return lifted
