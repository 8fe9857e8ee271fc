"""Annotated fixed-cardinality partitioning instances.

An instance carries a graph, a forced partial solution T, a per-vertex
rational ``bonus`` (the additive value a vertex earns when selected;
``bonus = alpha * counter`` in standard-counter mode), the cardinality k,
the threshold t, the edge weight alpha and the optimization direction.

Every value is exact.  At the boundary, alpha, t, ``bonus`` and what
``val``, ``deg_bonus`` and ``contribution`` return are rationals.  Inside,
an instance fixes one integer ``scale`` s when it is built, the lcm of the
denominators of alpha and of every bonus, and keeps each bonus as an integer
weight over it.  include, exclude and shift_bonus keep that scale, so every
value is a whole multiple of 1/s.  The ``score_*`` reads return values
times the scale as ints, negated for Min so that higher is always better,
and ``score_needed`` turns t into the least score that meets it.  Guards and
gadget constants are integer expressions in s, alpha * s and ``pair_score``.
No floating point is involved in any decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Graph, RuleInternalError, iter_mask, mask_of

MAX = "max"
MIN = "min"

ZERO = Fraction(0)


class GuardViolation(ValueError):
    """An operation was invoked outside its declared precondition."""


def check_alpha(alpha: Fraction) -> Fraction:
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise GuardViolation(f"alpha must lie in [0,1], got {alpha}")
    return alpha


def check_variant(variant: str) -> str:
    if variant not in (MAX, MIN):
        raise GuardViolation(f"variant must be 'max' or 'min', got {variant!r}")
    return variant


@dataclass(frozen=True)
class AnnotatedInstance:
    """An annotated instance and its scaled-integer form.

    Construction derives ``scale``, ``weights`` (each bonus times the
    scale), ``alpha_weight`` (alpha times the scale), ``sign`` (1 for Max,
    -1 for Min) and ``pair_score`` (the score (1 - 3 alpha) * scale that an
    edge between two chosen vertices adds to their deg-bonus scores).
    include, exclude and shift_bonus change only the weights, so these stay
    fixed; ``bonus`` is rebuilt from the weights on its first read.
    """

    graph: Graph
    alive: int
    tmask: int
    bonus: tuple[Fraction, ...]
    k: int
    t: Fraction
    alpha: Fraction
    variant: str

    def __post_init__(self):
        check_variant(self.variant)
        check_alpha(self.alpha)
        if self.tmask & ~self.alive:
            raise GuardViolation("T contains deleted vertices")
        scale = math.lcm(self.alpha.denominator, *(b.denominator for b in self.bonus))
        weights = tuple(b.numerator * (scale // b.denominator) for b in self.bonus)
        for v in iter_mask(self.tmask):
            if weights[v]:
                raise GuardViolation(f"vertex {v} in T has nonzero bonus")
        if any(w < 0 for w in weights):
            raise GuardViolation("negative bonus")
        self._set_scale(scale, weights)

    def _set_scale(self, scale: int, weights: tuple[int, ...]) -> None:
        """Set ``scale``, ``weights`` and the scalars they and alpha fix."""
        alpha_weight = self.alpha.numerator * (scale // self.alpha.denominator)
        sign = 1 if self.variant == MAX else -1
        for name, value in (("scale", scale), ("weights", weights), ("alpha_weight", alpha_weight),
                            ("sign", sign), ("pair_score", sign * (scale - 3 * alpha_weight))):
            object.__setattr__(self, name, value)

    @classmethod
    def plain(cls, graph: Graph, k: int, t: Fraction, alpha: Fraction, variant: str) -> "AnnotatedInstance":
        """The instance with every vertex alive, T empty and every bonus zero:
        the problem as stated on a plain graph.

        k, alpha and the variant are checked in that order; the O(n) bonus
        checks of __post_init__ have nothing to find and are skipped, and
        ``bonus`` is built on its first read.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        alpha = check_alpha(alpha)
        check_variant(variant)
        inst = object.__new__(cls)
        t = t if isinstance(t, Fraction) else Fraction(t)
        inst.__dict__.update(graph=graph, alive=(1 << graph.n) - 1, tmask=0, k=k, t=t, alpha=alpha, variant=variant)
        inst._set_scale(alpha.denominator, (0,) * graph.n)
        return inst

    def annotate(self) -> "AnnotatedInstance":  # kept for the callers under bench/
        return self

    def __getattr__(self, name: str):
        # called only for attributes not set: ``bonus`` after _derive dropped it or plain skipped it
        if name != "bonus":
            raise AttributeError(name)
        bonus = tuple(Fraction(w, self.scale) if w else ZERO for w in self.weights)
        object.__setattr__(self, "bonus", bonus)
        return bonus

    # -- basic views -------------------------------------------------------

    @property
    def is_plain(self) -> bool:
        """T is empty and every alive vertex has bonus zero."""
        return not self.tmask and not any(self.weights[v] for v in iter_mask(self.alive))

    @property
    def degrading(self) -> bool:
        """Max with alpha > 1/3 or Min with alpha < 1/3: an edge inside S lowers its score."""
        return self.pair_score < 0

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
        return self.from_score(self.score_deg_bonus(v))

    def delta_tbar(self) -> int:
        return max((self.degree(v) for v in iter_mask(self.alive & ~self.tmask)), default=0)

    def counters(self) -> dict[int, int]:
        """Integer counters of standard-counter mode; raises when not integral."""
        out: dict[int, int] = {}
        for v in iter_mask(self.alive):
            w = self.weights[v]
            if not w:
                out[v] = 0
                continue
            if not self.alpha_weight:
                raise GuardViolation("nonzero bonus with alpha = 0 is not standard-counter")
            out[v], rest = divmod(w, self.alpha_weight)
            if rest:
                raise GuardViolation(f"bonus {self.bonus[v]} of vertex {v} is not an integer multiple of alpha")
        return out

    def gamma(self) -> int:
        """Largest counter outside T, plus one (standard-counter mode)."""
        return max(self.counters().values(), default=0) + 1

    # -- value and contribution --------------------------------------------

    def _as_mask(self, s: Iterable[int] | int) -> int:
        m = s if isinstance(s, int) else mask_of(s)
        if m & ~self.alive:
            raise GuardViolation("vertex set leaves the alive graph")
        return m

    def val(self, s: Iterable[int] | int) -> Fraction:
        """alpha * m(S, V\\S) + sum of bonuses + (1 - alpha) * m(S)."""
        return self.from_score(self.score_val(self._as_mask(s)))

    def contribution(self, v: int, t_like: Iterable[int] | int) -> Fraction:
        """Exact increase of val when v joins the partial solution t_like."""
        return self.from_score(self.score_contribution(v, self._as_mask(t_like)))

    # -- scores: values times the scale, negated for Min -----------------------

    def score_deg_bonus(self, v: int) -> int:
        return self.sign * (self.alpha_weight * (self.graph.masks[v] & self.alive).bit_count() + self.weights[v])

    def score_contribution(self, v: int, tmask: int) -> int:
        common = (self.graph.masks[v] & tmask).bit_count()
        return self.score_deg_bonus(v) + self.pair_score * common

    def score_val(self, smask: int) -> int:
        """The deg-bonus scores of S plus pair_score per edge inside S:
        alpha*sum(deg) + (1 - 3 alpha) m(S) = alpha m(S, V\\S) + (1 - alpha) m(S)."""
        masks, alive, weights, a = self.graph.masks, self.alive, self.weights, self.alpha_weight
        total = inside2 = 0
        for v in iter_mask(smask):
            total += a * (masks[v] & alive).bit_count() + weights[v]
            inside2 += (masks[v] & alive & smask).bit_count()
        return self.sign * total + self.pair_score * (inside2 // 2)

    def score_needed(self, x: Fraction) -> int:
        """The least score that meets threshold x in the variant's direction:
        ceil(x * scale) for Max, -floor(x * scale) for Min."""
        return -((-self.sign * x.numerator * self.scale) // x.denominator)

    def score_margin(self) -> int:
        """The exchange margin |(1 - 3 alpha) k| as a score."""
        return abs(self.pair_score * self.k)

    def from_score(self, score: int) -> Fraction:
        """The rational value of a score."""
        return Fraction(self.sign * score, self.scale)

    def check_cover(self, cover: Iterable[int]) -> tuple[int, ...]:
        """The alive members of ``cover``; they must cover every alive edge."""
        cover = tuple(v for v in cover if (self.alive >> v) & 1)
        cmask = mask_of(cover)
        for v in iter_mask(self.alive & ~cmask):
            if self.graph.masks[v] & self.alive & ~cmask:
                raise GuardViolation(f"vertex cover leaves an edge at vertex {v} uncovered")
        return cover

    def better_cmp(self, x: Fraction, y: Fraction) -> bool:
        """x at least as good as y in the variant's direction."""
        return x >= y if self.variant == MAX else x <= y

    def is_solution(self, s: Iterable[int]) -> bool:
        """Whether s is k distinct alive vertices, T among them, whose value
        meets t; a deleted vertex makes it False, not an error."""
        s = tuple(s)
        m = mask_of(s)
        return (len(s) == m.bit_count() == self.k and not m & ~self.alive and not self.tmask & ~m
                and self.score_val(m) >= self.score_needed(self.t))

    # -- inclusion / exclusion ---------------------------------------------

    def _derive(self, **changes) -> "AnnotatedInstance":
        """Copy with ``changes``, skipping the O(n) checks of __post_init__.

        include, exclude and shift_bonus keep every invariant those checks
        test (T alive with zero weight, no negative weight) and the scale by
        construction.  They change the weights, so the cached ``bonus`` is
        dropped and rebuilt on its first read.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        new.__dict__.pop("bonus", None)
        return new

    def include(self, v: int) -> "AnnotatedInstance":
        """Force v into the solution; its bonus is folded into t."""
        if not (self.alive >> v) & 1:
            raise GuardViolation(f"vertex {v} is deleted")
        if (self.tmask >> v) & 1:
            raise GuardViolation(f"vertex {v} already in T")
        weights = list(self.weights)
        w, weights[v] = weights[v], 0
        new_t = self.t - Fraction(w, self.scale) if w else self.t
        return self._derive(tmask=self.tmask | (1 << v), weights=tuple(weights), t=new_t)

    def exclude(self, v: int) -> "AnnotatedInstance":
        """Delete v; each surviving neighbor gains bonus alpha.

        Neighbors inside T keep bonus 0 — their credit is folded straight
        into t, which keeps the T-bonus invariant intact.
        """
        if not (self.alive >> v) & 1:
            raise GuardViolation(f"vertex {v} is deleted")
        if (self.tmask >> v) & 1:
            raise GuardViolation(f"vertex {v} is in T")
        weights = list(self.weights)
        nbrs = self.graph.masks[v] & self.alive
        for u in iter_mask(nbrs & ~self.tmask):
            weights[u] += self.alpha_weight
        weights[v] = 0
        in_t = (nbrs & self.tmask).bit_count()
        new_t = self.t - self.alpha * in_t if in_t else self.t
        return self._derive(alive=self.alive ^ (1 << v), weights=tuple(weights), t=new_t)

    def shift_bonus(self, amount: Fraction) -> "AnnotatedInstance":
        """Uniformly lower every non-T bonus by ``amount``; t drops by amount * k'.

        The amount must be a whole multiple of 1/scale, as every bonus is."""
        if amount < 0:
            raise GuardViolation("negative shift")
        w, rest = divmod(amount.numerator * self.scale, amount.denominator)
        if rest:
            raise GuardViolation(f"shift amount {amount} is not a multiple of 1/{self.scale}")
        weights = list(self.weights)
        for v in iter_mask(self.alive & ~self.tmask):
            if weights[v] < w:
                raise GuardViolation(f"bonus of vertex {v} below shift amount")
            weights[v] -= w
        return self._derive(weights=tuple(weights), t=self.t - amount * self.k_prime)

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
            alive=(1 << g.n) - 1,
            tmask=tmask,
            bonus=tuple(bonus),
            k=int(fields["k"]),
            t=Fraction(fields["t"]),
            alpha=Fraction(fields["alpha"]),
            variant=fields["variant"],
        )


PlainInstance = AnnotatedInstance.plain  # kept for the callers under bench/


@dataclass(frozen=True)
class Deannotation:
    """A plain instance (every vertex alive, T empty, zero bonuses) plus
    enough structure to lift witnesses back.

    ``origin[i]`` is the original vertex id of kernel vertex i, or -1 for a
    gadget vertex.  For leaf gadgets ``anchor[i]`` is the kernel index of the
    vertex the leaf hangs off; otherwise -1.
    """

    plain: AnnotatedInstance
    kind: str  # "max-leaves" | "min-clique" | "identity"
    origin: tuple[int, ...]
    anchor: tuple[int, ...]
    ell: int


def deannotate_identity(inst: AnnotatedInstance) -> Deannotation:
    """Strip annotations that are already trivial (T empty, all bonuses zero)."""
    if not inst.is_plain:
        raise GuardViolation("identity de-annotation needs T empty and zero bonuses")
    keep = inst.alive_vertices()
    sub, back = inst.graph.induced(keep)
    plain = AnnotatedInstance.plain(sub, inst.k, inst.t, inst.alpha, inst.variant)
    return Deannotation(plain=plain, kind="identity", origin=back, anchor=(-1,) * sub.n, ell=0)


def _gadget_base(inst: AnnotatedInstance) -> tuple[list[int], list[int], list[int], int, int, int, int]:
    """The guards and inputs both gadgets share, read in one pass over the
    alive vertices: their indices, their alive neighbourhoods relabelled to
    positions in that list, their counters, Gamma, the largest degree
    outside T and overall, and the alive edge count."""
    masks, alive, tmask, weights, a = inst.graph.masks, inst.alive, inst.tmask, inst.weights, inst.alpha_weight
    if not a:
        raise GuardViolation("de-annotation is impossible for alpha = 0")
    keep = list(iter_mask(alive))
    bit = None if len(keep) == len(masks) else {old: 1 << new for new, old in enumerate(keep)}
    rows, counters = [], []
    free_top = top = degrees = 0
    for v in keep:
        row = masks[v] & alive
        deg = row.bit_count()
        degrees += deg
        if deg > top:
            top = deg
        if deg > free_top and not (tmask >> v) & 1:
            free_top = deg
        counter, rest = divmod(weights[v], a)
        if rest:  # the first such vertex, as counters() reports it
            raise GuardViolation(f"bonus {inst.bonus[v]} of vertex {v} is not an integer multiple of alpha")
        counters.append(counter)
        if bit is not None:
            new = 0
            for u in iter_mask(row):
                new |= bit[u]
            row = new
        rows.append(row)
    if len(keep) < inst.k:
        raise GuardViolation("de-annotation needs at least k alive vertices")
    return keep, rows, counters, max(counters, default=0) + 1, free_top, top, degrees // 2


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
    keep, masks, counters, gamma, dtb, _, m = _gadget_base(inst)
    s, a, tmask, base = inst.scale, inst.alpha_weight, inst.tmask, len(keep)
    inv_floor = s // a
    pad = -(-max(0, 2 * a - s) * (inst.k - 1) // a) if inst.k > 1 else 0
    # ceil keeps the strictly-better margin when |1/alpha - 3| * k is fractional
    ell = dtb + gamma - (-abs(s - 3 * a) * inst.k // a) + inv_floor

    anchor = [-1] * base
    nxt = base
    for i, (old_v, counter) in enumerate(zip(keep, counters)):
        leaves = counter + inv_floor + pad
        if (tmask >> old_v) & 1:
            leaves += ell
        masks[i] |= ((1 << leaves) - 1) << nxt
        masks.extend([1 << i] * leaves)
        anchor.extend([i] * leaves)
        nxt += leaves
    graph = Graph(n=nxt, masks=tuple(masks), m=m + nxt - base)  # one edge per leaf
    new_t = inst.t + Fraction(a * (ell * inst.t_size + (inv_floor + pad) * inst.k), s)
    plain = AnnotatedInstance.plain(graph, inst.k, new_t, inst.alpha, MAX)
    origin = tuple(keep) + (-1,) * (nxt - base)
    return Deannotation(plain=plain, kind="max-leaves", origin=origin, anchor=tuple(anchor), ell=ell)


def deannotate_min(inst: AnnotatedInstance) -> Deannotation:
    """Clique construction removing annotations from a Min instance.

    A clique C on 2*ell + 1 fresh vertices is added, ell being the smallest
    integer above (Delta + Gamma + |(1-3a)k|) / alpha; every non-T vertex v
    is wired to ell + counter(v) clique vertices and t rises by a*ell*(k-|T|).
    """
    if inst.variant != MIN:
        raise GuardViolation("deannotate_min needs the minimization variant")
    keep, masks, counters, gamma, _, delta, m = _gadget_base(inst)
    s, a, tmask, base = inst.scale, inst.alpha_weight, inst.tmask, len(keep)
    ell = ((delta + gamma) * s + abs(s - 3 * a) * inst.k) // a + 1

    csize = 2 * ell + 1
    wired = [0] * (csize + 1)  # wired[w]: the originals wired to exactly the first w clique vertices
    for i, (old_v, counter) in enumerate(zip(keep, counters)):
        if (tmask >> old_v) & 1:
            continue
        wires = ell + counter
        if wires > csize:
            raise RuleInternalError("clique too small for counter wiring")
        masks[i] |= ((1 << wires) - 1) << base
        wired[wires] |= 1 << i
        m += wires
    whole = ((1 << csize) - 1) << base
    clique = [0] * csize
    reach = 0  # the originals wired to clique vertex j: those with more than j wires
    for j in reversed(range(csize)):
        reach |= wired[j + 1]
        clique[j] = (whole ^ (1 << (base + j))) | reach
    masks.extend(clique)
    graph = Graph(n=base + csize, masks=tuple(masks), m=m + csize * (csize - 1) // 2)
    new_t = inst.t + Fraction(a * ell * inst.k_prime, s)
    plain = AnnotatedInstance.plain(graph, inst.k, new_t, inst.alpha, MIN)
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
    if inst.score_val(mask_of(lifted)) < inst.score_needed(inst.t):
        raise LiftError(f"lifted witness value {inst.val(lifted)} misses threshold {inst.t}")
    return lifted
