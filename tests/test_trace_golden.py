"""Golden digest of rule traces, statuses and kernel files.

Every pipeline runs on seeded plain instances of 60-150 vertices (the
families ``gen_degenerate`` with d = 2, 3, sparse ``gen_gnp`` and a forest
with three hubs) and on seeded annotated instances with T and counters on at
most 10 vertices; the maximum-degree, closure and needless rules also run on
their own.  One
SHA-256 digest covers, per case, the status, ``trace.to_text()``, the kernel
file text (or the error raised) and the structural profile of the graph.

Min instances with t < 0 are left out: they are decided NO at once.

A second digest, ``XI_GOLDEN``, covers the X/I extractions, the
independent-set rules and the V_x windows of the h-index and vertex-cover
kernels, which the first never reaches.  It was generated before the two
extractions and the two windows were merged into shared code.

A third, ``SCALE_GOLDEN``, runs four pipelines on 3,200-vertex graphs,
where every rule loop makes thousands of moves.  It was generated on the
code before the rule loops moved onto one mutable working state.

Both digests were regenerated once, when the always-zero ``dk`` field left
the trace entry lines: on the code before that change, with only the
`` dk=0`` token removed from each entry line and nothing else changed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

from fcgp.cli import kernel_file_text
from fcgp.graph import Graph, compute_profile
from fcgp.harness import gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, MIN, AnnotatedInstance, GuardViolation
from fcgp.ramsey import ExtractionPreconditionError
from fcgp.rules import (
    RuleTrace,
    _State,
    find_bcfree_XI,
    find_closure_XI,
    rr_bcfree_independent_set,
    rr_closure_better,
    rr_closure_independent_set,
    rr_delta_better,
    rr_exclude_needless,
    rr_include_satisfactory,
    run_pipeline,
)

from conftest import apply_rule, greedy_cover_profile, star_graph

GOLDEN = "d89fe9adf0d9cdc745de96774025a36e79077c9e17b4342fbd509715d3d076ea"

ALL = ("delta", "closure", "degeneracy", "hindex", "vc", "auto")

# (variant, alpha, pipelines); pipelines a variant's guards reject are
# recorded as errors, which pins the guards as well.
PLAIN_ROWS = [
    (MAX, F(1, 4), ("hindex", "vc", "auto")),
    (MAX, F(1, 3), ("hindex", "vc")),
    (MAX, F(1, 2), ALL),
    (MAX, F(2, 3), ALL),
    (MAX, F(1), ALL),
    (MIN, F(0), ("degeneracy", "vc")),
    (MIN, F(1, 4), ("delta", "closure", "degeneracy", "vc", "auto")),
    (MIN, F(1, 2), ("vc",)),
]
PLAIN_FAMILIES = ("deg2", "deg3", "gnp", "hub")
PLAIN_SIZES = (60, 90, 120, 150)

ANNOTATED_ALPHAS = {
    MAX: (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)),
    MIN: (F(0), F(1, 4), F(1, 3), F(1, 2)),
}
ANNOTATED_GRAPHS = 24


def _graph(family: str, n: int, seed: int):
    if family == "deg2":
        return gen_degenerate(n, 2, seed)
    if family == "deg3":
        return gen_degenerate(n, 3, seed)
    if family == "gnp":
        return gen_gnp(n, 3, n, seed)
    rng = random.Random(seed)
    edges = set(gen_degenerate(n, 1, seed).edges())
    for hub in rng.sample(range(n), 3):
        edges.update((min(hub, v), max(hub, v)) for v in rng.sample(range(n), n // 4) if v != hub)
    return Graph.from_edges(n, sorted(edges))


def _profile_text(profile) -> str:
    order = ",".join(map(str, profile.degeneracy_ordering))
    return (
        f"profile delta={profile.max_degree} d={profile.degeneracy} h={profile.h_index} "
        f"c={profile.c_closure} order={order}"
    )


def _plain_threshold(g, k: int, alpha: F, variant: str, i: int) -> F:
    degs = sorted(g.degree(v) for v in range(g.n))
    if variant == MAX:
        return alpha * sum(degs[-k:]) * (2 + i % 3) / 4
    return alpha * sum(degs[:k]) * (1 + i % 3) / 2


def _run(label: str, inst, name: str, profile=None, param=None) -> str:
    try:
        out = run_pipeline(inst, name, profile=profile, param_override=param)
    except (GuardViolation, ExtractionPreconditionError) as exc:
        return f"case {label} {name}\nerror {type(exc).__name__}: {exc}\n"
    kernel = kernel_file_text(out.plain) if out.plain is not None else "-\n"
    return f"case {label} {name}\nstatus {out.status}\n{out.trace.to_text()}{kernel}"


def _run_rule(label: str, inst, rule: str) -> str:
    trace = RuleTrace(pipeline=rule)
    try:
        if rule == "delta-better":
            out = apply_rule(rr_delta_better, inst, trace).to_text()
        elif rule == "closure-better":
            sub, _ = inst.graph.induced(inst.alive_vertices())
            out = apply_rule(rr_closure_better, inst, compute_profile(sub).c_closure, trace).to_text()
        else:
            got = apply_rule(rr_include_satisfactory, inst, trace)
            if isinstance(got, tuple):
                out = f"decided {got[0]}\n"
            else:
                out = apply_rule(rr_exclude_needless, got, trace).to_text()
    except GuardViolation as exc:
        return f"case {label} {rule}\nerror {type(exc).__name__}: {exc}\n"
    return f"case {label} {rule}\n{trace.to_text()}{out}"


def plain_records():
    for i, (variant, alpha, pipelines) in enumerate(PLAIN_ROWS):
        for j, family in enumerate(PLAIN_FAMILIES):
            n = PLAIN_SIZES[(i + j) % len(PLAIN_SIZES)]
            seed = 1000 * i + 100 * j + n
            g = _graph(family, n, seed)
            profile = greedy_cover_profile(g)
            k = 3 + (i + 2 * j) % 4
            t = _plain_threshold(g, k, alpha, variant, i + j)
            inst = AnnotatedInstance.plain(g, k, t, alpha, variant)
            label = f"{family}/n={n}/seed={seed}/{variant}/{alpha}/k={k}/t={t}"
            yield f"case {label}\n{_profile_text(profile)}\n"
            for name in pipelines:
                yield _run(label, inst, name, profile)


def annotated_records():
    for i in range(ANNOTATED_GRAPHS):
        n = 6 + i % 5
        g = gen_gnp(n, 1, 2, 7 * i + 1) if i % 2 else gen_degenerate(n, 1 + (i // 2) % 3, 7 * i + 1)
        k = 2 + (i // 5) % 2
        for variant, alphas in ANNOTATED_ALPHAS.items():
            for alpha in alphas:
                inst = gen_annotated(g, 31 * i + 3, alpha, variant, (k, k), (0, 2), allow_t=True)
                if variant == MIN and inst.t < 0:
                    continue
                label = f"annotated/{i}/{variant}/{alpha}/k={k}/T={inst.tmask.bit_count()}"
                for name in ALL:
                    yield _run(label, inst, name)
                for rule in ("delta-better", "closure-better", "satisfactory-needless"):
                    yield _run_rule(label, inst, rule)


def golden_digest() -> str:
    h = hashlib.sha256()
    for records in (plain_records(), annotated_records()):
        for rec in records:
            h.update(rec.encode())
    return h.hexdigest()


def test_trace_golden():
    assert golden_digest() == GOLDEN


# ---------------------------------------------------------------------------
# X/I extraction and V_x window digest
# ---------------------------------------------------------------------------
#
# The plain and annotated families above never reach the X/I extractions,
# the independent-set rules or the include loops of the V_x windows.  The
# graphs below are built so that they do: stars and books (two adjacent hubs
# sharing their leaves) for the closure and biclique-free extractions, and
# caterpillars (a path of hubs, each with its own leaves) where several
# vertices sit far above the h-index or the vertex cover number.

XI_GOLDEN = "3f4fdde0ff0027261bd96ae1c0529da658cfd8767dc05912c0c6a8f27c2393bf"


def _book(pages: int):
    pairs = [(0, 1)] + [(h, i) for h in (0, 1) for i in range(2, pages + 2)]
    return Graph.from_edges(pages + 2, pairs)


def _caterpillar(leaves: tuple[int, ...]):
    hubs = len(leaves)
    pairs = [(h, h + 1) for h in range(hubs - 1)]
    nxt = hubs
    for h, count in enumerate(leaves):
        pairs.extend((h, nxt + i) for i in range(count))
        nxt += count
    return Graph.from_edges(nxt, pairs)


XI_GRAPHS = {
    "star40": star_graph(40),
    "star90": star_graph(90),
    "book30": _book(30),
    "book170": _book(170),
    "hub3": _caterpillar((40, 30, 25)),
    "hub4": _caterpillar((12, 35, 9, 28)),
}

# (graph, k, alpha, pipeline, parameter override or None)
XI_ROWS = [
    ("star90", 2, F(1, 2), "closure", 2),
    ("star90", 3, F(2, 3), "closure", 2),
    ("book170", 2, F(1, 2), "closure", 3),
    ("book170", 2, F(1), "closure", 2),
    ("hub3", 2, F(1, 2), "closure", 2),
    ("hub4", 2, F(2, 3), "closure", 2),
    ("star40", 2, F(1, 2), "degeneracy", 1),
    ("star40", 3, F(1), "degeneracy", 1),
    ("book30", 2, F(1, 2), "degeneracy", 2),
    ("book170", 3, F(2, 3), "degeneracy", 2),
    ("hub3", 2, F(1, 2), "degeneracy", 1),
    ("hub4", 3, F(2, 3), "degeneracy", 1),
    ("hub4", 2, F(1, 2), "degeneracy", 0),
]
for _name in ("star40", "book30", "hub3", "hub4"):
    for _k in (2, 3, 4, 5):
        for _alpha in (F(1, 4), F(1, 3), F(1, 2), F(1)):
            XI_ROWS.append((_name, _k, _alpha, "hindex", None))
            XI_ROWS.append((_name, _k, _alpha, "vc", None))


# direct extractions: closure with c = param; bcfree with a = b = param + 1
# and degeneracy param; ramsey with a = b = param and no degeneracy bound
XI_EXTRACTIONS = (
    ("closure", 1), ("closure", 2), ("closure", 3),
    ("bcfree", 0), ("bcfree", 1), ("bcfree", 2),
    ("ramsey", 2), ("ramsey", 3),
)


def _xi_threshold(g, k: int, alpha: F, i: int) -> F:
    degs = sorted(g.degree(v) for v in range(g.n))
    return alpha * sum(degs[-k:]) * (1 + i % 3) / 3


def _extract(label: str, inst, how: str, param: int) -> str:
    """One direct extraction plus the independent-set rule, or its error."""
    trace = RuleTrace(pipeline=how)
    try:
        if how == "closure":
            xs, iset = find_closure_XI(_State(inst), param, trace)
            out = apply_rule(rr_closure_independent_set, inst, xs, iset, trace)
        else:
            if how == "bcfree":
                xs, iset = find_bcfree_XI(_State(inst), param + 1, param + 1, degeneracy=param, trace=trace)
            else:
                xs, iset = find_bcfree_XI(_State(inst), param, param, trace=trace)
            out = apply_rule(rr_bcfree_independent_set, inst, xs, iset, trace)
    except (GuardViolation, ExtractionPreconditionError) as exc:
        return f"extract {label} {how} {param}\nerror {type(exc).__name__}: {exc}\n"
    return f"extract {label} {how} {param}\nX {xs}\nI {iset}\n{trace.to_text()}{out.to_text()}"


def xi_records():
    for i, (name, k, alpha, pipeline, param) in enumerate(XI_ROWS):
        g = XI_GRAPHS[name]
        profile = greedy_cover_profile(g)
        t = _xi_threshold(g, k, alpha, i)
        inst = AnnotatedInstance.plain(g, k, t, alpha, MAX)
        label = f"{name}/{MAX}/{alpha}/k={k}/t={t}/param={param}"
        yield _run(label, inst, pipeline, profile, param)
    for name in ("star40", "star90", "book30", "hub3", "hub4"):
        g = XI_GRAPHS[name]
        for k in (1, 2, 3):
            for variant in (MAX, MIN):
                inst = AnnotatedInstance.plain(g, k, F(0), F(1, 2), variant)
                if k == 3:
                    # a leaf in T and counters on the last leaves
                    bonus = tuple(F(1, 2) * (v % 3) if v > g.n - 6 else F(0) for v in range(g.n))
                    inst = replace(inst, tmask=1 << (g.n - 7), bonus=bonus)
                label = f"{name}/{variant}/k={k}/T={inst.tmask.bit_count()}"
                for how, param in XI_EXTRACTIONS:
                    yield _extract(label, inst, how, param)


def xi_digest() -> str:
    h = hashlib.sha256()
    for rec in xi_records():
        h.update(rec.encode())
    return h.hexdigest()


def test_extraction_window_golden():
    assert xi_digest() == XI_GOLDEN


# ---------------------------------------------------------------------------
# Digest at scale
# ---------------------------------------------------------------------------
#
# The graphs above have at most 170 vertices.  Below, the delta, closure,
# degeneracy and auto pipelines run on gen_degenerate(3200, 3) for Max with
# alpha 1/2 and 1 and for Min with alpha 1/4, at a threshold the
# satisfactory rule decides at once and at one that takes about 3,000
# exclusions.  The Min rows also run on the graph without its isolated
# vertices, where the optimum is above 0.

SCALE_GOLDEN = "d7d7bc2879d9e411b33cf7eda26a2f4e857b89ee5e5a893cf05be2b8560b6b89"

SCALE_N = 3200
SCALE_PIPELINES = ("delta", "closure", "degeneracy", "auto")
# (variant, alpha, seed, thresholds, drop isolated vertices)
SCALE_ROWS = [
    (MAX, F(1, 2), 7, (F(22), F(45)), False),
    (MAX, F(1), 8, (F(44), F(88)), False),
    (MIN, F(1, 4), 9, (F(0),), False),
    (MIN, F(1, 4), 9, (F(1), F(2)), True),
]


def scale_records():
    for variant, alpha, seed, thresholds, connected in SCALE_ROWS:
        g = gen_degenerate(SCALE_N, 3, seed)
        if connected:
            g, _ = g.induced(v for v in range(g.n) if g.degree(v))
        profile = compute_profile(g, vc_budget=-1)
        yield f"scale n={g.n} seed={seed}\n{_profile_text(profile)}\n"
        for t in thresholds:
            inst = AnnotatedInstance.plain(g, 6, t, alpha, variant)
            label = f"scale/n={g.n}/seed={seed}/{variant}/{alpha}/k=6/t={t}"
            for name in SCALE_PIPELINES:
                yield _run(label, inst, name, profile)


def scale_digest() -> str:
    h = hashlib.sha256()
    for rec in scale_records():
        h.update(rec.encode())
    return h.hexdigest()


def test_scale_golden():
    assert scale_digest() == SCALE_GOLDEN
