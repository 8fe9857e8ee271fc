"""Acceptance suite: one test per criterion, each printing its PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact rational equality; there are no floating-point comparisons anywhere.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from fcgp import ramsey
from fcgp.graph import Graph, compute_profile
from fcgp.harness import check_equivalence, gen_annotated, gen_degenerate, gen_gnp
from fcgp.instance import MAX, MIN, AnnotatedInstance, GuardViolation
from fcgp.rules import (
    DECIDED_NO,
    DECIDED_YES,
    KERNELIZED,
    KernelOutcome,
    RuleTrace,
    rr_closure_better,
    rr_counter_shift,
    rr_delta_better,
    rr_exclude_needless,
    rr_include_satisfactory,
    run_pipeline,
)
from fcgp.solve import (
    branch_degrading,
    brute_force,
    densest_vc,
    hindex_fpt_max,
    solve_bounded_degree,
    solve_third,
)

from conftest import apply_rule, telescope_check

ALPHAS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))

# (target, variant, alphas, allow_t) -- guard-permitting combinations only
RULE_MATRIX = [
    ("rr_delta_better", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("rr_delta_better", MIN, (F(1, 4),), True),
    ("rr_include_satisfactory", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("rr_include_satisfactory", MIN, (F(1, 4),), True),
    ("rr_exclude_needless", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("rr_exclude_needless", MIN, (F(1, 4),), True),
    ("rr_counter_shift", MAX, ALPHAS, True),
    ("rr_counter_shift", MIN, ALPHAS, True),
    ("rr_closure_better", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("rr_closure_better", MIN, (F(0), F(1, 4)), True),
    ("delta", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("delta", MIN, (F(1, 4),), True),
    ("closure", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("closure", MIN, (F(1, 4),), True),
    ("degeneracy", MAX, (F(1, 2), F(2, 3), F(1)), True),
    ("degeneracy", MIN, (F(0), F(1, 4)), False),
    ("hindex", MAX, (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)), False),
    ("vc", MAX, (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)), False),
    ("vc", MIN, (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)), False),
]

PER_COMBO = 500


def _instances(variant, alpha, count, tag, allow_t):
    """Deterministic stream: n <= 10, k <= 4, counters <= 2."""
    import zlib

    rng = random.Random(zlib.crc32(f"{tag}/{variant}/{alpha}".encode()))
    made = 0
    while made < count:
        seed = rng.randrange(1 << 30)
        n = 6 + seed % 5
        if seed % 2:
            g = gen_gnp(n, 1, 2, seed)
        else:
            g = gen_degenerate(n, 1 + seed % 3, seed)
        try:
            inst = gen_annotated(g, seed, alpha, variant, (1, min(4, n)), (0, 2), allow_t=allow_t)
        except ValueError:
            continue
        made += 1
        yield inst


def _apply_rule(name, inst):
    """Run one rule (or pipeline) and return something check_equivalence accepts."""
    if name == "rr_delta_better":
        return apply_rule(rr_delta_better, inst)
    if name == "rr_include_satisfactory":
        got = apply_rule(rr_include_satisfactory, inst)
        if isinstance(got, tuple):
            status, witness, final = got
            return KernelOutcome(status, None, witness, RuleTrace(pipeline=name), final)
        return got
    if name == "rr_exclude_needless":
        got = apply_rule(rr_include_satisfactory, inst)
        if isinstance(got, tuple):
            raise GuardViolation("decided before the needless rule became applicable")
        return apply_rule(rr_exclude_needless, got)
    if name == "rr_counter_shift":
        return apply_rule(rr_counter_shift, inst)
    if name == "rr_closure_better":
        sub, _ = inst.graph.induced(inst.alive_vertices())
        return apply_rule(rr_closure_better, inst, compute_profile(sub).c_closure)
    return run_pipeline(inst, name)


@pytest.fixture(scope="module")
def rule_sweep():
    """Shared run for criteria 1 and 7: equivalence checks plus kernel audits."""
    mismatches = []
    kernelized = []  # (tag, inst, outcome)
    ran = {}
    for target, variant, alphas, allow_t in RULE_MATRIX:
        for alpha in alphas:
            tag = f"{target}/{variant}/{alpha}"
            ok = skipped = 0
            for inst in _instances(variant, alpha, PER_COMBO, target, allow_t):
                try:
                    after = _apply_rule(target, inst)
                except GuardViolation:
                    skipped += 1
                    continue
                report = check_equivalence(inst, after, budget=600_000)
                if report.status == "mismatch":
                    mismatches.append((tag, report.detail))
                elif report.status == "match":
                    ok += 1
                    if isinstance(after, KernelOutcome) and after.status == KERNELIZED:
                        kernelized.append((tag, inst, after))
                else:
                    skipped += 1
            ran[tag] = (ok, skipped)
    return mismatches, kernelized, ran


def test_criterion_1_oracle_equivalence(rule_sweep):
    mismatches, _, ran = rule_sweep
    assert not mismatches, mismatches[:5]
    total_ok = sum(ok for ok, _ in ran.values())
    total_skipped = sum(skipped for _, skipped in ran.values())
    # every guard-permitting combination must be exercised substantially
    thin = {tag: counts for tag, counts in ran.items() if counts[0] < 100}
    assert not thin, f"combinations with thin coverage: {thin}"
    print(f"criterion 1: PASS ({len(ran)} rule/variant/alpha combos, "
          f"{total_ok} equivalence checks, {total_skipped} skipped, 0 mismatches)")


def test_criterion_2_telescoping():
    rng = random.Random(2022)
    checks = 0
    while checks < 10_000:
        g = gen_gnp(8, 1, 2, rng.randrange(1 << 30))
        alpha = rng.choice(ALPHAS)
        counters = {v: rng.randint(0, 3) for v in range(8)}
        from conftest import annotated

        inst = annotated(g, [], counters, 4, 0, alpha, rng.choice((MAX, MIN)))
        size = rng.randint(0, 6)
        ordering = rng.sample(range(8), size)
        assert telescope_check(inst, ordering) == inst.val(ordering)
        checks += 1
    print(f"criterion 2: PASS ({checks} telescoping triples, exact equality)")


def test_criterion_3_modularity():
    rng = random.Random(333)
    per_regime = {"sub": 0, "super": 0, "boundary": 0}
    while min(per_regime.values()) < 10_000:
        g = gen_gnp(7, 1, 2, rng.randrange(1 << 30))
        alpha = rng.choice(ALPHAS)
        regime = "boundary" if alpha == F(1, 3) else ("sub" if alpha > F(1, 3) else "super")
        if per_regime[regime] >= 10_000:
            continue
        inst = AnnotatedInstance.plain(g, 3, F(0), alpha, MAX)
        xs = {v for v in range(7) if rng.random() < 0.4}
        ys = xs | {v for v in range(7) if rng.random() < 0.4}
        outside = [v for v in range(7) if v not in ys]
        if not outside:
            continue
        v = rng.choice(outside)
        dx = inst.val(xs | {v}) - inst.val(xs)
        dy = inst.val(ys | {v}) - inst.val(ys)
        if regime == "sub":
            assert dx >= dy
        elif regime == "super":
            assert dx <= dy
        else:
            assert dx == dy
        per_regime[regime] += 1
    print(f"criterion 3: PASS (10000 triples per regime, directions exact)")


def test_criterion_4_solver_agreement():
    counts = {}

    def run(solver_name, fn, variant, alphas, total, allow_t=True, counters=(0, 2)):
        done = 0
        per_alpha = math.ceil(total / len(alphas))
        for alpha in alphas:
            for inst in _instances(variant, alpha, per_alpha, "solver-" + solver_name, allow_t):
                ref = brute_force(inst)
                res = fn(inst)
                assert res.decision == ref.decision, (solver_name, inst.to_text())
                if solver_name == "branch":
                    if ref.decision:
                        assert res.best_value == ref.best_value
                        assert res.witness == ref.witness
                else:
                    assert res.best_value == ref.best_value
                    if solver_name in ("hindex", "bounded-degree"):
                        assert res.witness == ref.witness, (solver_name, inst.to_text())
                if res.decision:
                    assert inst.is_solution(res.witness)
                done += 1
        counts[solver_name] = done

    def with_profile(fn):
        def inner(inst):
            sub, _ = inst.graph.induced(inst.alive_vertices())
            return fn(inst, sub)
        return inner

    run("branch", with_profile(lambda i, s: branch_degrading(i, compute_profile(s).degeneracy)),
        MAX, (F(1, 2), F(2, 3), F(1)), 150)
    done_max = counts.pop("branch")
    run("branch", with_profile(lambda i, s: branch_degrading(i, compute_profile(s).degeneracy)),
        MIN, (F(1, 4),), 150)
    counts["branch"] += done_max
    run("third-max", solve_third, MAX, (F(1, 3),), 150)
    run("third-min", solve_third, MIN, (F(1, 3),), 150)
    run("hindex", with_profile(lambda i, s: hindex_fpt_max(i, compute_profile(s).h_index)),
        MAX, (F(0), F(1, 4)), 300)
    run("densest-vc", with_profile(lambda i, s: densest_vc(i, compute_profile(s).vertex_cover)),
        MAX, (F(0),), 300, allow_t=False, counters=(0, 0))
    run("bounded-degree", solve_bounded_degree, MAX, (F(1, 4), F(2, 3)), 150)
    done_max = counts.pop("bounded-degree")
    run("bounded-degree", solve_bounded_degree, MIN, (F(1, 4), F(2, 3)), 150)
    counts["bounded-degree"] += done_max
    counts["third"] = counts.pop("third-max") + counts.pop("third-min")
    assert all(v >= 300 for v in counts.values()), counts
    print("criterion 4: PASS (" + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
          + ", 0 mismatches)")


def test_criterion_5_min_triviality():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        g = gen_degenerate(6 + seed % 6, 1 + seed % 3, seed * 31)
        prof = compute_profile(g)
        d = prof.degeneracy
        k = 1 + seed % 3
        if g.n < k:
            continue
        inst = AnnotatedInstance.plain(g, k, F(d * k), F(1, 4), MIN)
        witness = tuple(sorted(prof.degeneracy_ordering[:k]))
        assert inst.val(witness) <= inst.t
        out = run_pipeline(inst, "degeneracy")
        assert out.status == DECIDED_YES
        assert inst.val(out.witness) <= inst.t
        done += 1
    print(f"criterion 5: PASS ({done} degenerate instances at t = d*k, all witnessed)")


def test_criterion_6_ramsey_witnesses():
    assert ramsey.rc_bound(3, 3, 2) == 6
    rng = random.Random(666)
    classic = 0
    while classic < 200:
        p, q = rng.choice(((3, 3), (2, 4), (4, 2), (3, 4)))
        n = ramsey.classic_bound(p, q)
        g = gen_gnp(n, rng.randint(1, 3), 4, rng.randrange(1 << 30))
        w = ramsey.classic_ramsey(g, p, q)
        ok = g.is_clique(w.vertices) if w.kind == ramsey.CLIQUE else g.is_independent_set(w.vertices)
        assert ok and len(w.vertices) == (p if w.kind == ramsey.CLIQUE else q)
        classic += 1

    cclosed = 0
    while cclosed < 200:
        g = gen_gnp(rng.randint(12, 16), rng.randint(1, 3), 4, rng.randrange(1 << 30))
        c = compute_profile(g).c_closure
        if g.n < ramsey.rc_bound(3, 3, c):
            continue
        w = ramsey.cclosed_ramsey(g, 3, 3, c)
        ok = g.is_clique(w.vertices) if w.kind == ramsey.CLIQUE else g.is_independent_set(w.vertices)
        assert ok and len(w.vertices) == 3
        cclosed += 1

    bcfree = 0
    bound = ramsey.bcfree_ramsey_bound(2, 2, 3)
    while bcfree < 200:
        g = gen_degenerate(bound, 1, rng.randrange(1 << 30))  # forests are K_{2,2}-free
        got = ramsey.bcfree_independent_set(g, 2, 2, 3)
        assert len(got) == 3 and g.is_independent_set(got)
        bcfree += 1
    print(f"criterion 6: PASS (classic={classic} cclosed={cclosed} bcfree={bcfree}, "
          f"rc_bound(3,3,2)=6)")


def _predicted_kernel_n(final, deann):
    if deann.kind == "identity":
        return final.n_alive
    if deann.kind == "max-leaves":
        counters = final.counters()
        inv_floor = math.floor(1 / final.alpha)
        pad = math.ceil(max(F(0), 2 - 1 / final.alpha) * (final.k - 1)) if final.k > 1 else 0
        total = final.n_alive
        for v in final.alive_vertices():
            total += counters[v] + inv_floor + pad
        total += deann.ell * final.t_size
        return total
    if deann.kind == "min-clique":
        return final.n_alive + 2 * deann.ell + 1
    raise AssertionError(f"unexpected de-annotation kind {deann.kind}")


def test_criterion_7_kernel_size_audits(rule_sweep):
    _, kernelized, _ = rule_sweep
    assert kernelized, "criterion 1 produced no kernelized outcomes"
    audited = 0
    for tag, inst, outcome in kernelized:
        audits = outcome.trace.audits
        if "delta_better_free" in audits:
            assert int(audits["delta_better_free"]) <= int(audits["delta_better_bound"]), tag
        if "counter_bound_ok" in audits:
            assert audits["counter_bound_ok"] == "True", tag
        final = outcome.final
        assert final.n_alive == outcome.trace.final.n, tag
        predicted = _predicted_kernel_n(final, outcome.trace.deann)
        assert predicted == outcome.plain.graph.n == int(audits["kernel_n"]), tag
        audited += 1
    print(f"criterion 7: PASS ({audited} kernelized outcomes, all size audits exact)")


def test_criterion_8_determinism(tmp_path, capsys):
    from fcgp.cli import main

    g = gen_gnp(9, 1, 2, 404)
    gpath = tmp_path / "g.el"
    gpath.write_text("\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]) + "\n")
    man = tmp_path / "man.txt"
    man.write_text("gnp n=8 p=1/2 seed=17 count=10 alpha=1/2 variant=max pipeline=delta k=1:3 counter=0:2\n")

    # pick a threshold whose pipeline run actually emits a kernel file
    base = AnnotatedInstance.plain(g, 3, F(0), F(2, 3), MAX)
    opt = brute_force(base).best_value
    t_kern = None
    for dt in (F(1, 4), F(1, 2), F(3, 4), F(5, 4), F(7, 4), F(-1, 4), F(-3, 4)):
        if run_pipeline(replace(base, t=opt + dt), "auto").status == KERNELIZED:
            t_kern = opt + dt
            break
    assert t_kern is not None, "no kernelizing threshold found for the determinism check"

    def run_all(tag):
        outputs = []
        kern = tmp_path / f"k-{tag}.txt"
        trace = tmp_path / f"t-{tag}.txt"
        for argv in (
            ["params", str(gpath)],
            ["kernelize", str(gpath), "--alpha=2/3", "--k=3", f"--t={t_kern}", "--variant=max",
             "--pipeline=auto", "--out", str(kern), "--trace", str(trace)],
            ["solve", str(gpath), "--alpha", "1/3", "--k", "3", "--t", "5", "--variant", "max", "--json"],
            ["battery", str(man)],
        ):
            main(argv)
            outputs.append(capsys.readouterr().out)
        outputs.append(kern.read_text())
        outputs.append(trace.read_text())
        return outputs

    assert run_all("a") == run_all("b")
    print("criterion 8: PASS (byte-identical reports, traces and kernel files)")


VERIFY_CASES = [
    ("delta", MAX, F(1, 2)),
    ("delta", MAX, F(1)),
    ("delta", MIN, F(1, 4)),
    ("closure", MAX, F(2, 3)),
    ("degeneracy", MAX, F(1, 2)),
    ("degeneracy", MIN, F(1, 4)),
    ("degeneracy", MIN, F(0)),
    ("hindex", MAX, F(1, 2)),
    ("vc", MAX, F(1, 4)),
    ("vc", MIN, F(1, 4)),
]


def test_criterion_9_witness_lifting(tmp_path):
    from fcgp.cli import EXIT_OK, main

    rng = random.Random(909)
    done = 0
    while done < 500:
        pipe, variant, alpha = VERIFY_CASES[done % len(VERIFY_CASES)]
        seed = rng.randrange(1 << 30)
        n = 6 + seed % 5
        g = gen_gnp(n, 1, 2, seed) if seed % 2 else gen_degenerate(n, 1 + seed % 2, seed)
        k = 1 + seed % 3
        if k > g.n:
            continue
        base = AnnotatedInstance.plain(g, k, F(0), alpha, variant)
        opt = brute_force(base).best_value
        if opt is None:
            continue
        t = opt + F(rng.randint(-8, 8), 4)
        inst = replace(base, t=t)
        try:
            run_pipeline(inst, pipe)
        except GuardViolation:
            continue
        gpath = tmp_path / "g.el"
        gpath.write_text("\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]) + "\n")
        kern = tmp_path / "k.txt"
        trace = tmp_path / "t.txt"
        flags = [f"--alpha={alpha}", f"--k={k}", f"--t={t}", f"--variant={variant}",
                 f"--pipeline={pipe}"]
        assert main(["kernelize", str(gpath), *flags, "--out", str(kern), "--trace", str(trace)]) == EXIT_OK
        code = main(["verify", str(gpath), *flags, "--kernel", str(kern), "--trace", str(trace), "--oracle"])
        assert code == EXIT_OK, (pipe, variant, str(alpha), seed)
        done += 1
    print(f"criterion 9: PASS ({done} verify round-trips, 0 mismatches)")
