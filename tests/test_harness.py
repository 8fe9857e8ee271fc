from dataclasses import replace
from fractions import Fraction as F

import pytest

from fcgp.graph import compute_profile
from fcgp.harness import (
    AnswerMismatch,
    BatterySummary,
    check_equivalence,
    gen_annotated,
    gen_degenerate,
    gen_gnp,
    outcome_answer,
    parse_manifest,
    run_battery,
)
from fcgp.instance import MAX, MIN, AnnotatedInstance
from fcgp.rules import DECIDED_YES, KERNELIZED, KernelOutcome, RuleTrace, run_pipeline
from fcgp.solve import BudgetExceeded, brute_force, twin_oracle

from conftest import plain


def test_gnp_deterministic():
    a = gen_gnp(10, 1, 3, 99)
    b = gen_gnp(10, 1, 3, 99)
    assert a.adj == b.adj


def test_gnp_extremes():
    assert gen_gnp(0, 1, 2, 1).n == 0
    k = gen_gnp(6, 1, 1, 1)
    assert k.m == 15
    assert gen_gnp(6, 0, 1, 1).m == 0


def test_gen_degenerate_realized_bound():
    for seed in range(10):
        g = gen_degenerate(12, 2, seed)
        assert compute_profile(g).degeneracy <= 2
    assert gen_degenerate(8, 1, 0).m <= 7  # forest
    assert gen_degenerate(8, 0, 0).m == 0


def test_gen_annotated_thresholds_straddle_optimum():
    yes = no = 0
    for seed in range(60):
        g = gen_gnp(8, 1, 2, seed)
        inst = gen_annotated(g, seed, F(1, 2), MAX, (1, 3), (0, 2))
        res = brute_force(inst)
        assert abs(res.best_value - inst.t) <= 2
        yes += res.decision
        no += not res.decision
    assert yes >= 10 and no >= 10


def test_gen_annotated_exact_optimum_is_yes():
    g = gen_gnp(7, 1, 2, 5)
    inst = gen_annotated(g, 5, F(1, 2), MAX, (2, 2), (0, 1))
    opt = brute_force(inst).best_value
    from dataclasses import replace

    assert brute_force(replace(inst, t=opt)).decision
    assert not brute_force(replace(inst, t=opt + 1)).decision


def test_gen_annotated_infeasible_k():
    with pytest.raises(ValueError, match="infeasible"):
        gen_annotated(gen_gnp(2, 1, 2, 1), 1, F(1, 2), MAX, (5, 5))


def test_check_equivalence_identity():
    g = gen_gnp(7, 1, 2, 8)
    inst = gen_annotated(g, 8, F(1, 2), MAX, (1, 3))
    assert check_equivalence(inst, inst).ok


def test_check_equivalence_decides_a_min_clique_kernel_past_the_subset_budget():
    # Min, alpha = 1/4, k = 4, n = 10: the clique gadget makes a 93-vertex
    # kernel, C(93, 4) > 2,000,000 subsets, on which the walk visits 157 nodes
    inst = gen_annotated(gen_gnp(10, 1, 2, 4), 4, F(1, 4), MIN, (4, 4), (0, 2))
    outcome = run_pipeline(inst, "delta")
    assert outcome.status == KERNELIZED and outcome.plain.graph.n == 93
    assert brute_force(outcome.plain).nodes_explored == twin_oracle(outcome.plain).nodes_explored == 157
    report = check_equivalence(inst, outcome)
    assert report.status == "match"
    assert report.before_decision is report.after_decision is True
    assert twin_oracle(inst).nodes_explored < 157
    assert check_equivalence(inst, outcome, budget=157).ok
    assert check_equivalence(inst, outcome, budget=156).status == "skipped"


def test_check_equivalence_decided_yes_verifies_witness():
    g = gen_gnp(7, 1, 2, 11)
    inst = gen_annotated(g, 11, F(1, 2), MAX, (2, 2))
    res = brute_force(inst)
    if not res.decision:
        from dataclasses import replace

        inst = replace(inst, t=res.best_value)
        res = brute_force(inst)
    good = KernelOutcome(DECIDED_YES, None, res.witness, RuleTrace(pipeline="x"), inst)
    assert check_equivalence(inst, good).ok
    gone = next(v for v in res.witness if not (inst.tmask >> v) & 1)
    rep = check_equivalence(inst.exclude(gone), good)
    assert (rep.status, rep.detail) == ("mismatch", f"decided witness {res.witness} has deleted vertices")
    bad_witness = tuple(sorted(inst.free_vertices()[: inst.k]))
    bad = KernelOutcome(DECIDED_YES, None, bad_witness, RuleTrace(pipeline="x"), inst)
    rep = check_equivalence(inst, bad)
    assert rep.ok or rep.status == "mismatch"  # flagged unless accidentally optimal


def test_check_equivalence_detects_wrong_decision():
    g = gen_gnp(7, 1, 2, 13)
    inst = gen_annotated(g, 13, F(1, 2), MAX, (1, 2))
    res = brute_force(inst)
    from fcgp.rules import DECIDED_NO

    wrong = KernelOutcome(
        DECIDED_NO if res.decision else DECIDED_YES,
        None,
        None if res.decision else tuple(range(inst.k)),
        RuleTrace(pipeline="x"),
        inst,
    )
    assert not check_equivalence(inst, wrong).ok


def test_check_equivalence_lifts_every_kernelized_yes():
    # a kernelized YES of a 30-vertex graph (69-vertex leaf kernel): the
    # kernel's witness is lifted and checked on the original; a tampered
    # final instance or de-annotation makes that fail, and the report says so
    inst = AnnotatedInstance.plain(gen_degenerate(30, 3, seed=7), 3, F(7), F(1, 2), MAX)
    out = run_pipeline(inst, "auto")
    assert out.status == KERNELIZED and out.trace.deann.kind == "max-leaves"
    assert outcome_answer(inst, out, 2_000_000) == (True, (0, 14, 15))
    assert check_equivalence(inst, out).ok

    unreachable = replace(out, final=replace(out.final, t=out.final.t + 100))
    rep = check_equivalence(inst, unreachable)
    assert (rep.status, rep.before_decision, rep.after_decision) == ("mismatch", True, True)
    assert rep.detail == "witness lifting failed: lifted witness value 13/2 misses threshold 211/2"

    # the originals mapped back in reverse, and a final threshold the lift
    # meets: the lifted set is a solution of the final instance only
    deann = out.trace.deann
    n_orig = sum(o >= 0 for o in deann.origin)
    reversed_origin = deann.origin[n_orig - 1::-1] + deann.origin[n_orig:]
    remapped = replace(
        out,
        trace=replace(out.trace, deann=replace(deann, origin=reversed_origin)),
        final=replace(out.final, t=out.final.t - 100),
    )
    rep = check_equivalence(inst, remapped)
    assert (rep.status, rep.before_decision, rep.after_decision) == ("mismatch", True, True)
    assert rep.detail == "lifted witness evaluates to 6 vs t 7"
    with pytest.raises(AnswerMismatch, match="lifted witness evaluates to 6 vs t 7"):
        outcome_answer(inst, remapped, 2_000_000)


def test_outcome_answer_passes_the_oracle_budget_through():
    inst = gen_annotated(gen_gnp(10, 1, 2, 4), 4, F(1, 4), MIN, (4, 4), (0, 2))
    outcome = run_pipeline(inst, "delta")
    assert outcome.status == KERNELIZED
    with pytest.raises(BudgetExceeded):
        outcome_answer(inst, outcome, 10)


def test_manifest_parse_and_battery():
    text = """
    # comment line
    gnp n=7 p=1/2 seed=3 count=6 alpha=1/2 variant=max pipeline=delta k=1:2 counter=0:1
    degenerate n=8 d=1 seed=9 count=6 alpha=1/4 variant=min pipeline=degeneracy k=1:2
    """
    rows = parse_manifest(text)
    assert len(rows) == 2 and rows[0].generator == "gnp" and rows[1].pipeline == "degeneracy"
    summary = run_battery(rows)
    assert summary.failed == 0
    assert summary.passed + summary.skipped == 12


def test_manifest_guard_rows_count_as_skip():
    rows = parse_manifest("gnp n=6 p=1/2 seed=1 count=3 alpha=1/4 variant=max pipeline=delta k=1:2")
    summary = run_battery(rows)
    assert summary.passed == 0 and summary.failed == 0 and summary.skipped == 3


def test_manifest_empty():
    summary = run_battery(parse_manifest(""))
    assert (summary.passed, summary.failed, summary.skipped) == (0, 0, 0)


def test_manifest_errors():
    with pytest.raises(ValueError, match="bad token"):
        parse_manifest("gnp n=6 junk")
    with pytest.raises(ValueError, match="missing field"):
        parse_manifest("gnp n=6 seed=1 variant=max")
