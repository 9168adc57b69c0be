"""Inductive period tower: pins for small exponents, resume, audits."""

import copy
import functools
import json
import os
import random
import time

import pytest

from burnside import cosets, oracle, subgrp, tower
from burnside.presentation import TowerStatus, tower_presentation
from burnside.words import parse_word
from support import (count_completions, count_cycle_letters,
                     count_enumerations, count_felsch_runs, count_forks,
                     fail_in_children, replaced)


def small_budgets(**kw):
    base = dict(stage_max_cosets=100_000)
    base.update(kw)
    return tower.Budgets(**base)


def test_exponent_2_terminates():
    res = tower.run_tower(2, 2)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert res.period_texts() == ["a", "b", "ab"]
    assert res.order == 4
    assert res.exponent == 2


def test_exponent_3_terminates():
    res = tower.run_tower(2, 3)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert res.period_texts() == ["a", "b", "ab", "aB"]
    assert res.order == 27
    assert res.exponent == 3
    check = tower.verify_period_orders(res)
    assert check["status"] == "ok"
    assert all(row["order"] == 3 for row in check["periods"])


def test_one_generator_exponent_5():
    res = tower.run_tower(1, 5)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert res.period_texts() == ["a"]
    assert res.order == 5
    assert res.exponent == 5


def test_exponent_1_is_trivial_group():
    res = tower.run_tower(2, 1)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert res.order == 1
    assert res.exponent == 1


def test_validation():
    with pytest.raises(ValueError):
        tower.run_tower(0, 2)
    with pytest.raises(ValueError):
        tower.run_tower(2, 0)


def test_candidate_filters():
    # conjugates and proper powers never become periods
    assert tower.candidate_filter_reason(parse_word("abA", 2)) \
        == "not-cyclically-reduced"
    assert tower.candidate_filter_reason(parse_word("abab", 2)) \
        == "proper-power"
    assert tower.candidate_filter_reason(parse_word("ab", 2)) is None
    res = tower.run_tower(2, 3)
    filtered = [e for r in res.ranks for e in r.log if "filtered" in e]
    # the n=3 scans stop at length 2, so only proper powers get filtered
    assert any(e["filtered"] == "proper-power" for e in filtered)
    assert all(e["word"] == "aa" for e in filtered)


def test_independence_both_towers():
    for n in (2, 3):
        res = tower.run_tower(2, n)
        rep = tower.verify_independence(res, small_budgets())
        assert rep["status"] == "ok", rep
        assert rep["unresolved"] == 0
        assert all(e["independent"] for e in rep["relators"])


def _drop_evidence(rep):
    """(kind, detail, independent, failure) per dropped relator."""
    out = []
    for e in rep["relators"]:
        ev = e["evidence"]
        detail = None
        if ev["kind"] == "closed-enumeration":
            detail = ev["dropped_order"]
        elif ev["kind"] == "infinite-order-certificate":
            detail = (ev["witness"], ev["quotient"], ev["verified"])
        out.append((ev["kind"], detail, e["independent"], e.get("failure")))
    return out


def _with_periods(m, n, texts):
    # the real run's realization, with a hand-picked list of periods
    return replaced(
        tower.run_tower(m, n),
        periods=tuple(parse_word(t, m) for t in texts))


SAME = "dropped presentation has the same order"


def test_independence_fails_on_a_dependent_power():
    # in <a | a^2>, dropping a^2 leaves <a | a^4>; dropping a^4 changes
    # nothing
    rep = tower.verify_independence(_with_periods(1, 2, ["a", "aa"]),
                                    tower.Budgets())
    assert rep["status"] == "FAILED" and rep["unresolved"] == 0
    assert _drop_evidence(rep) == [
        ("closed-enumeration", 4, True, None),
        ("closed-enumeration", 2, False, SAME),
    ]
    assert [e["evidence"]["full_order"] for e in rep["relators"]] == [2, 2]


def test_independence_certificates_then_closed_enumerations():
    rep = tower.verify_independence(
        _with_periods(2, 2, ["a", "b", "ab", "aB"]), tower.Budgets())
    assert rep["status"] == "FAILED" and rep["unresolved"] == 0
    assert _drop_evidence(rep) == [
        ("infinite-order-certificate", ("a", "abelian-torsion", True),
         True, None),
        ("infinite-order-certificate", ("b", "abelian-torsion", True),
         True, None),
        ("closed-enumeration", 4, False, SAME),
        ("closed-enumeration", 4, False, SAME),
    ]


def test_independence_without_quotients_is_unresolved():
    rep = tower.verify_independence(
        _with_periods(2, 2, ["a", "b", "ab"]),
        tower.Budgets(max_kernel_index=1, independence_candidates=0))
    assert rep["status"] == "unresolved" and rep["unresolved"] == 3
    assert _drop_evidence(rep) == [("none", None, None, None)] * 3


def test_independence_tries_certificates_before_enumerating(monkeypatch):
    # every relator of B(2,3) is independent by certificate, so none of
    # the dropped presentations gets enumerated
    res = _tower_2_3()
    calls = count_enumerations(monkeypatch)
    rep = tower.verify_independence(res, tower.Budgets())
    assert rep["status"] == "ok"
    assert calls == []


def count_ladder_builds(monkeypatch) -> list:
    """Collect the quotient kind of each KernelCertifier built; a
    certificate's replay builds none."""
    built = []
    init = subgrp.KernelCertifier.__init__

    def counted_init(self, p, spec):
        built.append(spec["kind"])
        init(self, p, spec)

    monkeypatch.setattr(subgrp.KernelCertifier, "__init__", counted_init)
    return built


def test_a_cyclic_stage_traces_its_relator_once_round(monkeypatch):
    # B(1,5)'s rank-2 stage <a | a^5> is its own abelianization: its
    # torsion rung walks a once round the one 5-cycle, 5 letters, where
    # tracing a^5 from each of the 5 points took 25
    traced = count_cycle_letters(monkeypatch)
    b = tower.Budgets()
    res = tower.run_tower(1, 5, b)
    rep = tower.build_report(res, b, audit=tower.audit_tower(res, b))
    assert rep["result"]["order"] == 5
    assert [letters for relators, letters in traced if relators] == [5]


def test_independence_builds_a_rung_only_when_asked(monkeypatch):
    # the torsion rung certifies every dropped period of B(2,3), so the
    # full-realization rung above it is never built
    res = _tower_2_3()
    built = count_ladder_builds(monkeypatch)
    rep = tower.verify_independence(res, tower.Budgets())
    assert rep["status"] == "ok"
    assert [e["evidence"]["quotient"] for e in rep["relators"]] == \
        ["abelian-torsion"] * 4
    assert built == ["abelian"] * 4


def test_dependent_relators_still_reach_the_full_realization(monkeypatch):
    # a and b are certified by the torsion rung; ab and aB are dependent,
    # so every candidate falls through to the full-realization rung
    res = _with_periods(2, 2, ["a", "b", "ab", "aB"])
    built = count_ladder_builds(monkeypatch)
    asked = []
    certify = subgrp.KernelCertifier.certify

    def counted_certify(self, w):
        asked.append(self.quotient_spec["kind"])
        return certify(self, w)

    monkeypatch.setattr(subgrp.KernelCertifier, "certify", counted_certify)
    rep = tower.verify_independence(res, tower.Budgets())
    assert [kind for kind, *_ in _drop_evidence(rep)] == \
        ["infinite-order-certificate"] * 2 + ["closed-enumeration"] * 2
    assert built == ["abelian", "abelian", "abelian", "permutation",
                     "abelian", "permutation"]
    # word-major: each candidate of a dependent relator asks both rungs;
    # the kept periods have finite order there, so they are not asked
    per_drop = 1 + tower.Budgets().independence_candidates
    assert asked == ["abelian", "abelian"] + \
        ["abelian", "permutation"] * (2 * per_drop)


def test_center_is_small_but_nontrivial():
    res = tower.run_tower(2, 3)
    rep = tower.center_report(res)
    assert rep["order"] == 3
    assert rep["note"] == tower.CENTER_DIVERGENCE_NOTE
    res2 = tower.run_tower(2, 2)
    rep2 = tower.center_report(res2)
    assert rep2["order"] == 4  # abelian group is its own center


def test_audit_replays_every_verdict():
    res = tower.run_tower(2, 3)
    audit = tower.audit_tower(res, small_budgets())
    assert audit["agreement"] == "100%"
    assert audit["disagreements"] == []
    checks = audit["checks"]
    assert checks["finite"] > 0 and checks["infinite"] > 0
    assert checks["filtered"] > 0
    # every log entry was audited under exactly one of the three kinds
    logged = sum(len(r.log) for r in res.ranks)
    assert sum(checks.values()) == logged


def test_checkpoint_and_resume():
    tight = small_budgets(max_candidates=2)
    res = tower.run_tower(2, 3, budgets=tight)
    assert res.status is TowerStatus.ORACLE_INCONCLUSIVE
    cp = res.checkpoint
    assert cp is not None
    assert cp["schema"] == tower.CHECKPOINT_SCHEMA
    blob = json.dumps(cp)  # must be serializable as-is
    resumed = tower.run_tower(2, 3, resume=json.loads(blob))
    assert resumed.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert resumed.order == 27
    assert resumed.period_texts() == ["a", "b", "ab", "aB"]
    assert any("resumed" in note for note in resumed.notes)


def test_a_closed_stage_whose_exponent_exceeds_n_stalls_divergent():
    # a checkpoint standing in for a run that proved aabb infinite: rank 8
    # closes at order 16,384 with an element of order 8
    cp = {"schema": tower.CHECKPOINT_SCHEMA, "m": 2, "n": 4, "cursor": None,
          "periods": ["a", "b", "ab", "aB", "aab", "abb", "aabb"]}
    res = tower.run_tower(2, 4, resume=cp)
    assert res.status is TowerStatus.STALLED_DIVERGENT
    assert (res.order, res.exponent) == (16384, 8)
    assert res.notes == ["resumed at rank 8",
                         "element abaB has order 8, which does not divide 4"]
    rep = tower.build_report(res, tower.Budgets(), verifications=False)
    assert rep["status"] == "stalled-divergent"
    assert rep["result"] == {"order": 16384, "exponent": 8,
                             "exponent_divides_n": False}


def test_resume_notes_each_budget_that_differs():
    cp = tower.run_tower(2, 3, budgets=small_budgets(max_candidates=2)) \
        .checkpoint
    resumed = tower.run_tower(2, 3, budgets=small_budgets(
        max_candidates=50, stage_max_cosets=200_000), resume=cp)
    assert [n for n in resumed.notes if n.startswith("resumed with")] == [
        "resumed with stage_max_cosets 200000 (checkpoint had 100000)",
        "resumed with max_candidates 50 (checkpoint had 2)",
    ]
    same = tower.run_tower(2, 3, budgets=small_budgets(max_candidates=2),
                           resume=cp)
    assert not any(n.startswith("resumed with") for n in same.notes)


# a checkpoint as runs before tower-report/3 wrote it: its budgets still
# carry oracle_max_cosets, the oracle's own coset budget
OLD_CHECKPOINT = {
    "schema": "burnside/tower-checkpoint/1",
    "order": "shortlex:index-major,plain-before-inverse",
    "m": 2, "n": 3,
    "budgets": {
        "independence_candidates": 64, "kb_max_len": 64,
        "kb_max_rules": 20000, "kb_max_steps": 1000000,
        "max_candidates": 2, "max_kernel_index": 2048, "max_ranks": 64,
        "max_relator_letters": 1048576, "oracle_max_cosets": 5000,
        "stage_max_cosets": 100000,
    },
    "periods": ["a"],
    "cursor": "A",
    "partial_log": [
        {"order": 3, "strategy": "kb-power", "verdict": "finite",
         "word": "a"},
        {"order": 3, "strategy": "kb-power", "verdict": "finite",
         "word": "A"},
    ],
}


def test_resume_drops_the_retired_oracle_budget():
    res = tower.run_tower(2, 3, resume=copy.deepcopy(OLD_CHECKPOINT))
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert res.period_texts() == ["a", "b", "ab", "aB"]
    assert res.order == 27
    assert res.notes == [
        "resumed at rank 2",
        "checkpoint budget oracle_max_cosets dropped: the oracle reads the "
        "stage closure under stage_max_cosets",
        "resumed with max_candidates 10000 (checkpoint had 2)",
    ]


def test_resume_rejects_mismatched_checkpoint():
    res = tower.run_tower(2, 3, budgets=small_budgets(max_candidates=2))
    cp = res.checkpoint
    with pytest.raises(ValueError):
        tower.run_tower(2, 2, resume=cp)
    with pytest.raises(ValueError):
        tower.run_tower(2, 3, resume={"schema": "bogus"})


@pytest.mark.parametrize("field, value", [
    ("periods", None), ("m", None), ("n", None),
    ("periods", "a,b"), ("periods", [1, 2]), ("m", "2"), ("n", 3.0),
    ("cursor", 7), ("partial_log", {}),
    ("partial_log", [{"foo": 1}]), ("partial_log", [5]),
    ("partial_log", [{"word": "a", "verdict": "infinite", "certificate": {
        "schema": "burnside/order-certificate/1"}}]),
])
def test_resume_rejects_malformed_checkpoint(field, value):
    cp = {"schema": tower.CHECKPOINT_SCHEMA, "m": 2, "n": 3,
          "periods": ["a", "b"], "cursor": None, "partial_log": []}
    if value is None:
        del cp[field]
    else:
        cp[field] = value
    with pytest.raises(ValueError, match=field):
        tower.run_tower(2, 3, resume=cp)
    with pytest.raises(ValueError, match="not a tower checkpoint"):
        tower.run_tower(2, 3, resume=[cp])


def test_rank_budget_checkpoints():
    res = tower.run_tower(2, 4, budgets=small_budgets(max_ranks=3))
    assert res.status is TowerStatus.ORACLE_INCONCLUSIVE
    assert len(res.periods) == 3
    assert res.checkpoint["periods"] == ["a", "b", "ab"]
    assert any("rank budget" in note for note in res.notes)


def test_asymptotic_regime_checkpoints_immediately():
    res = tower.run_tower(2, tower.PAPER_REGIME_EXPONENT)
    assert res.status is TowerStatus.ORACLE_INCONCLUSIVE
    assert res.checkpoint is not None
    assert any("asymptotic regime" in note for note in res.notes)
    # nothing got materialized: the run must come back fast and small
    assert len(res.periods) <= 2


@functools.lru_cache(maxsize=None)
def _tower_2_3():
    return tower.run_tower(2, 3)


def test_tower_certificates_replay_with_no_smith_normal_form(monkeypatch):
    # every certificate of the B(2,3) run, in its scan logs and in its
    # independence check, replays by dot products alone
    res = _tower_2_3()
    certs = [e["certificate"] for o in res.ranks for e in o.log
             if "certificate" in e]
    certs += [e["evidence"]["certificate"] for e in
              tower.verify_independence(res, tower.Budgets())["relators"]]
    assert len(certs) == 8

    def no_snf(*args, **kwargs):
        raise AssertionError("the replay reached a Smith normal form")

    monkeypatch.setattr(subgrp, "smith_normal_form", no_snf)
    for cert in certs:
        assert subgrp.verify_certificate(
            subgrp.Certificate.from_json_dict(cert)) == (True, "ok")


def _log_entry(result, rank, word):
    return next(e for e in result.ranks[rank - 1].log if e["word"] == word)


def _bump_witness(result):
    cert = _log_entry(result, 4, "aB")["certificate"]
    cert["value"] += 1


def _borrow_certificate(result):
    # a valid certificate, but for aB at rank 4, not for ab at rank 3
    _log_entry(result, 3, "ab")["certificate"] = \
        _log_entry(result, 4, "aB")["certificate"]


def _wrong_order(result):
    entry = _log_entry(result, 2, "a")
    assert entry["order"] == 3
    entry["order"] = 2


def _filter_an_infinite_word(result):
    # in the rank-2 stage <a, b | a^3>, b has infinite order
    result.ranks[1].log.append({"word": "b", "filtered": "proper-power"})


@pytest.mark.parametrize("tamper, problems", [
    (_wrong_order, [("a", 2, "could not re-prove order 2"),
                    ("a", 2, "terminal realization order 3 != 2")]),
    (_bump_witness, [("aB", 4, "certificate replay failed: "
                               "value mismatch: f.v is 2, not 3")]),
    (_borrow_certificate, [("ab", 3, "certificate replay failed: "
                                     "it is for another word or stage")]),
    (_filter_an_infinite_word,
     [("b", 2, "filtered word got infinite, expected finite")]),
])
def test_audit_catches_a_tampered_log(tamper, problems):
    res = copy.deepcopy(_tower_2_3())
    tamper(res)
    audit = tower.audit_tower(res, tower.Budgets())
    assert [(d["word"], d["stage_rank"], d["problem"])
            for d in audit["disagreements"]] == problems
    assert audit["agreement"] == f"{len(problems)} disagreement(s)"


def test_audit_falls_back_to_the_stage_enumeration(monkeypatch):
    # the last rank logs aB as finite by a 300-step completion; the audit's
    # completion stops at 200 steps and does not reduce aB^3, so only the
    # fresh stage's closure, under the audit's stage_max_cosets, can
    # re-prove the order
    run = tower.Budgets(stage_max_cosets=10, kb_max_steps=300,
                        max_candidates=6)
    res = tower.run_tower(2, 3, run)
    assert _log_entry(res, 5, "aB") == {
        "word": "aB", "verdict": "finite", "order": 3,
        "strategy": "kb-power"}
    short = replaced(run, kb_max_steps=200)
    ctx = oracle.StageContext(tower_presentation(2, 3, res.periods), short)
    assert ctx.kb().reduce(parse_word("aB", 2) * 3) != ()
    # ten cosets do not close the order-27 stage
    assert [(d["word"], d["problem"])
            for d in tower.audit_tower(res, short)["disagreements"]] == [
        ("aB", "could not re-prove order 3")]
    calls = count_enumerations(monkeypatch)
    audit = tower.audit_tower(
        res, replaced(short, stage_max_cosets=100))
    assert audit["agreement"] == "100%"
    assert calls == [100]  # the infinite stages of ranks 1-4 never enumerate
    assert sum(audit["checks"].values()) == sum(len(r.log) for r in res.ranks)


@pytest.mark.parametrize("stage, calls", [
    (10, [10]),
    (20, [20]),
    (25, [25]),
])
def test_oracle_reuses_an_exhausted_stage_enumeration(monkeypatch, stage,
                                                      calls):
    # B(2,3) has 27 elements and a 300-step completion is not confluent,
    # so the rank-5 stage stays open under every budget here. The oracle
    # must read that one open closure: an oracle that closed the stage
    # under a budget of its own would log Finite "coset-closure" verdicts
    # for a stage the tower left open, and halt on the candidate budget
    seen = count_enumerations(monkeypatch)
    res = tower.run_tower(2, 3, tower.Budgets(stage_max_cosets=stage,
                                              kb_max_steps=300))
    assert seen == calls
    last = res.ranks[-1]
    assert (last.rank, last.kind) == (5, "inconclusive")
    assert not any(e.get("strategy") == "coset-closure" for e in last.log)
    assert last.note == "oracle returned Unknown for abaB"
    assert last.unknown_evidence["attempts"][0] == {
        "strategy": "coset-closure",
        "reason": f"stage enumeration exhausted at {stage} cosets"}


def test_long_cyclic_stage_closes_by_coset_closure():
    # a^400 is longer than kb_max_len, so completion cannot be confluent
    # and the stage enumeration closes the rank
    res = tower.run_tower(1, 400)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    closure = res.ranks[-1].closure
    assert closure["method"] == "coset-closure"
    assert closure["order"] == res.order == 400
    assert tower.audit_tower(res, tower.Budgets())["agreement"] == "100%"


def test_audit_skips_a_rank_that_never_scanned():
    # the second rank halts on its relator a^(2^48), which is over
    # max_relator_letters; the audit must not build that stage either
    t0 = time.monotonic()
    res = tower.run_tower(1, 2**48)
    assert res.period_texts() == ["a"]
    assert res.ranks[-1].log == []
    audit = tower.audit_tower(res, tower.Budgets())
    assert time.monotonic() - t0 < 10
    assert audit["agreement"] == "100%"
    assert sum(audit["checks"].values()) == len(res.ranks[0].log)


@pytest.mark.parametrize("k, periods, cursor", [
    (1, ["a"], "a"),
    (2, ["a"], "A"),
    (3, ["a", "b"], "b"),
    (4, ["a", "b"], "aa"),
    (5, ["a", "b", "ab"], "ab"),
])
def test_candidate_budget_is_exact(k, periods, cursor):
    res = tower.run_tower(2, 3, budgets=tower.Budgets(max_candidates=k))
    assert res.status is TowerStatus.ORACLE_INCONCLUSIVE
    assert res.period_texts() == periods
    halted = res.ranks[-1]
    assert halted.kind == "inconclusive"
    assert halted.examined == k
    assert res.checkpoint["cursor"] == cursor
    assert res.checkpoint["partial_log"][-1]["word"] == cursor
    resumed = tower.run_tower(2, 3, resume=json.loads(json.dumps(
        res.checkpoint)))
    assert resumed.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert resumed.period_texts() == ["a", "b", "ab", "aB"]
    assert resumed.order == 27


def test_normal_form_fallback_realizes_the_stage():
    # ten cosets cannot close the order-27 enumeration, so the terminal
    # stage is realized from the confluent system's normal forms instead
    b = tower.Budgets(stage_max_cosets=10)
    res = tower.run_tower(2, 3, b)
    closure = res.ranks[-1].closure
    assert closure["cross_check"] == "enumeration exhausted at 10"
    assert closure["order"] == res.order == 27
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    default = tower.run_tower(2, 3)
    assert default.ranks[-1].closure["cross_check"] == "coset-closure"

    def order_of_rep(r):
        return {w: r.element_orders[c] for c, w in enumerate(r.reps)}

    assert order_of_rep(res.realization) == order_of_rep(default.realization)
    assert tower.audit_tower(res, b)["agreement"] == "100%"


def test_run_tower_accepts_only_one_job():
    with pytest.raises(ValueError, match="jobs"):
        tower.run_tower(2, 2, jobs=2)


def test_report_shape():
    b = small_budgets()
    res = tower.run_tower(2, 2, budgets=b)
    rep = tower.build_report(res, b, audit=tower.audit_tower(res, b))
    assert rep["schema"] == tower.REPORT_SCHEMA
    assert rep["config"]["m"] == 2 and rep["config"]["n"] == 2
    assert rep["status"] == "terminated-equals-burnside"
    assert rep["result"]["order"] == 4
    assert rep["result"]["exponent_divides_n"]
    assert rep["verification"]["period_orders"]["status"] == "ok"
    assert rep["verification"]["independence"]["status"] == "ok"
    assert rep["audit"]["agreement"] == "100%"
    # semantic report carries no wall-clock facts; those belong to the CLI
    assert "execution" not in rep
    text = tower.report_to_json(rep)
    assert text.endswith("\n")
    json.loads(text)


def test_stages_proved_infinite_run_no_full_completion(monkeypatch):
    # ranks 1-4 of the n=3 tower are proved infinite by their quotients
    # (rank 4 is the triangle group, which no completion to max_len 64
    # finishes); their words are certified or reduced by the seed rules of
    # their own relators, in the scan and in the audit, so only the finite
    # rank-5 stage completes, in full
    calls = count_completions(monkeypatch)
    res = tower.run_tower(2, 3)
    assert calls == [(5, 64, 1_000_000, 1674)]
    calls.clear()
    assert tower.audit_tower(res, tower.Budgets())["agreement"] == "100%"
    assert calls == []


def test_n4_stages_pin_aaB_with_the_capped_completion(monkeypatch):
    # of the n=4 tower's stages, all proved infinite up to rank 6, only
    # rank 6 has a word (aaB) its seed rules do not pin, and the capped
    # completion pins it, in the scan and in the audit
    calls = count_completions(monkeypatch)
    res = tower.run_tower(2, 4, tower.Budgets(max_ranks=6))
    assert [o.rank for o in res.ranks] == [1, 2, 3, 4, 5, 6]
    assert calls == [(6, 16, 1_000, 1002)]
    calls.clear()
    assert tower.audit_tower(res, tower.Budgets())["agreement"] == "100%"
    assert calls == [(6, 16, 1_000, 1002)]


def test_verdicts_do_not_depend_on_the_order_of_questions():
    # a word's verdict is the first pinned hit along a stage's fixed tiers,
    # so asking a stage's logged words in another order, in a fresh
    # context, gives the verdicts the scan logged
    res = tower.run_tower(2, 4, tower.Budgets(max_ranks=6))
    rng = random.Random(20)
    for outcome in res.ranks:
        p = tower_presentation(2, 4, res.periods[:outcome.rank - 1])
        assert oracle.StageContext(p).tiered()
        logged = [e for e in outcome.log if "filtered" not in e]
        shuffled = logged[:]
        rng.shuffle(shuffled)
        for order in (logged[::-1], shuffled):
            ctx = oracle.StageContext(p)
            for entry in order:
                v = oracle.element_order(ctx, parse_word(entry["word"], 2))
                assert v.log_entry(entry["word"]) == entry


# --- the helper process -----------------------------------------------------


def helper_starts(monkeypatch) -> list:
    """Record (stage rank, budget) of each Prefetch.start."""
    starts = []
    start = cosets.Prefetch.start

    def recorded(self, p, max_cosets):
        starts.append((len(p.relators) + 1, max_cosets))
        start(self, p, max_cosets)

    monkeypatch.setattr(cosets.Prefetch, "start", recorded)
    return starts


def tower_report(m, n, budgets, resume=None) -> str:
    res = tower.run_tower(m, n, budgets, resume=copy.deepcopy(resume))
    return tower.report_to_json(tower.build_report(res, budgets,
                                                  verifications=False))


def report_without_helper(monkeypatch, m, n, budgets, resume=None) -> str:
    with monkeypatch.context() as patch:
        patch.setattr(cosets.Prefetch, "start", lambda *args: None)
        return tower_report(m, n, budgets, resume)


STRETCH_2_4 = dict(stage_max_cosets=5000)  # rank 7 exhausts it quickly


def forked_ranks(forks) -> list:
    return [len(p.relators) + 1 for p in forks]


IN_PROCESS = cosets.IN_PROCESS_DEFINITIONS


@pytest.mark.parametrize("n, budgets, starts, forks, runs", [
    # the rank-5 stage, the first the probe cannot prove infinite, closes
    # within the helper's in-process run, which serves the census
    (3, {}, [(5, 100_000)], [], [IN_PROCESS]),
    # rank 7 outgrows it and reads the table of the child it forked
    (4, STRETCH_2_4, [(7, 5000)], [7], [IN_PROCESS]),
    # the run halts at rank 3, on its candidate budget
    (3, dict(max_candidates=3), [], [], []),
    # the run stops at rank 5, before the stage the helper would enumerate
    (4, dict(STRETCH_2_4, max_ranks=5), [], [], []),
])
def test_helper_leaves_the_report_unchanged(n, budgets, starts, forks, runs,
                                            monkeypatch):
    budgets = tower.Budgets(**budgets)
    want = report_without_helper(monkeypatch, 2, n, budgets)
    started = helper_starts(monkeypatch)
    forked = count_forks(monkeypatch)
    felsch = count_felsch_runs(monkeypatch)
    assert tower_report(2, n, budgets) == want
    assert (started, forked_ranks(forked), felsch) == (starts, forks, runs)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (1, 5), (1, 7)])
def test_desk_scale_towers_fork_nothing(m, n, monkeypatch):
    # their closing stages, of 4, 27, 8, 5 and 7 elements, close within
    # the helper's in-process run
    started = helper_starts(monkeypatch)
    forked = count_forks(monkeypatch)
    res = tower.run_tower(m, n)
    assert res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE
    assert started and forked == []


def test_resumed_run_starts_the_helper_at_its_open_stage(monkeypatch):
    cp = tower.run_tower(2, 4, small_budgets(max_candidates=2)).checkpoint
    assert (cp["periods"], cp["cursor"]) == (["a"], "A")
    budgets = tower.Budgets(**STRETCH_2_4)
    want = report_without_helper(monkeypatch, 2, 4, budgets, cp)
    started = helper_starts(monkeypatch)
    forked = count_forks(monkeypatch)
    felsch = count_felsch_runs(monkeypatch)
    assert tower_report(2, 4, budgets, cp) == want
    assert (started, forked_ranks(forked), felsch) == \
        ([(7, 5000)], [7], [IN_PROCESS])


def test_a_raising_rank_reaps_the_helper(monkeypatch):
    started = helper_starts(monkeypatch)
    kb = oracle.StageContext.kb

    def fails_at_rank_7(ctx):
        if len(ctx.presentation.relators) == 6:
            raise RuntimeError("rank 7")
        return kb(ctx)

    # the rank-7 completion runs after the helper starts on its stage
    monkeypatch.setattr(oracle.StageContext, "kb", fails_at_rank_7)
    with pytest.raises(RuntimeError, match="rank 7"):
        tower.run_tower(2, 4, tower.Budgets(**STRETCH_2_4))
    assert started == [(7, 5000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_helper_leaves_the_stage_to_the_parent(monkeypatch):
    # rank 7 of (2,4) outgrows the helper's in-process run, so it forks
    budgets = tower.Budgets(**STRETCH_2_4)
    want = report_without_helper(monkeypatch, 2, 4, budgets)
    fail_in_children(monkeypatch)
    started = helper_starts(monkeypatch)
    forked = count_forks(monkeypatch)
    felsch = count_felsch_runs(monkeypatch)
    assert tower_report(2, 4, budgets) == want
    # the helper's in-process run, then the parent's own
    assert (started, forked_ranks(forked), felsch) == \
        ([(7, 5000)], [7], [IN_PROCESS, 5000])
