"""Order-of-element oracle: cascade of strategies, evidence, certificates."""

import pytest

from burnside import oracle, rewrite, tower
from burnside.presentation import TowerStatus, parse_presentation
from burnside.subgrp import abelian_invariants, verify_certificate
from burnside.words import parse_word
from support import count_completions, count_enumerations


def P(text):
    return parse_presentation(text)


ZSQ = "gens 2\nrel aa\n"  # Z2 * Z
TRIANGLE = "gens 2\nrel aaa\nrel bbb\nrel ababab\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
DINF = "gens 2\nrel aa\nrel bb\n"


def order_of(text, word, budgets=None):
    ctx = oracle.StageContext(P(text), budgets)
    return oracle.element_order(ctx, parse_word(word, 2))


def test_trivial_word():
    v = oracle.element_order(oracle.StageContext(P(B23)), ())
    assert v.finite and v.order == 1
    assert v.evidence["strategy"] == "trivial-word"


def test_free_product_orders():
    # <a, b | a^2>: a has order 2, b is free of infinite order
    v = order_of(ZSQ, "a")
    assert v.finite and v.order == 2
    v = order_of(ZSQ, "b")
    assert v.infinite
    assert v.certificate is not None
    ok, reason = verify_certificate(v.certificate)
    assert ok, reason


def test_triangle_group_split():
    # (3,3,3) triangle group: ab has order 3, aB acts as a translation
    v = order_of(TRIANGLE, "ab")
    assert v.finite and v.order == 3
    v = order_of(TRIANGLE, "aB")
    assert v.infinite
    ok, reason = verify_certificate(v.certificate)
    assert ok, reason


def test_finite_stage_uses_closure():
    v = order_of(B23, "aB")
    assert v.finite and v.order == 3
    assert v.evidence["strategy"] == "coset-closure"
    assert v.evidence["group_order"] == 27


def test_a_corrupt_normal_form_table_is_refused(monkeypatch):
    # ten cosets do not close B(2,3), so its normal forms realize it; with
    # the product 1.a read as b, a relator moves a coset
    ctx = oracle.StageContext(P(B23), oracle.Budgets(stage_max_cosets=10))
    system = ctx.kb()
    a, b = parse_word("a", 2), parse_word("b", 2)
    reduce = system.reduce
    monkeypatch.setattr(system, "reduce", lambda w: b if w == a else reduce(w))
    with pytest.raises(AssertionError, match="relator does not stabilize"):
        ctx.closure()


def test_infinite_stage_skips_closure():
    ctx = oracle.StageContext(P(DINF))
    probe = ctx.infiniteness()
    assert probe is not None
    assert probe["probe"] == "kernel-abelianization-free-rank"
    assert ctx.infiniteness() is probe  # memoized, so the cascade reuses it
    v = oracle.element_order(ctx, parse_word("ab", 2))
    assert v.infinite
    # closure was skipped with a recorded reason, not attempted and failed
    # (evidence lives on unknown verdicts; here the certificate resolves it)
    ok, _ = verify_certificate(v.certificate)
    assert ok


def test_a_finite_completion_with_an_infinite_language_is_infinite(
        monkeypatch):
    # A5 * A5 has a finite abelianization and no free kernel rank in its
    # ladder, but its confluent system's normal forms run round a cycle
    ctx = oracle.StageContext(P("gens 4\nrel aa\nrel bbb\nrel ababababab\n"
                                "rel cc\nrel ddd\nrel cdcdcdcdcd\n"))
    enumerations = count_enumerations(monkeypatch)
    assert ctx.infiniteness() == {"probe": "normal-form-automaton-cycle",
                                  "rules": 36}
    assert ctx.closure() is None and enumerations == []
    v = oracle.element_order(ctx, parse_word("ac", 4))
    assert v.kind == "unknown" and v.evidence["strategy"] == "exhausted"


def test_verdict_log_entry_shape():
    v = order_of(B23, "ab")
    entry = v.log_entry("ab")
    assert entry["word"] == "ab"
    assert entry["verdict"] == "finite"
    assert entry["order"] == 3
    assert "strategy" in entry
    v = order_of(DINF, "ab")
    entry = v.log_entry("ab")
    assert entry["verdict"] == "infinite"
    assert "certificate" in entry


def test_unknown_is_contagious_not_invented():
    # six fourth-power relators leave a group the desk budgets cannot
    # decide; the oracle must admit that rather than guess
    rels = "\n".join("rel " + w * 4
                     for w in ("a", "b", "ab", "aB", "aab", "abb"))
    p = P("gens 2\n" + rels + "\n")
    b = oracle.Budgets(stage_max_cosets=2000, kb_max_steps=20000)
    v = oracle.element_order(oracle.StageContext(p, b), parse_word("aabb", 2),
                             n_hint=4)
    assert v.kind == "unknown"
    attempts = v.evidence["attempts"]
    names = [a["strategy"] for a in attempts]
    assert "coset-closure" in names
    assert "kb-power" in names
    assert "kernel-certificate" in names


def test_kb_power_strategy_on_small_budget():
    # a stage that neither closes within five cosets nor completes within
    # 200 steps falls through to the power trace, pinned by the quotient
    b = oracle.Budgets(stage_max_cosets=5, kb_max_steps=200)
    ctx = oracle.StageContext(P(B23), b)
    v = oracle.element_order(ctx, parse_word("ab", 2))
    assert ctx.closure() is None
    assert v.finite and v.order == 3
    assert v.evidence["strategy"] == "kb-power"
    assert v.evidence["exactness"] == "quotient-match"


def test_n_hint_extends_power_search():
    # without the hint the power search stops too early for order 5
    p = P("gens 1\nrel aaaaa\n")
    v = oracle.element_order(oracle.StageContext(p), parse_word("a", 1),
                             n_hint=5)
    assert v.finite and v.order == 5


def test_stage_context_caches_are_reused(monkeypatch):
    calls = count_enumerations(monkeypatch)
    ctx = oracle.StageContext(P(B23))
    v1 = oracle.element_order(ctx, parse_word("a", 2))
    v2 = oracle.element_order(ctx, parse_word("ab", 2))
    assert v1.order == 3 and v2.order == 3
    assert ctx.closure()[1]["order"] == 27
    # one enumeration serves both words, with headroom near the census
    # order: 20 * 27 + 1000 cosets
    assert calls == [1540]


def test_infinite_stage_needs_no_warm_up(monkeypatch):
    # the cascade runs the stage's infiniteness probe itself, so an
    # infinite stage never enumerates, even on a context's first question
    calls = count_enumerations(monkeypatch)
    v = oracle.element_order(oracle.StageContext(P(DINF)), parse_word("ab", 2))
    assert v.infinite
    assert calls == []


# --- the capped tiers of a stage the quotients prove infinite ---------------

CAPPED = (16, 100_000)  # max_len, max_steps
FULL = (oracle.Budgets().kb_max_len, oracle.Budgets().kb_max_steps)
QUOTIENT_MATCH_3 = {"strategy": "kb-power", "exactness": "quotient-match",
                    "quotient_order_lcm": 3}


def test_a_pinned_capped_hit_needs_no_full_completion(monkeypatch):
    # the triangle group is proved infinite by its quotients, and no
    # completion of it turns confluent within the default budgets
    calls = count_completions(monkeypatch)
    ctx = oracle.StageContext(P(TRIANGLE))
    # (ab)^3 reduces by a seed rule of its relator, and aB is certified
    assert oracle.element_order(ctx, parse_word("ab", 2)).evidence == \
        QUOTIENT_MATCH_3
    v = oracle.element_order(ctx, parse_word("aB", 2))
    assert v.infinite and v.evidence["strategy"] == "kernel-certificate"
    assert calls == []
    # (abaB)^3 needs derived rules: the completion runs to its first mark
    # and no further
    v = oracle.element_order(ctx, parse_word("abaB", 2))
    assert (v.order, v.evidence) == (3, QUOTIENT_MATCH_3)
    assert calls == [(4, *CAPPED, 1000)]
    assert oracle.element_order(ctx, parse_word("ab", 2)).order == 3
    assert calls == [(4, *CAPPED, 1000)]


def test_an_unpinned_capped_hit_falls_through_to_the_full_completion(
        monkeypatch):
    calls = count_completions(monkeypatch)
    ctx = oracle.StageContext(P(TRIANGLE))
    tiers = list(ctx.capped_tiers())
    # tier 0, the completion at its first mark, and its end
    assert [t.stats.get("steps") for t in tiers] == [None, 1000, 2921]
    assert not tiers[-1].confluent
    assert calls == [(4, *CAPPED, 2921)]
    trace = rewrite.finite_order_by_powers
    traced = []

    def doubled(system, w, n_max):  # a hit the quotients cannot pin
        traced.append(system)
        d = trace(system, w, n_max)
        tier = any(system is t for t in tiers)
        return 2 * d if tier and d is not None else d

    monkeypatch.setattr(rewrite, "finite_order_by_powers", doubled)
    v = oracle.element_order(ctx, parse_word("ab", 2))
    # every tier is traced in order, the certificates find nothing, and
    # the full completion decides as it did without the tiers
    assert (v.kind, v.order, v.evidence) == ("finite", 3, QUOTIENT_MATCH_3)
    assert traced == [*tiers, ctx.kb()]
    assert calls == [(4, *CAPPED, 2921), (4, *FULL, 29417)]


def test_a_confluent_capped_completion_is_the_full_one(monkeypatch):
    # <a, b | aB> (Z, with a = b) completes within the cap, before the
    # first mark; Ba is trivial, but its seed rules leave Ba^d reducible
    # only to Ba, so only the end of the capped completion reduces it, and
    # that end is the very system kb() returns
    text = "gens 2\nrel aB\n"
    full = rewrite.complete_presentation(P(text))
    calls = count_completions(monkeypatch)
    ctx = oracle.StageContext(P(text))
    v = oracle.element_order(ctx, parse_word("Ba", 2))
    tiers = list(ctx.capped_tiers())
    assert [t.stats.get("steps") for t in tiers] == [None, 86]
    assert tiers[-1] is ctx.kb() and ctx.kb().confluent
    assert calls == [(2, *CAPPED, 86)]
    assert (v.kind, v.order, v.evidence) == ("finite", 1, {
        "strategy": "kb-power", "exactness": "confluent-reduction",
        "rules": len(full.rules)})
    assert (ctx.kb().rules, ctx.kb().stats) == (full.rules, full.stats)


@pytest.mark.parametrize("budgets, completion", [
    (dict(kb_max_len=16), (16, FULL[1], 2921)),
    (dict(kb_max_steps=100_000), (FULL[0], 100_000, 29417)),
    (dict(kb_max_len=15, kb_max_steps=99_999), (15, 99_999, 2645)),
])
def test_no_capped_completion_at_or_under_the_cap(budgets, completion,
                                                   monkeypatch):
    calls = count_completions(monkeypatch)
    ctx = oracle.StageContext(P(TRIANGLE), oracle.Budgets(**budgets))
    v = oracle.element_order(ctx, parse_word("ab", 2))
    assert list(ctx.capped_tiers()) == [] and not ctx.tiered()
    assert v.order == 3
    assert calls == [(4, *completion)]  # the budgets' own completion only


def test_no_capped_completion_unless_the_quotients_prove_infinite():
    # B(2,3) is finite: its quotients prove nothing, so the cascade is the
    # one for every stage, and the census closes it
    ctx = oracle.StageContext(P(B23))
    assert oracle.element_order(ctx, parse_word("ab", 2)).order == 3
    assert list(ctx.capped_tiers()) == [] and not ctx.tiered()


def test_tier_0_keeps_only_seed_rules_within_the_cap():
    # every split of a^2000 has an lhs of at least 1000 letters, so tier
    # 0 of <a, b | a^2000> is free cancellation alone, and the capped
    # completion stops at its first rule over the cap
    p = P("gens 2\nrel " + "a" * 2000 + "\n")
    ctx = oracle.StageContext(p)
    assert ctx.tiered()
    tier0, end = ctx.capped_tiers()
    assert tier0.rules == rewrite.cancellation_rules(2)
    assert max(len(lhs) for lhs, _ in end.rules) <= oracle.CAPPED_MAX_LEN
    assert end.stats["budget_hit"] == "max_len"
    # a word of the stage still gets its certificate first
    assert oracle.element_order(ctx, parse_word("b", 2)).infinite


def test_capped_tiers_are_kept_and_shared(monkeypatch):
    # a second reader of the tiers sees the same systems, and reading
    # again advances nothing
    calls = count_completions(monkeypatch)
    ctx = oracle.StageContext(P(TRIANGLE))
    first = ctx.capped_tiers()
    tier0 = next(first)
    assert calls == []
    again = list(ctx.capped_tiers())
    assert again[0] is tier0 and [next(first), next(first)] == again[1:]
    assert next(first, None) is None
    assert list(ctx.capped_tiers()) == again
    assert calls == [(4, *CAPPED, 2921)]


@pytest.mark.parametrize("field, value", [
    ("stage_max_cosets", -1),
    ("max_candidates", 0),
    ("max_ranks", True),
    ("kb_max_len", 2.0),
    ("independence_candidates", -1),
])
def test_budgets_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        oracle.Budgets(**{field: value})


def test_records_compare_by_value_and_own_their_defaults():
    a, b = oracle.OrderVerdict("unknown"), oracle.OrderVerdict("unknown")
    assert a == b and a.evidence is not b.evidence
    assert a != oracle.OrderVerdict("unknown", evidence={"strategy": "x"})
    r, s = (tower.RankOutcome("closed", 1, []) for _ in range(2))
    assert r == s and r.log is not s.log
    t, u = (tower.TowerResult(1, 1, TowerStatus.STALLED_DIVERGENT, (), [])
            for _ in range(2))
    assert t == u and t.notes is not u.notes
    assert {P(B23): 1}[P(B23)] == 1 and P(B23) != P(DINF)
    assert hash(abelian_invariants(P(B23))) == \
        hash(abelian_invariants(P("gens 2\nrel aaa\nrel bbb\nrel abAB\n")))
    assert oracle.Budgets(stage_max_cosets=7) == \
        oracle.Budgets(**{**oracle.Budgets().to_dict(), "stage_max_cosets": 7})
    with pytest.raises(TypeError, match="oracle_max_cosets"):
        oracle.Budgets(oracle_max_cosets=7)


def test_budgets_floors_and_env(monkeypatch):
    assert oracle.Budgets(independence_candidates=0).independence_candidates == 0
    monkeypatch.setenv("BURNSIDE_MAX_RANKS", "7")
    b = oracle.Budgets.from_env(max_candidates=9)
    assert (b.max_ranks, b.max_candidates) == (7, 9)
    monkeypatch.setenv("BURNSIDE_MAX_RANKS", "seven")
    with pytest.raises(ValueError, match="BURNSIDE_MAX_RANKS"):
        oracle.Budgets.from_env()
