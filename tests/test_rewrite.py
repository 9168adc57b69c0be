"""Knuth-Bendix layer: seeding, completion, normal forms, order detector."""

import random

import pytest

from burnside import cosets, kernels, oracle, rewrite
from burnside.presentation import (
    Presentation,
    parse_presentation,
    tower_presentation,
)
from support import element_row, knuth_bendix_eager
from burnside.words import (
    format_word,
    free_reduce,
    parse_word,
    shortlex_key,
    shortlex_less,
)


def P(text):
    return parse_presentation(text)


def test_seed_rules_a_squared():
    system = rewrite.rules_from_presentation(P("gens 1\nrel aa\n"))
    rules = set(system.rules)
    assert ((0, 0), ()) in rules  # aa -> 1
    assert ((1,), (0,)) in rules  # A -> a, since a comes first in shortlex


def test_seed_rules_free_group():
    system = rewrite.rules_from_presentation(Presentation(2, ()))
    # cancellation only: xX -> 1 for all four letters
    assert set(system.rules) == {
        ((0, 1), ()), ((1, 0), ()), ((2, 3), ()), ((3, 2), ())}


def test_seed_orientation_abab():
    # relator abab splits into ab = (ab)^-1 = BA; the rule must point
    # from the shortlex-larger side down: BA -> ab, never ab -> BA
    system = rewrite.rules_from_presentation(P("gens 2\nrel abab\n"))
    ba_rule = [(l, r) for l, r in system.rules if l == (3, 1)]
    assert ba_rule == [((3, 1), (0, 2))]
    assert all(shortlex_less(r, l) for l, r in system.rules)


def test_rule_invariant_after_completion():
    for text in ["gens 2\nrel aa\nrel bb\nrel abab\n",
                 "gens 2\nrel aaa\nrel bbb\nrel ababab\n",
                 "gens 2\nrel aa\nrel bb\n"]:
        system = rewrite.complete_presentation(P(text))
        assert all(shortlex_less(r, l) for l, r in system.rules)


def test_reduce_examples():
    klein = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\nrel abab\n"))
    assert klein.reduce(parse_word("abab", 2)) == ()
    assert klein.reduce(()) == ()
    dinf = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\n"))
    assert dinf.reduce(parse_word("aab", 2)) == parse_word("b", 2)


def test_klein_four_normal_forms():
    system = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\nrel abab\n"))
    assert system.confluent
    count, stabilized = rewrite.count_normal_forms(system, 10)
    assert (count, stabilized) == (4, True)
    nfs = {format_word(w, 2) for w in rewrite.normal_forms(system, 10)}
    assert nfs == {"1", "a", "b", "ab"}


def test_dinf_normal_forms_alternating():
    system = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\n"))
    assert system.confluent
    count, stabilized = rewrite.count_normal_forms(system, 6)
    assert (count, stabilized) == (13, False)
    # alternating words in a, b: cross-check the first 10 in shortlex
    # against brute force over raw strings of length <= 5
    brute = []

    def walk(w):
        if len(w) > 5:
            return
        if w:
            brute.append(w)
        for x in "ab":
            if not w or w[-1] != x:
                walk(w + x)

    walk("")
    brute = [""] + brute
    brute.sort(key=lambda s: (len(s), s))
    got = [format_word(w, 2) for w in rewrite.normal_forms(system, 5)]
    want = ["1" if s == "" else s for s in brute]
    assert got[:10] == want[:10]


def test_free_rank2_census():
    system = rewrite.knuth_bendix(
        rewrite.rules_from_presentation(Presentation(2, ())))
    assert system.confluent
    count, stabilized = rewrite.count_normal_forms(system, 2)
    assert (count, stabilized) == (17, False)
    assert rewrite.language_infinite(system)


def test_order27_normal_forms():
    system = rewrite.complete_presentation(
        P("gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"))
    assert system.confluent
    count, stabilized = rewrite.count_normal_forms(system, 20)
    assert (count, stabilized) == (27, True)


def test_count_rejects_nonconfluent():
    system = rewrite.rules_from_presentation(P("gens 2\nrel aa\nrel bb\n"))
    with pytest.raises(ValueError):
        rewrite.count_normal_forms(system, 4)


def test_language_infinite_vs_finite():
    klein = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\nrel abab\n"))
    assert not rewrite.language_infinite(klein)
    dinf = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\n"))
    assert rewrite.language_infinite(dinf)


def test_finite_order_by_powers():
    klein = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\nrel abab\n"))
    assert rewrite.finite_order_by_powers(klein, parse_word("ab", 2), 10) == 2
    assert rewrite.finite_order_by_powers(klein, (), 10) == 1
    dinf = rewrite.complete_presentation(P("gens 2\nrel aa\nrel bb\n"))
    assert rewrite.finite_order_by_powers(dinf, parse_word("ab", 2), 50) is None


def test_normal_form_equality_matches_cosets():
    # words of length <= 6 over the Klein presentation: NF equality must
    # agree with equality of coset actions
    p = P("gens 2\nrel aa\nrel bb\nrel abab\n")
    system = rewrite.complete_presentation(p)
    table = cosets.enumerate_cosets(p, (), 100)
    r = cosets.realize(table)

    all_words = [()]
    frontier = [()]
    for _ in range(6):
        nxt = []
        for w in frontier:
            for x in range(4):
                if w and x == (w[-1] ^ 1):
                    continue
                nxt.append(w + (x,))
        all_words.extend(nxt)
        frontier = nxt

    rows = {}
    for w in all_words:
        nf = system.reduce(w)
        row = element_row(r, w)
        if nf in rows:
            assert rows[nf] == row
        else:
            rows[nf] = row
    # distinct normal forms act distinctly
    assert len({tuple(v) for v in rows.values()}) == len(rows)


def test_soundness_random_relator_insertions():
    # inserting a conjugated relator anywhere never changes the normal form
    p = P("gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n")
    system = rewrite.complete_presentation(p)
    rng = random.Random(2024)
    relators = [list(r) for r in p.relators]
    for _ in range(200):
        w = []
        prev = None
        for _ in range(rng.randrange(0, 12)):
            x = rng.randrange(4)
            if prev is not None and x == prev ^ 1:
                continue
            w.append(x)
            prev = x
        base = tuple(w)
        rel = rng.choice(relators)
        rot = rng.randrange(len(rel))
        conj = rel[rot:] + rel[:rot]
        if rng.random() < 0.5:
            conj = [x ^ 1 for x in reversed(conj)]
        pos = rng.randrange(len(base) + 1)
        noisy = base[:pos] + tuple(conj) + base[pos:]
        assert system.reduce(noisy) == system.reduce(base)


def test_budget_exhaustion_is_status():
    p = P("gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n")
    system = rewrite.knuth_bendix(rewrite.rules_from_presentation(p),
                                  max_steps=40)
    assert not system.confluent
    assert system.stats["budget_hit"] == "max_steps"
    # the partial system is still sound: every rule is an equality in the
    # group, checked against the realized order-27 action
    table = cosets.enumerate_cosets(p, (), 5000)
    r = cosets.realize(table)
    for lhs, rhs in system.rules:
        assert element_row(r, lhs) == element_row(r, rhs)


# periods of the m=2 towers; for n=5 the first six that a run with
# kb_max_steps 20000 finds (any stage presentation serves here)
TOWER_PERIODS = {2: "a b ab", 3: "a b ab aB", 4: "a b ab aB aab abb",
                 5: "a b ab aB aab aaB"}


def _tower_stages():
    for n, texts in TOWER_PERIODS.items():
        periods = [parse_word(t, 2) for t in texts.split()]
        for k in range(len(periods) + 1):
            yield tower_presentation(2, n, periods[:k])


def _random_presentations(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 3)
        relators = []
        for _ in range(rng.randint(1, 5)):
            w = free_reduce(tuple(rng.randrange(2 * rank)
                                  for _ in range(rng.randint(1, 14))))
            if w:
                relators.append(w)
        yield Presentation(rank, tuple(relators))


def test_lazy_pairs_match_eager_completion():
    # a step budget of either parity lands inside pair generation (2 steps
    # per active rule) as well as at a pair pop
    budgets = [dict(max_steps=s) for s in (300, 301, 3000, 3001)]
    budgets += [dict(max_rules=40), dict(max_len=6)]
    hits = set()
    for p in [*_tower_stages(), *_random_presentations(40, 3)]:
        seed = rewrite.rules_from_presentation(p)
        for b in budgets:
            want = knuth_bendix_eager(seed, **b)
            got = rewrite.knuth_bendix(seed, **b)
            assert (got.rules, got.stats, got.confluent) == \
                (want.rules, want.stats, want.confluent), (p, b)
            hit = want.stats["budget_hit"]
            over = want.stats["steps"] - b["max_steps"] if "max_steps" in b \
                else None
            hits.add((hit, over if hit == "max_steps" else None))
    # overshooting by 2 only happens inside pair generation
    assert hits == {(None, None), ("max_steps", 1), ("max_steps", 2),
                    ("max_rules", None), ("max_len", None)}


def _read_at_marks(seed, marks, **budgets):
    """What a completion yields at marks, and the one system a
    knuth_bendix call at the same budgets returns: the last yield must be
    that system exactly, and every yield before it a partial system that
    passed its mark."""
    tiers = list(rewrite.completion(seed, marks, **budgets))
    want = rewrite.knuth_bendix(seed, **budgets)
    got = tiers[-1]
    assert (got.rules, got.stats, got.confluent) == \
        (want.rules, want.stats, want.confluent)
    steps = [tier.stats["steps"] for tier in tiers]
    assert steps == sorted(steps)
    pending = sorted(marks)
    for tier in tiers[:-1]:
        assert not tier.confluent and tier.stats["budget_hit"] is None
        assert pending and tier.stats["steps"] >= pending[0]
        pending = [mark for mark in pending if mark > tier.stats["steps"]]
    return tiers


def test_completion_read_at_the_oracle_marks_ends_as_one_call():
    # every stage of the n=3 and n=4 towers, at the oracle's cap; each
    # system read reduces every relator to 1
    for n in (3, 4):
        periods = [parse_word(t, 2) for t in TOWER_PERIODS[n].split()]
        for k in range(len(periods) + 1):
            p = tower_presentation(2, n, periods[:k])
            tiers = _read_at_marks(
                rewrite.rules_from_presentation(p), oracle.CAPPED_MARKS,
                max_len=oracle.CAPPED_MAX_LEN,
                max_steps=oracle.CAPPED_MAX_STEPS)
            assert len(tiers) == 1 + sum(
                mark <= tiers[-1].stats["steps"] for mark in oracle.CAPPED_MARKS)
            for tier in tiers:
                assert all(tier.reduce(r) == () for r in p.relators), (n, k)


def test_completion_read_at_dense_marks_ends_as_one_call():
    # a partial system need not reduce a relator to 1 (it is not
    # confluent, and the relator's own rule may be retired), but every rule
    # in it holds in the group: checked in each group that closes
    rng = random.Random(7)
    closed = 0
    for p in _random_presentations(200, 11):
        marks = rng.sample(range(1, 2000), 12)
        tiers = _read_at_marks(rewrite.rules_from_presentation(p), marks,
                               max_steps=2000)
        t = cosets.enumerate_cosets(p, (), 500)
        if not t.closed:
            continue
        closed += 1
        r = cosets.realize(t)
        for tier in tiers:
            for lhs, rhs in tier.rules:
                assert element_row(r, lhs) == element_row(r, rhs), p
    assert closed > 100


# transition rows each completion below may fill, 18,000 in all: a rule
# change drops only the rows it can alter (3,218, 4,903 and 5,909 rows
# are filled), where dropping every row refilled 359,724
MAX_ROW_FILLS = {5: 4000, 6: 6500, 7: 7500}


@pytest.mark.parametrize("rank, stats", [
    (5, (1002, 986, 1000001)),
    (6, (1090, 937, 1000002)),
    (7, (1193, 837, 1000002)),
])
def test_n4_stage_completion_stats(rank, stats, monkeypatch):
    fills = 0
    row = kernels.RuleAutomaton.row

    def counted(automaton, state):
        nonlocal fills
        before = len(automaton._rows)
        out = row(automaton, state)
        fills += len(automaton._rows) - before
        return out

    monkeypatch.setattr(kernels.RuleAutomaton, "row", counted)
    periods = [parse_word(t, 2) for t in TOWER_PERIODS[4].split()]
    system = rewrite.complete_presentation(
        tower_presentation(2, 4, periods[:rank - 1]))
    got = system.stats
    assert (got["rules_generated"], got["rules_active"], got["steps"]) == stats
    assert got["budget_hit"] == "max_steps"
    assert 0 < fills < MAX_ROW_FILLS[rank]


def test_completion_rank_is_bounded_by_the_code_points(monkeypatch):
    def cancellation(rank):
        raise AssertionError("seeded 2 * rank rules before the rank check")

    monkeypatch.setattr(rewrite, "cancellation_rules", cancellation)
    big = Presentation(rewrite.MAX_RANK + 1, ((0,),))
    # every seeding path checks the rank first, with the same message:
    # the oracle's tiers seed through rules_from_presentation directly
    for seed in (rewrite.complete_presentation,
                 rewrite.rules_from_presentation):
        with pytest.raises(ValueError, match=f"handles rank at most "
                                             f"{rewrite.MAX_RANK} "):
            seed(big)
    # a letter past the code points fails the rank check, not chr() in
    # the string shadows or the automaton's reversed paths
    y = 2 * rewrite.MAX_RANK + 1
    past = rewrite.RewritingSystem(rewrite.MAX_RANK + 1, [((y, y), ())])
    with pytest.raises(ValueError, match=f"handles rank at most "
                                         f"{rewrite.MAX_RANK} "):
        rewrite.knuth_bendix(past)
    with pytest.raises(ValueError, match="one code point per letter"):
        past.reduce((y,))
    # the last letter of the largest rank still has a code point
    x = 2 * rewrite.MAX_RANK - 1
    system = rewrite.knuth_bendix(
        rewrite.RewritingSystem(rewrite.MAX_RANK, [((x, x), ())]))
    assert system.confluent and system.rules == [((x, x), ())]

