"""Coset enumeration, realized finite groups, conjugacy, center."""

import dataclasses
import math
import os
import random
import time

import pytest

from burnside import cosets, oracle
from burnside.presentation import Presentation, parse_presentation
from support import (
    TwoSidedEnumerator,
    center_by_rows,
    count_felsch_runs,
    conjugacy_by_rows,
    element_row,
    fail_in_children,
    multiplication_table,
)
from burnside.words import (cyclic_reduce, format_word, free_reduce, invert,
                            parse_word, primitive_root)


def P(text):
    return parse_presentation(text)


KLEIN = "gens 2\nrel aa\nrel bb\nrel abab\n"
C5 = "gens 1\nrel aaaaa\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
DINF = "gens 2\nrel aa\nrel bb\n"
C12 = "gens 1\nrel " + "a" * 12 + "\n"
C60 = "gens 1\nrel " + "a" * 60 + "\n"
D6 = "gens 2\nrel aaaaaa\nrel bb\nrel abab\n"  # dihedral, order 12


def realized(text):
    return cosets.realize(cosets.enumerate_cosets(P(text), (), 5000))


def test_klein_trivial_subgroup():
    t = cosets.enumerate_cosets(P(KLEIN), (), 100)
    assert t.closed
    assert t.num_cosets == 4


def test_c5():
    t = cosets.enumerate_cosets(P(C5), (), 100)
    assert t.closed
    assert t.num_cosets == 5


def test_order_27():
    t = cosets.enumerate_cosets(P(B23), (), 5000)
    assert t.closed
    assert t.num_cosets == 27


def test_subgroup_index():
    # <a> in Klein four has index 2
    t = cosets.enumerate_cosets(P(KLEIN), [parse_word("a", 2)], 100)
    assert t.closed
    assert t.num_cosets == 2
    # <ab> in the order-27 group has order 3, index 9
    t = cosets.enumerate_cosets(P(B23), [parse_word("ab", 2)], 5000)
    assert t.closed
    assert t.num_cosets == 9


def test_infinite_group_exhausts():
    t = cosets.enumerate_cosets(P(DINF), (), 400)
    assert not t.closed
    assert t.status == "exhausted"
    assert t.rows is None


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        cosets.enumerate_cosets(P(KLEIN), (), 0)


def test_closed_table_is_sane():
    t = cosets.enumerate_cosets(P(B23), (), 5000)
    n = t.num_cosets
    for c in range(n):
        for x in range(4):
            d = t.rows[c][x]
            assert 0 <= d < n
            assert t.rows[d][x ^ 1] == c  # inverse edges match


def test_validation_rejects_a_table_a_relator_moves():
    p = P(B23)
    t = cosets.enumerate_cosets(p, (), 5000)
    rows = [row[:] for row in t.rows]
    # swap where cosets 1 and 2 go along a, keeping the table a permutation
    u, v = rows[1][0], rows[2][0]
    rows[1][0], rows[2][0], rows[u][1], rows[v][1] = v, u, 2, 1
    bad = cosets.CosetTable(rank=2, status="closed", num_cosets=27,
                            defined_total=27, rows=rows)
    moved = {c for c in range(27) if any(bad.trace(c, r) != c
                                         for r in p.relators)}
    assert 0 < len(moved) < 27
    cosets._validate_closed(p, t)
    with pytest.raises(AssertionError, match="stabilize"):
        cosets._validate_closed(p, bad)


def test_realization_orders():
    r = cosets.realize(cosets.enumerate_cosets(P(KLEIN), (), 100))
    assert r.element_order(parse_word("ab", 2)) == 2
    assert r.element_order(()) == 1
    assert r.exponent() == 2
    r27 = cosets.realize(cosets.enumerate_cosets(P(B23), (), 5000))
    assert r27.element_order(parse_word("aB", 2)) == 3
    assert r27.exponent() == 3
    # every nonidentity element of the exponent-3 group has order 3
    orders = {r27.element_order(r27.reps[c]) for c in range(1, 27)}
    assert orders == {3}
    # C60 has phi(d) elements of order d for each divisor d of 60
    c60 = realized(C60)
    assert sorted(c60.element_orders) == \
        sorted(60 // math.gcd(k, 60) for k in range(60))
    assert c60.exponent() == 60


def test_transversal_is_shortlex_minimal():
    r = cosets.realize(cosets.enumerate_cosets(P(B23), (), 5000))
    assert r.reps[0] == ()
    seen = set()
    for c in range(27):
        w = r.reps[c]
        assert r.eval_word(w) == c
        assert w not in seen
        seen.add(w)
    # reps are minimal: no strictly earlier word reaches the same coset
    from burnside.words import reduced_words, shortlex_less

    stream = reduced_words(2)
    reached = {(): 0}
    while len(reached) < 27:
        w = next(stream)
        c = r.eval_word(w)
        if c not in reached.values():
            reached[w] = c
    for w, c in reached.items():
        assert not shortlex_less(w, r.reps[c]) or w == r.reps[c]


def test_conjugacy_examples():
    klein = cosets.realize(cosets.enumerate_cosets(P(KLEIN), (), 100))
    yes, g = cosets.conjugacy_decide(klein, parse_word("a", 2),
                                     parse_word("b", 2))
    assert not yes and g is None
    yes, g = cosets.conjugacy_decide(klein, parse_word("a", 2),
                                     parse_word("a", 2))
    assert yes and g == ()
    r27 = cosets.realize(cosets.enumerate_cosets(P(B23), (), 5000))
    yes, g = cosets.conjugacy_decide(r27, parse_word("ab", 2),
                                     parse_word("ba", 2))
    assert yes
    assert format_word(g, 2) == "a"  # ba = a^-1 (ab) a in every group


def test_conjugacy_witness_verifies():
    r27 = cosets.realize(cosets.enumerate_cosets(P(B23), (), 5000))
    u, v = parse_word("ab", 2), parse_word("aab", 2)
    yes, g = cosets.conjugacy_decide(r27, u, v)
    if yes:
        w = free_reduce(invert(g) + u + g)
        assert element_row(r27, w) == element_row(r27, v)


def test_center_sizes():
    klein = cosets.realize(cosets.enumerate_cosets(P(KLEIN), (), 100))
    assert len(cosets.center(klein)) == 4  # abelian: everything central
    c5 = cosets.realize(cosets.enumerate_cosets(P(C5), (), 100))
    assert len(cosets.center(c5)) == 5
    r27 = cosets.realize(cosets.enumerate_cosets(P(B23), (), 5000))
    z = cosets.center(r27)
    assert len(z) == 3
    assert z[0] == ()  # identity listed first (shortlex order)


@pytest.mark.parametrize("text,order", [(KLEIN, 4), (B23, 27), (C5, 5),
                                        (C12, 12), (D6, 12)],
                         ids=["B(2,2)", "B(2,3)", "C5", "C12", "D(6)"])
def test_coset_zero_matches_full_rows(text, order):
    # center and conjugacy read at coset 0 against the whole-permutation
    # references, on every pair of elements
    r = realized(text)
    assert r.order == order
    assert cosets.center(r) == center_by_rows(r)
    for u in r.reps:
        for v in r.reps:
            assert cosets.conjugacy_decide(r, u, v) == \
                conjugacy_by_rows(r, u, v), (u, v)


def test_center_and_classes_of_d6():
    r = realized(D6)
    assert [format_word(w, 2) for w in cosets.center(r)] == ["1", "aaa"]
    class_reps = []
    for w in sorted(r.reps, key=lambda w: (len(w), w)):
        if not any(cosets.conjugacy_decide(r, u, w)[0] for u in class_reps):
            class_reps.append(w)
    # 1, r^3, {r, r^5}, {r^2, r^4} and two classes of reflections
    assert len(class_reps) == 6


@pytest.mark.parametrize("text", [C60, KLEIN, B23, D6],
                         ids=["C60", "B(2,2)", "B(2,3)", "D(6)"])
def test_element_orders_match_one_trace_per_element(text):
    r = realized(text)
    assert r.element_orders == [r.element_order(w) for w in r.reps]


def _buckets_by_every_rotation(p):
    # reference: every rotation of each relator and its inverse, by first
    # letter, duplicates dropped
    buckets = [[] for _ in range(p.num_symbols)]
    seen = set()
    for r in p.relators:
        for w in (r, invert(r)):
            for i in range(len(w)):
                rot = w[i:] + w[:i]
                if rot not in seen:
                    seen.add(rot)
                    buckets[rot[0]].append(rot)
    return buckets


def bucketed_words(enum):
    return [[conj[6] for conj in bucket] for bucket in enum.buckets]


def test_enumerator_buckets_one_rotation_per_period():
    p = P("gens 1\nrel " + "a" * 40000 + "\n")
    assert bucketed_words(cosets._Enumerator(p, 10)) == \
        [[(0,) * 40000], [(1,) * 40000]]


def test_enumerator_buckets_match_every_rotation():
    rng = random.Random(31)
    for _ in range(300):
        rank = rng.randint(1, 3)
        relators = []
        for _ in range(rng.randint(0, 4)):
            base = tuple(rng.randrange(2 * rank)
                         for _ in range(rng.randint(1, 5)))
            relators.append(base * rng.randint(1, 4))
        try:
            p = Presentation(rank, tuple(relators))
        except ValueError:  # a relator reduced to the empty word
            continue
        assert bucketed_words(cosets._Enumerator(p, 10)) == \
            _buckets_by_every_rotation(p), relators


def test_multiplication_table_is_group():
    r = cosets.realize(cosets.enumerate_cosets(P(KLEIN), (), 100))
    rows = multiplication_table(r)
    from burnside.dihedral import FiniteGroupTable

    FiniteGroupTable(rows, verify=True)  # raises if not a group


def test_csv_export_shape():
    t = cosets.enumerate_cosets(P(KLEIN), (), 100)
    text = cosets.export_csv(t)
    lines = [l for l in text.strip().splitlines() if l]
    assert len(lines) == 1 + 4  # header + one row per coset
    assert lines[0].split(",")[0] == "coset"


def test_defined_total_counts_collapses():
    # b^5 = b^6 = 1 forces b = 1 only through coincidences, so the
    # enumeration defines more cosets than survive
    t = cosets.enumerate_cosets(P("gens 2\nrel bbbbb\nrel bbbbbb\n"
                                  "rel babababa\n"), (), 5000)
    assert t.closed and t.num_cosets == 4
    assert t.defined_total > t.num_cosets


# the periods of the (2,3) and (2,4) towers, in the order they are found;
# a stage is presented by the n-th powers of a prefix
TOWER_PERIODS = {3: ("a", "b", "ab", "aB"),
                 4: ("a", "b", "ab", "aB", "aab", "abb")}
B24_WORDS = TOWER_PERIODS[4] + ("aabb", "abaB", "abAb")


def powers(words, n):
    return P("gens 2\n" + "".join(f"rel {w * n}\n" for w in words))


def enumerate_both(p, subgroup, max_cosets, monkeypatch):
    """The enumeration, checked against the row-layout, two-sided
    reference enumerator."""
    got = cosets.enumerate_cosets(p, subgroup, max_cosets)
    with monkeypatch.context() as m:
        m.setattr(cosets, "_Enumerator", TwoSidedEnumerator)
        want = cosets.enumerate_cosets(p, subgroup, max_cosets)
    assert (got.status, got.num_cosets, got.defined_total, got.rows) == \
        (want.status, want.num_cosets, want.defined_total, want.rows)
    return got


@pytest.mark.parametrize("n, k", [(3, k) for k in range(1, 5)]
                         + [(4, k) for k in range(1, 7)])
def test_one_sided_scan_matches_on_tower_stages(n, k, monkeypatch):
    t = enumerate_both(powers(TOWER_PERIODS[n][:k], n), (), 8000,
                       monkeypatch)
    assert t.closed == ((n, k) == (3, 4))


@pytest.mark.parametrize("subgroup", ["", "a", "ab", "a,b", "aB,abb"])
@pytest.mark.parametrize("n, words, order", [(3, TOWER_PERIODS[3], 27),
                                             (4, B24_WORDS, 4096)])
def test_one_sided_scan_matches_on_burnside_groups(n, words, order, subgroup,
                                                   monkeypatch):
    gens = [parse_word(g, 2) for g in subgroup.split(",") if g]
    t = enumerate_both(powers(words, n), gens, cosets.DEFAULT_MAX_COSETS,
                       monkeypatch)
    assert t.closed and order % t.num_cosets == 0


def random_power_presentation(rng, exponents=(2, 3, 4, 5)):
    rank = rng.choice((1, 2, 2, 3))
    relators = []
    count = rng.randint(1, 4)
    while len(relators) < count:
        base = tuple(rng.randrange(2 * rank) for _ in range(rng.randint(1, 4)))
        base = cyclic_reduce(free_reduce(base))[0]
        if base:
            relators.append(base * rng.choice(exponents))
    return Presentation(rank, tuple(relators))


def matches_on_random_presentations(rng, runs, exponents, budgets,
                                    monkeypatch):
    seen = set()
    for _ in range(runs):
        p = random_power_presentation(rng, exponents)
        subgroup = ()
        if rng.random() < 0.3:
            subgroup = (tuple(rng.randrange(p.num_symbols)
                              for _ in range(rng.randint(1, 3))),)
        t = enumerate_both(p, subgroup, rng.choice(budgets), monkeypatch)
        seen.add(t.status)
        if t.closed and t.defined_total > t.num_cosets:
            seen.add("coincidence")
    assert seen == {"closed", "exhausted", "coincidence"}


def test_one_sided_scan_matches_on_random_power_words(monkeypatch):
    matches_on_random_presentations(random.Random(13), 60, (2, 3, 4, 5),
                                    (200, 1000, 3000, 8000), monkeypatch)


def test_one_sided_scan_matches_on_random_short_words(monkeypatch):
    # most relators here are words of length 1 to 4 that are not powers
    matches_on_random_presentations(random.Random(17), 100, (1, 1, 1, 2, 3),
                                    (100, 400), monkeypatch)


# relators of length 1 to 3, all but aa not proper powers: a word shorter
# than 3 is scanned through identity steps, and a word of length 3 has no
# middle columns
SHORT_RELATORS = ["gens 1\nrel a\n", "gens 2\nrel ab\n",
                  "gens 2\nrel abb\n", "gens 2\nrel aab\nrel abbb\n",
                  "gens 3\nrel abc\n", "gens 2\nrel aa\nrel bab\n"]


@pytest.mark.parametrize("subgroup", ["", "a", "aa", "aaA", "Aa,a"])
@pytest.mark.parametrize("text", SHORT_RELATORS)
def test_one_sided_scan_matches_on_short_relators(text, subgroup,
                                                  monkeypatch):
    p = P(text)
    gens = [parse_word(g, p.rank) for g in subgroup.split(",") if g]
    enumerate_both(p, gens, 300, monkeypatch)


def naive_validation(p, t):
    """The closed-table check traced one coset and one letter at a time:
    the message of the first failed assertion, or None."""
    for r in p.relators:
        for c in range(t.num_cosets):
            d = c
            for x in r:
                d = t.rows[d][x]
            if d != c:
                return "relator does not stabilize a coset"
    for g in t.subgroup:
        d = 0
        for x in g:
            d = t.rows[d][x]
        if d != 0:
            return "subgroup generator moves coset 0"
    return None


def column_validation(p, t):
    try:
        cosets._validate_closed(p, t)
    except AssertionError as e:
        return str(e)
    return None


def corrupted(t, rng):
    """A copy of closed table t where two cosets swap their targets along
    one plain letter, so it stays a permutation table."""
    rows = [row[:] for row in t.rows]
    x = 2 * rng.randrange(t.rank)
    u, v = rng.sample(range(t.num_cosets), 2)
    rows[u][x], rows[v][x] = rows[v][x], rows[u][x]
    rows[rows[u][x]][x ^ 1], rows[rows[v][x]][x ^ 1] = u, v
    return dataclasses.replace(t, rows=rows)


def test_power_map_check_agrees_with_letter_by_letter_tracing():
    rng = random.Random(29)
    verdicts = []
    tables = 0
    while tables < 40:
        p = random_power_presentation(rng)
        subgroup = ()
        if rng.random() < 0.3:
            subgroup = (tuple(rng.randrange(p.num_symbols)
                              for _ in range(rng.randint(1, 3))),)
        t = cosets.enumerate_cosets(p, subgroup, 3000)
        if not t.closed:
            continue
        tables += 1
        assert column_validation(p, t) is naive_validation(p, t) is None
        if t.num_cosets > 1:
            bad = corrupted(t, rng)
            verdicts.append(naive_validation(p, bad))
            assert column_validation(p, bad) == verdicts[-1]
    # the corruptions are caught, apart from the odd harmless swap
    assert verdicts.count("relator does not stabilize a coset") > \
        len(verdicts) // 2


@pytest.mark.parametrize("n", [1, 1600])
def test_power_map_check_on_one_cycle(n):
    # <a | a^n>: the map of a raised to the n-th power by squaring; with
    # one coset the gathers read single entries
    p = P("gens 1\nrel " + "a" * n + "\n")
    t = cosets.enumerate_cosets(p, (), 2 * n)
    assert t.closed and t.num_cosets == n
    assert column_validation(p, t) is naive_validation(p, t) is None
    if n > 1:
        bad = corrupted(t, random.Random(n))
        assert column_validation(p, bad) == naive_validation(p, bad) == \
            "relator does not stabilize a coset"


def test_closed_table_with_a_gap_is_refused(monkeypatch):
    # a run that stops with a gap left must not pass as closed
    run = cosets._Enumerator.run

    def leaves_a_gap(self):
        run(self)
        self.cols[1][0] = -1

    monkeypatch.setattr(cosets._Enumerator, "run", leaves_a_gap)
    with pytest.raises(AssertionError, match="closed table has a gap"):
        cosets.enumerate_cosets(P(KLEIN), (), 100)


def test_exact_felsch_counts():
    t = cosets.enumerate_cosets(powers(B24_WORDS, 4))
    assert (t.status, t.num_cosets, t.defined_total) == ("closed", 4096, 5022)
    t = cosets.enumerate_cosets(powers(TOWER_PERIODS[4], 4), (), 20_000)
    assert (t.status, t.num_cosets, t.defined_total) == \
        ("exhausted", 19_802, 20_000)


def test_the_stretch_runs_rank_7_enumeration_is_pinned():
    # the one exhausting run on the (2,4) tower's critical path: the rank-7
    # stage at the default stage budget
    budget = oracle.Budgets().stage_max_cosets
    t = cosets.enumerate_cosets(powers(TOWER_PERIODS[4], 4), (), budget)
    assert (t.status, t.num_cosets, t.defined_total) == \
        ("exhausted", 98_539, 100_000)


@pytest.mark.parametrize("relator", ["a" * 40000, "ab" * 300 + "aab" * 200],
                         ids=["a^40000", "(ab)^300(aab)^200"])
def test_long_relator_setup_is_linear_per_conjugate(relator):
    # each conjugate's columns and its place among its rotations are built
    # without slicing the word once per position, which took about a
    # minute on each of these
    p = P("gens 2\nrel " + relator + "\n")
    start = time.process_time()
    enum = cosets._Enumerator(p, 10)
    assert time.process_time() - start < 1.0
    q = len(primitive_root(p.relators[0])[0])
    assert sum(map(len, bucketed_words(enum))) == 2 * q
    # and each holds at most two column references per letter, directly
    # or in a tuple of columns, so the memory stays 2 * q * len(relator)
    columns = {id(col) for col in enum.cols}
    is_column = columns.__contains__
    for conj in (conj for bucket in enum.buckets for conj in bucket):
        refs = 0
        for item in conj:
            if is_column(id(item)):
                refs += 1
            elif isinstance(item, tuple) and item and is_column(id(item[0])):
                refs += sum(map(is_column, map(id, item)))
        assert refs <= 2 * len(relator)


class ClosedCycleCheck(list):
    """A deduction stack that traces, on each pop, the conjugate the entry
    closed in full from its source and asserts that the cycle is closed:
    the premise on which the deduction scan skips that conjugate."""

    def __init__(self, enum):
        super().__init__()
        self.enum = enum
        self.checked = 0

    def pop(self):
        f, y, closed = super().pop()
        enum = self.enum
        if closed is not None and enum.p[f] == f:
            f1, fmid, flast, _, _, _, word, _, _ = closed
            assert word[0] == y
            c = enum.cols[y][f]
            for col in (f1, *fmid, flast):
                assert c != -1, (f, word)
                c = col[c]
            assert c == f, (f, word)
            self.checked += 1
        return f, y, closed


@pytest.mark.parametrize("n, k, budget", [(3, 4, 5000), (4, 4, 20_000)],
                         ids=["B(2,3)", "(2,4) rank 5"])
def test_a_deduced_entry_closes_the_conjugate_it_skips(n, k, budget,
                                                       monkeypatch):
    stacks = []

    class Checked(cosets._Enumerator):
        def __init__(self, p, max_cosets):
            super().__init__(p, max_cosets)
            self.deductions = ClosedCycleCheck(self)
            stacks.append(self.deductions)

    p = powers(TOWER_PERIODS[n][:k], n)
    want = cosets.enumerate_cosets(p, (), budget)
    monkeypatch.setattr(cosets, "_Enumerator", Checked)
    got = cosets.enumerate_cosets(p, (), budget)
    assert got == want
    assert len(stacks) == 1 and stacks[0].checked > 0


def test_coincidences_keep_every_live_entry(monkeypatch):
    # the deduction scan relies on this: a new edge's source keeps its
    # entry through every coincidence met while its conjugates are scanned
    coincidence = cosets._Enumerator.coincidence
    calls = []

    def entries(enum):
        return [(c, y, col[c]) for y, col in enumerate(enum.cols)
                for c in range(len(enum.p)) if enum.p[c] == c and col[c] != -1]

    def checked(enum, a, b):
        before = entries(enum)
        coincidence(enum, a, b)
        calls.append((a, b))
        for c, y, _ in before:
            assert enum.p[c] != c or enum.cols[y][c] != -1
        for c, y, d in entries(enum):
            assert enum.p[d] == d and enum.cols[y ^ 1][d] == c

    monkeypatch.setattr(cosets._Enumerator, "coincidence", checked)
    # coprime powers of one letter collapse whole cycles as they close
    t = cosets.enumerate_cosets(P("gens 2\nrel bbbbb\nrel bbbbbb\n"
                                  "rel babababa\n"), (), 300)
    assert (t.status, t.num_cosets, t.defined_total) == ("closed", 4, 40)
    t = cosets.enumerate_cosets(P("gens 2\nrel " + "b" * 10 + "\nrel bbb\n"),
                                (), 300)
    assert (t.status, t.num_cosets) == ("exhausted", 102)
    assert len(calls) > 100


def test_a_vacated_source_entry_stops_the_run(monkeypatch):
    # were a coincidence to clear the entry a deduction scan starts from,
    # the scan would read row -1; it asserts instead
    coincidence = cosets._Enumerator.coincidence

    def vacating(enum, a, b):
        coincidence(enum, a, b)
        enum.cols[0][0] = -1

    monkeypatch.setattr(cosets._Enumerator, "coincidence", vacating)
    with pytest.raises(AssertionError, match="vacated"):
        cosets.enumerate_cosets(P("gens 1\nrel a\nrel aa\n"), (), 10)


# --- Prefetch: an enumeration run ahead in a forked child ----------------

# closes at 4 cosets after 40 definitions
COLLAPSING = "gens 2\nrel bbbbb\nrel bbbbbb\nrel babababa\n"


@pytest.mark.parametrize("text, child, budget, reused", [
    (B23, 5000, 5000, True),        # the same run
    (B23, 5000, 27, True),          # closed within the smaller budget
    (B23, 5000, 26, False),         # closed, but over it
    (COLLAPSING, 100, 40, True),    # the budget counts definitions, not
    (COLLAPSING, 100, 39, False),   # the cosets left alive
    (DINF, 50, 50, True),           # exhausted at the same budget
    (DINF, 50, 40, False),          # exhausted: a smaller run stops sooner
    (DINF, 40, 50, False),          # and a larger one goes further
])
def test_prefetched_table_is_reused_only_when_equal(text, child, budget,
                                                     reused, monkeypatch):
    want = cosets.enumerate_cosets(P(text), (), budget)
    runs = count_felsch_runs(monkeypatch)
    prefetch = cosets.Prefetch()
    try:
        prefetch.start(P(text), child)
        got = cosets.enumerate_cosets(P(text), (), budget, prefetch=prefetch)
        assert prefetch._job is None  # taken, and the child reaped
    finally:
        prefetch.close()
    assert got == want
    assert runs == ([] if reused else [budget])


def test_prefetch_for_another_stage_is_discarded(monkeypatch):
    runs = count_felsch_runs(monkeypatch)
    prefetch = cosets.Prefetch()
    try:
        prefetch.start(P(B23), 5000)
        t = cosets.enumerate_cosets(P(D6), (), 5000, prefetch=prefetch)
        assert prefetch._job is None
        # a subgroup enumeration never takes the whole-group table
        prefetch.start(P(B23), 5000)
        h = cosets.enumerate_cosets(P(B23), [parse_word("a", 2)], 5000,
                                    prefetch=prefetch)
        assert prefetch._job[0] == P(B23)
    finally:
        prefetch.close()
    assert (t.num_cosets, h.num_cosets) == (12, 9)
    assert runs == [5000, 5000]


def test_starting_another_prefetch_kills_the_running_one():
    prefetch = cosets.Prefetch()
    try:
        # seconds of work for a child the test kills within milliseconds
        prefetch.start(P(DINF), 10**6)
        first = prefetch._job[2]
        prefetch.start(P(DINF), 10**6)  # the same job keeps its child
        assert prefetch._job[2] == first
        prefetch.start(P(B23), 5000)
        with pytest.raises(ChildProcessError):
            os.waitpid(first, os.WNOHANG)  # killed and reaped
        assert cosets.enumerate_cosets(P(B23), (), 5000,
                                       prefetch=prefetch).num_cosets == 27
    finally:
        prefetch.close()


def test_a_failed_child_leaves_the_enumeration_to_the_parent(monkeypatch):
    want = cosets.enumerate_cosets(P(B23), (), 5000)
    fail_in_children(monkeypatch)
    runs = count_felsch_runs(monkeypatch)
    prefetch = cosets.Prefetch()
    try:
        prefetch.start(P(B23), 5000)
        t = cosets.enumerate_cosets(P(B23), (), 5000, prefetch=prefetch)
    finally:
        prefetch.close()
    assert t == want
    assert runs == [5000]  # the parent's own run
