"""The reduction kernel against independent references.

The Aho-Corasick automaton is checked against the bucket-scan reducer
below, which fires, at each appended letter, the first rule in rule order
whose lhs is a suffix of the output. A live automaton, edited by inserts,
retires and rhs updates, must reduce exactly as a fresh one built over
its active rules, and every row it keeps across an edit must equal the
row of an automaton built afresh from the same edits.
"""

import itertools
import random

import pytest

from burnside import kernels

B27 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
# its seed system has a duplicate lhs (BB -> bb before BB -> aa) and lhs
# that are proper suffixes of other lhs
OVERLAPPING = "gens 2\nrel aaaa\nrel bbbb\nrel abab\nrel aabb\n"
# where an lhs and its proper suffix both match, the lower index fires:
# ba before aaba (and its duplicate), abb before bb
NESTED = [((2, 0), (0, 2)), ((0, 0, 2, 0), (3,)), ((0, 0, 2, 0), (1,)),
          ((0, 2, 2), (3,)), ((2, 2), (1,)),
          ((0, 1), ()), ((1, 0), ()), ((2, 3), ()), ((3, 2), ())]

RULES_27 = None  # filled lazily from a real completion


def _rules():
    global RULES_27
    if RULES_27 is None:
        from burnside import rewrite
        from burnside.presentation import parse_presentation

        p = parse_presentation(B27)
        system = rewrite.complete_presentation(p)
        assert system.confluent
        RULES_27 = system.rules
    return RULES_27


def bucket_scan_reduce(rules, num_symbols, word):
    """The reference reducer: scan the bucket of rules whose lhs ends in
    the appended letter, in rule order, and fire the first that matches."""
    buckets = [[] for _ in range(num_symbols)]
    for lhs, rhs in rules:
        buckets[lhs[-1]].append((list(lhs), list(reversed(rhs))))
    out = []
    pending = list(reversed(word))
    while pending:
        x = pending.pop()
        out.append(x)
        for lhs, rhs_rev in buckets[x]:
            n = len(lhs)
            if n <= len(out) and out[-n:] == lhs:
                del out[-n:]
                pending.extend(rhs_rev)
                break
    return tuple(out)


def _system(kind):
    from burnside import rewrite
    from burnside.presentation import parse_presentation

    if kind == "confluent":
        return rewrite.RewritingSystem(2, _rules(), confluent=True)
    if kind == "seed":
        return rewrite.rules_from_presentation(parse_presentation(OVERLAPPING))
    if kind == "nested":
        return rewrite.RewritingSystem(2, NESTED)
    system = rewrite.complete_presentation(parse_presentation(B27),
                                           max_rules=30)
    assert system.stats["budget_hit"] == "max_rules"
    return system


def random_raw_words(rank, count, max_len, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(tuple(rng.randrange(2 * rank)
                         for _ in range(rng.randrange(max_len + 1))))
    return out


def test_pure_reduce_basics():
    idx = kernels.build_index([((0, 0), (1,)), ((2, 3), ())], 4)
    assert kernels.reduce_word(idx, ()) == ()
    assert kernels.reduce_word(idx, (0, 0)) == (1,)
    assert kernels.reduce_word(idx, (0, 0, 0)) == (1, 0)
    assert kernels.reduce_word(idx, (2, 3, 2, 3)) == ()


def test_empty_lhs_rejected():
    with pytest.raises(ValueError):
        kernels.build_index([((), (0,))], 2)
    with pytest.raises(ValueError):
        kernels.build_index([], 2).insert(0, (), ())


def test_seed_system_pins_rule_precedence():
    lhs = [l for l, _ in _system("seed").rules]
    assert len(set(lhs)) < len(lhs)
    assert any(len(u) < len(v) and v[-len(u):] == u
               for u in lhs for v in lhs)


@pytest.mark.parametrize("kind", ["confluent", "seed", "nested", "partial"])
def test_reduction_matches_bucket_scan(kind):
    system = _system(kind)
    rules = system.rules
    index = kernels.build_index(rules, 4)
    for w in random_raw_words(2, 2000, 40, seed=7):
        assert kernels.reduce_word(index, w) == bucket_scan_reduce(rules, 4, w)


def test_append_word_resumes_from_an_irreducible_prefix():
    rules = _system("seed").rules
    index = kernels.build_index(rules, 4)
    for w in random_raw_words(2, 300, 20, seed=11):
        cut = len(w) // 2
        out = []
        states = [0]
        kernels.append_word(index, out, states, w[:cut])
        kernels.append_word(index, out, states, w[cut:])
        assert tuple(out) == bucket_scan_reduce(rules, 4, w)
        assert len(states) == len(out) + 1
        assert (states[-1] == 0) == (not out)


@pytest.mark.parametrize("kind", ["confluent", "partial"])
def test_power_trace_matches_repeated_reduction(kind):
    from burnside import rewrite

    system = _system(kind)
    n_max = 40

    def repeated(w):
        cur = ()
        for d in range(1, n_max + 1):
            cur = bucket_scan_reduce(system.rules, 4, cur + w)
            if cur == ():
                return d
        return None

    words = random_raw_words(2, 150, 6, seed=3) + [(0, 2), (0, 3), (0, 2, 2)]
    results = set()
    for w in words:
        got = rewrite.finite_order_by_powers(system, w, n_max)
        assert got == repeated(w)
        results.add(got)
        if got is not None:
            # reducing w^e in one call agrees with the trace, so no power
            # below the hit reduces to the empty word, even on the partial
            # system where reduction is not canonical
            assert system.reduce(w * got) == ()
            assert all(system.reduce(w * e) != () for e in range(1, got))
    # order-3 elements are traced to w^3; only the partial system misses
    assert 3 in results
    assert (None in results) == (kind == "partial")


def test_rhs_longer_never_built_by_rewrite():
    # the reducer's buffer bound relies on len(rhs) <= len(lhs); the
    # rewrite layer enforces it, so every real rule set satisfies it
    for lhs, rhs in _rules():
        assert len(rhs) <= len(lhs)


def test_reduction_matches_slow_substitution():
    # independent oracle: repeatedly scan for any lhs factor and replace
    rules = _rules()
    idx = kernels.build_index(rules, 4)

    def slow_reduce(w):
        w = list(w)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                n = len(lhs)
                for i in range(len(w) - n + 1):
                    if tuple(w[i:i + n]) == lhs:
                        w[i:i + n] = list(rhs)
                        changed = True
                        break
                if changed:
                    break
        return tuple(w)

    for w in random_raw_words(2, 120, 14, seed=5):
        got = kernels.reduce_word(idx, w)
        expect = slow_reduce(w)
        # leftmost-first vs suffix-stack orders can differ midway, but a
        # confluent system lands both on the same normal form
        assert got == expect


def test_long_power_trace_of_an_infinite_order_word():
    # in C3 * Z the word ab has infinite order and every power (ab)^d is
    # irreducible, so the trace appends through 8192 live states
    from burnside import rewrite
    from burnside.presentation import parse_presentation

    system = rewrite.complete_presentation(parse_presentation("gens 2\nrel aaa\n"))
    assert system.confluent
    w = (0, 2)
    assert rewrite.finite_order_by_powers(system, w, 4096) is None
    assert system.reduce(w * 4096) == w * 4096
    assert system.reduce(w * 4096 + (3, 1) * 4095) == w


def _random_rule(rng, active):
    """A shortlex-oriented rule whose lhs often repeats, extends or is a
    suffix of an active lhs, so precedence between nested and duplicate
    lhs is exercised."""
    pick = rng.random()
    if active and pick < 0.6:
        base = rng.choice(list(active.values()))[0]
        if pick < 0.2:
            lhs = base
        elif pick < 0.4 and len(base) > 1:
            lhs = base[rng.randrange(1, len(base)):]
        else:
            lhs = tuple(rng.randrange(4) for _ in range(rng.randrange(3))) + base
    else:
        lhs = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
    return lhs, _random_rhs(rng, lhs)


def _random_rhs(rng, lhs):
    while True:
        rhs = tuple(rng.randrange(4) for _ in range(rng.randrange(len(lhs) + 1)))
        if (len(rhs), rhs) < (len(lhs), lhs):
            return rhs


def _paths(automaton):
    """Each trie state's path, found by walking the trie edges."""
    paths = {0: ()}
    stack = [0]
    while stack:
        s = stack.pop()
        for x, c in automaton._children[s].items():
            paths[c] = paths[s] + (x,)
            stack.append(c)
    return paths


def _fresh_rows(history):
    """The row of every live state of an automaton built afresh from
    ``history`` (the same edits, so the same trie with the same retired
    paths, and no row filled before the last edit), keyed by path, with
    next states given as paths."""
    fresh = kernels.build_index((), 4)
    for op, *args in history:
        getattr(fresh, op)(*args)
    paths = _paths(fresh)
    rows = {}
    seen = {0}
    stack = [0]
    while stack:
        s = stack.pop()
        row = fresh.row(s)
        rows[paths[s]] = [paths[t] if t >= 0 else t for t in row]
        for t in row:
            if t >= 0 and t not in seen:
                seen.add(t)
                stack.append(t)
    return rows


def _check_rows(live, history):
    """Every row ``live`` holds for a live state equals the fresh row at
    the same path; returns how many it holds. (A dead state's row is
    unreachable until a retire revives it, and is checked from then on.)"""
    want = _fresh_rows(history)
    paths = _paths(live)
    held = 0
    for s, row in live._rows.items():
        path = paths[s]
        if path in want:
            got = [paths[t] if t >= 0 else t for t in row]
            assert got == want[path], (history, path)
            held += 1
    return held


def _fill_rows(live):
    """Fill the row of every live state up to depth 4."""
    for w in itertools.product(range(4), repeat=4):
        kernels.reduce_word(live, w)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_live_automaton_matches_fresh_build(seed):
    rng = random.Random(seed)
    live = kernels.build_index((), 4)
    active = {}  # rule id -> (lhs, rhs)
    next_id = 0
    history = []
    kept = {"insert": 0, "retire": 0}  # rows held right after such an edit
    shapes = set()
    for step in range(40):
        op = rng.random()
        if len(active) < 2 or op < 0.5:
            # ids arrive with gaps and sometimes below an active id
            rule_id = next_id + rng.randrange(3)
            if rng.random() < 0.4:
                rule_id = rng.randrange(rule_id + 1)
            while rule_id in active:
                rule_id += 1
            next_id = max(next_id, rule_id + 1)
            lhs, rhs = _random_rule(rng, active)
            history.append(("insert", rule_id, lhs, rhs))
            active[rule_id] = (lhs, rhs)
        elif op < 0.8:
            rule_id = rng.choice(sorted(active))
            history.append(("retire", rule_id))
            del active[rule_id]
        else:
            rule_id = rng.choice(sorted(active))
            lhs = active[rule_id][0]
            rhs = _random_rhs(rng, lhs)
            history.append(("set_rhs", rule_id, rhs))
            active[rule_id] = (lhs, rhs)
        op, *args = history[-1]
        getattr(live, op)(*args)
        held = _check_rows(live, history)
        if op in kept:
            kept[op] += held
        rules = [active[i] for i in sorted(active)]
        shapes |= _lhs_shapes([lhs for lhs, _ in rules])
        fresh = kernels.build_index(rules, 4)
        for w in random_raw_words(2, 500, 12, seed=1000 * seed + step):
            got = kernels.reduce_word(live, w)
            assert got == kernels.reduce_word(fresh, w), (history, w)
            assert got == bucket_scan_reduce(rules, 4, w), (history, w)
        _check_rows(live, history)
    assert {op for op, *_ in history} == {"insert", "retire", "set_rhs"}
    assert shapes == {"duplicate", "nested"}
    # an edit keeps the rows it cannot alter
    assert kept["insert"] and kept["retire"]


def _edit_and_check(live, history, op, *args):
    """Apply one edit, then check the kept rows and the refilled ones."""
    history.append((op, *args))
    getattr(live, op)(*args)
    held = _check_rows(live, history)
    _fill_rows(live)
    _check_rows(live, history)
    return held


def test_insert_with_a_new_first_letter_drops_every_row():
    live, history = kernels.build_index((), 4), []
    _edit_and_check(live, history, "insert", 0, (0, 0), ())
    # the first letter has a trie edge: the root's row stays
    _edit_and_check(live, history, "insert", 1, (0, 2, 2), (1,))
    assert 0 in live._rows
    # it has none: a new node one letter deep can end any string, so
    # every row drops
    history.append(("insert", 2, (2, 2, 2), ()))
    live.insert(2, (2, 2, 2), ())
    assert not live._rows
    _fill_rows(live)
    _check_rows(live, history)


def test_lhs_extending_a_path_through_a_retired_node():
    live, history = kernels.build_index((), 4), []
    _edit_and_check(live, history, "insert", 0, (0, 2, 0), ())
    _edit_and_check(live, history, "retire", 0)
    assert kernels.reduce_word(live, (0, 2, 0)) == (0, 2, 0)
    _edit_and_check(live, history, "insert", 1, (0, 2, 0, 2), (3,))
    assert kernels.reduce_word(live, (1, 0, 2, 0, 2)) == (1, 3)


def test_retire_hands_the_match_to_a_higher_id():
    # 102 and its suffix 02 both match after 10; the lower id fires
    live, history = kernels.build_index((), 4), []
    _edit_and_check(live, history, "insert", 0, (1, 0, 2), (3,))
    _edit_and_check(live, history, "insert", 5, (0, 2), (2,))
    assert kernels.reduce_word(live, (1, 0, 2)) == (3,)
    _edit_and_check(live, history, "retire", 0)
    assert kernels.reduce_word(live, (1, 0, 2)) == (1, 2)


def test_retire_revives_a_dead_state():
    # 20 fires inside 0202, so the state for 020 is dead until it retires
    live, history = kernels.build_index((), 4), []
    _edit_and_check(live, history, "insert", 0, (2, 0), (0,))
    _edit_and_check(live, history, "insert", 1, (0, 2, 0, 2), ())
    paths = _paths(live)
    assert (0, 2, 0) not in {paths[s] for s in live._rows}
    _edit_and_check(live, history, "retire", 0)
    paths = _paths(live)
    assert (0, 2, 0) in {paths[s] for s in live._rows}
    assert kernels.reduce_word(live, (0, 2, 0, 2, 2)) == (2,)


def _lhs_shapes(lhs):
    shapes = set()
    if len(set(lhs)) < len(lhs):
        shapes.add("duplicate")
    if any(len(u) < len(v) and v[-len(u):] == u for u in lhs for v in lhs):
        shapes.add("nested")
    return shapes


def test_live_automaton_shares_lhs_between_ids():
    # a duplicate lhs fires the lowest active id; retiring it hands the
    # match to the next, and retiring both leaves the trie path inert
    live = kernels.build_index([((0, 2), (2,)), ((0, 2), (0,))], 4)
    assert kernels.reduce_word(live, (0, 2)) == (2,)
    live.retire(0)
    assert kernels.reduce_word(live, (0, 2)) == (0,)
    live.set_rhs(1, ())
    assert kernels.reduce_word(live, (1, 0, 2)) == (1,)
    live.retire(1)
    assert kernels.reduce_word(live, (0, 2)) == (0, 2)
    # precedence follows ids, not insertion order
    live.insert(7, (0, 2), (2,))
    live.insert(3, (0, 2), (0,))
    assert kernels.reduce_word(live, (0, 2)) == (0,)
    with pytest.raises(ValueError):
        live.insert(3, (2,), ())
