"""The word kernels must be indistinguishable from the outside.

The compiled twin and the Aho-Corasick pure kernel are both checked
against the bucket-scan reducer below, which fires, at each appended
letter, the first rule in rule order whose lhs is a suffix of the output.
"""

import random

import pytest

from burnside import _purekernels as pure
from burnside import kernels

try:
    from burnside import _speedups as fast
except ImportError:
    fast = None

needs_ext = pytest.mark.skipif(fast is None, reason="extension not built")

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
    idx = pure.build_index([((0, 0), (1,)), ((2, 3), ())], 4)
    assert pure.reduce_word(idx, ()) == ()
    assert pure.reduce_word(idx, (0, 0)) == (1,)
    assert pure.reduce_word(idx, (0, 0, 0)) == (1, 0)
    assert pure.reduce_word(idx, (2, 3, 2, 3)) == ()


def test_pure_free_reduce():
    assert pure.free_reduce_word((0, 1)) == ()
    assert pure.free_reduce_word((0, 1, 1, 0, 2)) == (2,)
    assert pure.free_reduce_word(()) == ()


def test_empty_lhs_rejected():
    with pytest.raises(ValueError):
        pure.build_index([((), (0,))], 2)
    if fast is not None:
        with pytest.raises(ValueError):
            fast.build_index([((), (0,))], 2)


def test_seed_system_pins_rule_precedence():
    lhs = [l for l, _ in _system("seed").rules]
    assert len(set(lhs)) < len(lhs)
    assert any(len(u) < len(v) and v[-len(u):] == u
               for u in lhs for v in lhs)


@pytest.mark.parametrize("kind", ["confluent", "seed", "nested", "partial"])
def test_reduction_matches_bucket_scan(kind):
    system = _system(kind)
    rules = system.rules
    indexes = [(pure, pure.build_index(rules, 4)),
               (kernels, kernels.build_index(rules, 4))]
    for w in random_raw_words(2, 2000, 40, seed=7):
        expect = bucket_scan_reduce(rules, 4, w)
        for module, index in indexes:
            assert module.reduce_word(index, w) == expect


def test_append_word_resumes_from_an_irreducible_prefix():
    rules = _system("seed").rules
    index = pure.build_index(rules, 4)
    for w in random_raw_words(2, 300, 20, seed=11):
        cut = len(w) // 2
        out = []
        states = [0]
        pure.append_word(index, out, states, w[:cut])
        pure.append_word(index, out, states, w[cut:])
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
    # order-3 elements are traced to w^3; only the partial system misses
    assert 3 in results
    assert (None in results) == (kind == "partial")


def test_rhs_longer_never_built_by_rewrite():
    # the reducer's buffer bound relies on len(rhs) <= len(lhs); the
    # rewrite layer enforces it, so every real rule set satisfies it
    for lhs, rhs in _rules():
        assert len(rhs) <= len(lhs)


@needs_ext
def test_kernels_agree_on_random_words():
    rules = _rules()
    pi = pure.build_index(rules, 4)
    fi = fast.build_index(rules, 4)
    for w in random_raw_words(2, 3000, 50, seed=99):
        assert pure.reduce_word(pi, w) == fast.reduce_word(fi, w)
        assert pure.free_reduce_word(w) == fast.free_reduce_word(w)


@needs_ext
def test_kernels_agree_on_structured_words():
    # powers of short words stress the rhs-push path
    rules = _rules()
    pi = pure.build_index(rules, 4)
    fi = fast.build_index(rules, 4)
    bases = [(0,), (0, 2), (0, 3), (0, 2, 1, 3), (2, 2), (0, 0, 2)]
    for base in bases:
        for k in range(1, 30):
            w = base * k
            assert pure.reduce_word(pi, w) == fast.reduce_word(fi, w)


@needs_ext
def test_selected_backend():
    import os

    # kernels module picked the compiled twin unless the env var says not to
    if os.environ.get("BURNSIDE_PURE_PYTHON"):
        assert kernels.IMPLEMENTATION == "python"
    else:
        assert kernels.IMPLEMENTATION == "c"


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
