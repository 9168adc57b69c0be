"""Free-word layer: reduction, shortlex order, enumeration, syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import words
from burnside.words import (
    WordSyntaxError,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    letter,
    next_reduced,
    parse_word,
    power,
    primitive_root,
    reduced_words,
    shortlex_key,
    shortlex_less,
)


def is_reduced(w):
    return all(y != x ^ 1 for x, y in zip(w, w[1:]))


def is_cyclically_reduced(w):
    return len(w) < 2 or w[0] != w[-1] ^ 1


def count_reduced(m, length):
    """Number of reduced words of exactly this length over m generators."""
    if length == 0:
        return 1
    return 2 * m * (2 * m - 1) ** (length - 1)


def raw_words(rank=2, max_len=12):
    return st.lists(st.integers(0, 2 * rank - 1), max_size=max_len).map(tuple)


def reduced(rank=2, max_len=12):
    return raw_words(rank, max_len).map(free_reduce)


def test_letter_codes():
    assert letter(1, False) == 0
    assert letter(1, True) == 1
    assert letter(2, False) == 2


def test_parse_format_examples():
    assert parse_word("abA", 2) == (0, 2, 1)
    assert parse_word("1", 2) == ()
    assert format_word((0, 2, 1), 2) == "abA"
    assert format_word((), 2) == "1"
    # parser reduces: aAb is b
    assert parse_word("aAb", 2) == (2,)
    with pytest.raises(WordSyntaxError):
        parse_word("ac", 2)  # c out of rank
    with pytest.raises(WordSyntaxError):
        parse_word("a b", 2)


def test_parse_error_column():
    try:
        parse_word("ab?", 2)
    except WordSyntaxError as e:
        assert e.column == 2  # 0-based offset of the bad character
    else:
        raise AssertionError("expected syntax error")


def test_numbered_syntax_above_26():
    w = parse_word("x1x27X1", 27)
    assert w == (0, 52, 1)
    assert format_word(w, 27) == "x1x27X1"
    # letter syntax is only for rank <= 26
    with pytest.raises(WordSyntaxError):
        parse_word("ab", 27)


@given(raw_words())
def test_free_reduce_is_reduced(w):
    assert is_reduced(free_reduce(w))


@given(reduced())
def test_reduce_idempotent(w):
    assert free_reduce(w) == w


@given(reduced())
def test_invert_involution(w):
    assert invert(invert(w)) == w
    assert free_reduce(w + invert(w)) == ()


@given(reduced(), reduced(max_len=4), st.integers(-5, 5))
def test_power_by_concat(core, c, k):
    # conjugating by c makes most of these words not cyclically reduced
    w = free_reduce(c + core + invert(c))
    step = w if k >= 0 else invert(w)
    expect = ()
    for _ in range(abs(k)):
        expect = free_reduce(expect + step)
    assert power(w, k) == expect


@given(reduced())
def test_cyclic_reduce_conjugacy(w):
    core, conj = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    # w = conj * core * conj^-1
    assert free_reduce(conj + core + invert(conj)) == w


@given(reduced(max_len=10))
def test_primitive_root_reconstructs(w):
    u, k = primitive_root(w)
    assert power(u, k) == w
    if w:
        assert k >= 1
        r, kk = primitive_root(u)
        assert kk == 1  # the root is primitive


def test_shortlex_examples():
    a, A, b = (0,), (1,), (2,)
    assert shortlex_less((), a)
    assert shortlex_less(a, A)
    assert shortlex_less(A, b)
    assert shortlex_less(b, (0, 0))  # length first
    assert min([b, a, A], key=shortlex_key) == a


@given(reduced(), reduced())
def test_shortlex_total(u, v):
    if u == v:
        assert not shortlex_less(u, v)
    else:
        assert shortlex_less(u, v) != shortlex_less(v, u)


def test_enumeration_prefix():
    got = []
    g = reduced_words(2)
    for _ in range(9):
        got.append(format_word(next(g), 2))
    assert got == ["a", "A", "b", "B", "aa", "ab", "aB", "AA", "Ab"]


def test_enumeration_exhaustive_cross_check():
    # stream must agree with brute-force enumerate-filter-sort
    brute = []
    rank = 2
    alphabet = range(2 * rank)

    def walk(w, depth):
        if depth == 0:
            return
        for x in alphabet:
            if w and x == (w[-1] ^ 1):
                continue
            brute.append(w + (x,))
            walk(w + (x,), depth - 1)

    walk((), 4)
    brute.sort(key=shortlex_key)
    stream = reduced_words(rank)
    got = [next(stream) for _ in range(len(brute))]
    assert got == brute


def test_enumeration_after_cursor():
    g = reduced_words(2)
    first_eight = [next(g) for _ in range(8)]
    resumed = reduced_words(2, after=first_eight[4])
    assert [next(resumed) for _ in range(3)] == first_eight[5:]


@given(reduced(max_len=6))
def test_next_reduced_is_successor(w):
    if not w:
        return
    nxt = next_reduced(w, 2)
    assert shortlex_less(w, nxt)
    assert is_reduced(nxt)
    # nothing strictly between w and its successor
    mid = [u for u in _all_reduced_up_to(2, len(nxt))
           if shortlex_less(w, u) and shortlex_less(u, nxt)]
    assert mid == []


def _all_reduced_up_to(rank, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in range(2 * rank):
                if w and x == (w[-1] ^ 1):
                    continue
                nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def test_count_reduced():
    # exactly-length-L counts: 2m(2m-1)^(L-1)
    assert count_reduced(2, 0) == 1
    assert count_reduced(2, 1) == 4
    assert count_reduced(2, 2) == 12
    assert count_reduced(1, 3) == 2


def test_count_matches_stream():
    total = sum(count_reduced(2, k) for k in range(1, 4))
    g = reduced_words(2)
    seen = 0
    while True:
        w = next(g)
        if len(w) > 3:
            break
        seen += 1
    assert seen == total


@given(st.integers(1, 3), raw_words(rank=3, max_len=8))
def test_roundtrip_format_parse(rank, raw):
    w = free_reduce(tuple(x for x in raw if x < 2 * rank))
    assert parse_word(format_word(w, rank), rank) == w
