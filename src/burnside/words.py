"""Freely reduced words over a symmetric generator alphabet.

Letters are packed into small ints: generator i (1-based) is 2*(i-1) and
its inverse is 2*(i-1)+1, so ``x ^ 1`` inverts a letter and the numeric
letter order realizes the tie-break a1 < a1^-1 < a2 < a2^-1 < ...  A word
is a tuple of letters, freely reduced unless stated otherwise; tuples are
immutable and hashable so words can key caches directly.

The total order on words used everywhere is shortlex: compare lengths
first, then letter tuples. ``ORDER_ID`` names it in reports so the
tie-break choice is machine-visible.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

Word = tuple  # tuple[int, ...]

ORDER_ID = "shortlex:index-major,plain-before-inverse"

ASCII_LIMIT = 26  # ranks above this use the numbered x<k>/X<k> syntax


def letter(index: int, inverse: bool = False) -> int:
    """Letter code of generator ``index`` (1-based) or its inverse."""
    if index < 1:
        raise ValueError("generator index must be >= 1")
    return 2 * (index - 1) + (1 if inverse else 0)


def max_generator(w: Iterable[int]) -> int:
    """Largest 1-based generator index appearing in ``w`` (0 if empty)."""
    m = 0
    for x in w:
        if (x >> 1) + 1 > m:
            m = (x >> 1) + 1
    return m


def free_reduce(seq: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    The result is independent of cancellation order (free reduction is
    confluent), so a single left-to-right stack pass suffices.
    """
    out: list = []
    for x in seq:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(x ^ 1 for x in reversed(w))


def power(w: Word, n: int) -> Word:
    """The reduced word of ``w^n``, in time linear in its length.

    With ``w = c * core * c^-1`` and ``core`` cyclically reduced, the
    copies of ``core`` do not cancel against each other, so ``w^n`` is
    ``c * core^n * c^-1`` (``()`` when ``n == 0``).
    """
    if n < 0:
        return power(invert(w), -n)
    if n == 0:
        return ()
    core, c = cyclic_reduce(w)
    return c + core * n + invert(c)


def cyclic_reduce(w: Word) -> tuple:
    """Split ``w = c * core * c^-1`` with ``core`` cyclically reduced.

    Returns (core, c). A cyclically reduced word returns (w, ()).
    """
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1] ^ 1:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def primitive_root(w: Word) -> tuple:
    """Smallest ``u`` with ``w == u * k`` as a literal tuple; returns (u, k).

    For cyclically reduced words literal periodicity coincides with being
    a proper power in the free group.
    """
    n = len(w)
    if n == 0:
        return w, 1
    for d in range(1, n // 2 + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d], n // d
    return w, 1


def shortlex_key(w: Word) -> tuple:
    return (len(w), w)


def shortlex_less(u: Word, v: Word) -> bool:
    return (len(u), u) < (len(v), v)


def _first_allowed(prev: Optional[int]) -> int:
    # smallest letter that does not cancel against prev; prev^1 is forbidden
    return 1 if prev == 1 else 0


def next_reduced(w: Word, m: int) -> Word:
    """Successor of ``w`` in shortlex order among reduced words.

    Increment the last letter past any forbidden (cancelling) value;
    on overflow carry left, and when the whole word overflows move to the
    smallest reduced word one letter longer.
    """
    top = 2 * m - 1
    letters = list(w)
    i = len(letters) - 1
    while i >= 0:
        prev = letters[i - 1] if i > 0 else None
        x = letters[i] + 1
        if prev is not None and x == prev ^ 1:
            x += 1
        if x <= top:
            letters[i] = x
            # reset the tail to minimal allowed letters
            for j in range(i + 1, len(letters)):
                letters[j] = _first_allowed(letters[j - 1])
            return tuple(letters)
        i -= 1
    # longest word of this length exhausted: go one longer, all minimal
    out = []
    prev = None
    for _ in range(len(w) + 1):
        x = _first_allowed(prev)
        out.append(x)
        prev = x
    return tuple(out)


def reduced_words(m: int, after: Optional[Word] = None) -> Iterator[Word]:
    """Yield nonempty reduced words in strictly increasing shortlex order.

    ``after`` resumes the stream strictly past that word, which is what a
    checkpointed scan wants.
    """
    if m < 1:
        return
    w = next_reduced(after if after is not None else (), m)
    while True:
        yield w
        w = next_reduced(w, m)


# --- text syntax ---------------------------------------------------------
#
# Ranks up to 26 print letter-style: a..z generators, A..Z inverses.
# Larger ranks use x<k> / X<k> with k the 1-based index. The empty word
# prints as "1".

_LOWER = "abcdefghijklmnopqrstuvwxyz"


def format_word(w: Word, rank: Optional[int] = None) -> str:
    if not w:
        return "1"
    use_numbered = (rank if rank is not None else max_generator(w)) > ASCII_LIMIT
    parts = []
    for x in w:
        idx = (x >> 1) + 1
        inv = x & 1
        if use_numbered:
            parts.append(("X" if inv else "x") + str(idx))
        else:
            c = _LOWER[idx - 1]
            parts.append(c.upper() if inv else c)
    return "".join(parts)


class WordSyntaxError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def parse_word(text: str, rank: int) -> Word:
    """Parse the letter syntax (or numbered syntax when rank > 26).

    The result is freely reduced. "1" denotes the empty word.
    """
    text = text.strip()
    if text == "1":
        return ()
    if not text:
        raise WordSyntaxError("empty word text (use '1' for the identity)", 0)
    letters: list = []
    if rank > ASCII_LIMIT:
        i = 0
        while i < len(text):
            c = text[i]
            if c not in "xX":
                raise WordSyntaxError(f"expected x<k> or X<k>, got {c!r}", i)
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise WordSyntaxError("missing generator number", i + 1)
            idx = int(text[i + 1 : j])
            if not 1 <= idx <= rank:
                raise WordSyntaxError(f"generator index {idx} out of range 1..{rank}", i + 1)
            letters.append(letter(idx, c == "X"))
            i = j
    else:
        for i, c in enumerate(text):
            low = c.lower()
            if low not in _LOWER:
                raise WordSyntaxError(f"invalid letter {c!r}", i)
            idx = _LOWER.index(low) + 1
            if idx > rank:
                raise WordSyntaxError(
                    f"letter {c!r} needs rank >= {idx}, presentation has rank {rank}", i
                )
            letters.append(letter(idx, c.isupper()))
    return free_reduce(letters)
