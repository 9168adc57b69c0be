"""Pure-Python word kernels: the reference implementation.

burnside._speedups is the compiled twin; both must produce identical
output for identical input (the test suite checks both against a
bucket-scan reference reducer).

Reduction uses a suffix stack: letters move from the input stack to an
output stack, and after each append only suffixes ending at the new
letter can have become reducible (the output is irreducible before the
append, and any prefix of an irreducible word is irreducible). When a
rule fires, its lhs is popped from the output and its rhs is pushed back
onto the input. Each rewrite strictly decreases the shortlex value of
output+input, so the loop terminates.

The suffixes are matched by an Aho-Corasick automaton over all lhs
(Aho & Corasick, CACM 1975): a trie whose failure links are folded into
a dense transition table, so one lookup per appended letter finds the
lowest-index rule whose lhs is a suffix of the output, if any. A state
stack beside the output stack lets a fired rule resume from the state of
the shortened output.
"""

from __future__ import annotations


class RuleIndex:
    """Aho-Corasick automaton over the lhs of an ordered rule list.

    ``delta[state * num_symbols + x]`` is the state after appending letter
    ``x`` (state 0 is the empty word), and ``match[state]`` is the lowest
    index of a rule whose lhs is a suffix of that state's string, or -1.
    A state with ``match >= 0`` is dead: no irreducible word reaches it.
    """

    __slots__ = ("num_symbols", "delta", "match", "drop", "rhs_rev")

    def __init__(self, num_symbols, delta, match, drop, rhs_rev):
        self.num_symbols = num_symbols
        self.delta = delta
        self.match = match
        self.drop = drop        # per rule: len(lhs) - 1
        self.rhs_rev = rhs_rev  # per rule: rhs reversed, ready to push


def build_index(rules, num_symbols):
    """Build the automaton over the lhs of (lhs, rhs) pairs, in rule order."""
    children = [{}]
    own = [-1]  # lowest rule index whose lhs ends exactly at the state
    drop = []
    rhs_rev = []
    for ri, (lhs, rhs) in enumerate(rules):
        if not lhs:
            raise ValueError("rule with empty lhs")
        state = 0
        for x in lhs:
            nxt = children[state].get(x)
            if nxt is None:
                nxt = len(children)
                children[state][x] = nxt
                children.append({})
                own.append(-1)
            state = nxt
        if own[state] < 0:
            own[state] = ri
        drop.append(len(lhs) - 1)
        rhs_rev.append(tuple(reversed(rhs)))

    n = num_symbols
    delta = [0] * (len(children) * n)
    match = own
    fail = [0] * len(children)
    queue = [0]
    # breadth-first, so a state's failure target (strictly shallower) has
    # its row and its match final before the state copies them
    for u in queue:
        base = u * n
        if u:
            f = fail[u]
            delta[base:base + n] = delta[f * n:f * n + n]
            inherited = match[f]
            if inherited >= 0 and (match[u] < 0 or inherited < match[u]):
                match[u] = inherited
        for x, v in children[u].items():
            fail[v] = delta[base + x]  # the root row is still all zeros
            delta[base + x] = v
            queue.append(v)
    return RuleIndex(n, delta, match, drop, rhs_rev)


def append_word(index, out, states, word):
    """Append ``word`` to the irreducible ``out`` and reduce, in place.

    ``states[i]`` is the automaton state after ``out[:i]``, so ``states``
    starts as ``[0]`` for an empty ``out``. Reducing ``u + w`` in one call
    leaves ``out``/``states`` as appending ``w`` to the result for ``u``
    does: the prefix ``u`` is consumed first either way.
    """
    delta = index.delta
    match = index.match
    drop = index.drop
    rhs_rev = index.rhs_rev
    n = index.num_symbols
    pending = list(word)
    pending.reverse()
    pop = pending.pop
    push = out.append
    push_state = states.append
    state = states[-1]
    while pending:
        x = pop()
        nxt = delta[state * n + x]
        ri = match[nxt]
        if ri < 0:
            push(x)
            push_state(nxt)
            state = nxt
        else:
            k = drop[ri]
            if k:
                del out[-k:]
                del states[-k:]
                state = states[-1]
            pending.extend(rhs_rev[ri])


def reduce_word(index, word):
    out = []
    append_word(index, out, [0], word)
    return tuple(out)


def free_reduce_word(word):
    out = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)
