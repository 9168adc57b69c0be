"""The word reduction kernel: a live Aho-Corasick automaton over rule lhs.

Reduction uses a suffix stack: letters move from the input stack to an
output stack, and after each append only suffixes ending at the new
letter can have become reducible (the output is irreducible before the
append, and any prefix of an irreducible word is irreducible). When a
rule fires, its lhs is popped from the output and its rhs is pushed back
onto the input. Each rewrite strictly decreases the shortlex value of
output+input, so the loop terminates.

The suffixes are matched by an Aho-Corasick automaton over the lhs of
the active rules (Aho & Corasick, CACM 1975): a trie whose failure links
are folded into transition rows, so one lookup per appended letter finds
the lowest-id rule whose lhs is a suffix of the output, if any. A state
stack beside the output stack lets a fired rule resume from the state of
the shortened output.

The trie is one edge table, keyed by ``state * num_symbols + letter``,
not one child dict per state: a long completion's trie holds thousands
of states, most with one or two children. A row fill reads a state's
children letter by letter, which costs no more than the row copy it
already makes.

The automaton is live, so Knuth-Bendix completion keeps one for a whole
run instead of rebuilding it after every rule change:

- ``insert`` adds a rule's lhs to the trie and ``retire`` withdraws the
  rule. The trie only grows; a retired lhs leaves its path behind, which
  adds states but changes no match.
- Transition rows and failure links are filled on first use, walking
  failure chains iteratively from the nearest filled state.
- A rule change drops only the rows it can alter. The row of the state
  for string S depends only on the trie nodes and the active lhs that
  are suffixes of Sx, for each letter x. Inserting an lhs L whose first
  k letters were already in the trie adds the nodes L[:i] for i > k and
  a rule at L, and L[:i] is a suffix of Sx only if S ends in L[:i-1].
  So the insert drops the rows of the states whose string ends in
  L[:j], for j from min(k, |L| - 1) to |L| - 1, and a retire those
  ending in L[:-1]. The filled states' reversed paths, kept sorted,
  make each such suffix one bisect range. The kept rows are closed
  under suffixes, so a kept row's failure chain stays filled and the
  failure links of its children stay valid. ``set_rhs`` (a rhs
  renormalized by interreduction) alters no row at all.

A row maps letter ``x`` to the next state, or to ``~r`` when rule ``r``
fires there: that state is dead, since no irreducible word reaches it.
The live states and their rows are therefore also the normal-form
automaton that the census functions in ``rewrite`` walk.
"""

from __future__ import annotations

from bisect import bisect_left, insort

# one ``chr`` per letter in the reversed trie paths, so the letters stop
# where the code points do
MAX_SYMBOLS = 0x110000


class RuleAutomaton:
    """Aho-Corasick automaton over the lhs of the active rules.

    State 0 is the empty word. ``row(state)`` is the transition row of a
    live state: entry ``x`` is the state after appending letter ``x``, or
    ``~r`` where rule ``r`` (the lowest active id whose lhs is a suffix of
    the extended string) fires. ``fire[r]`` is ``(len(lhs) - 1, rhs
    reversed)``, ready for the reducer to pop and push.
    """

    __slots__ = ("num_symbols", "fire", "_edges", "_fail", "_ends",
                 "_node", "_rows", "_path", "_filled")

    def __init__(self, num_symbols):
        if num_symbols > MAX_SYMBOLS:
            raise ValueError(f"the rule automaton handles at most "
                             f"{MAX_SYMBOLS} letters (one code point per "
                             f"letter), got {num_symbols}")
        self.num_symbols = num_symbols
        self.fire = {}
        self._edges = {}       # state * num_symbols + letter -> trie child
        self._fail = [0]       # failure link, valid once a parent row is filled
        self._ends = {}        # state -> sorted ids of active rules ending there
        self._node = {}        # rule id -> the state its lhs ends at
        self._rows = {}        # state -> filled row, for the current lhs set
        self._path = [""]      # state -> its trie path reversed, one chr a letter
        self._filled = []      # (path, state) of each filled row, sorted

    def insert(self, rule_id, lhs, rhs):
        """Add rule ``rule_id``: ``lhs -> rhs``."""
        if not lhs:
            raise ValueError("rule with empty lhs")
        if rule_id in self.fire:
            raise ValueError(f"rule {rule_id} is already active")
        edges = self._edges
        n = self.num_symbols
        path = self._path
        prefixes = []         # the state of each proper prefix of lhs
        first = len(lhs) - 1  # the shortest of them whose rows can change
        state = 0
        for i, x in enumerate(lhs):
            prefixes.append(state)
            nxt = edges.get(state * n + x)
            if nxt is None:
                first = min(first, i)
                nxt = len(path)
                edges[state * n + x] = nxt
                self._fail.append(0)
                path.append(chr(x) + path[state])
            state = nxt
        insort(self._ends.setdefault(state, []), rule_id)
        self._node[rule_id] = state
        self.fire[rule_id] = (len(lhs) - 1, tuple(reversed(rhs)))
        for s in prefixes[first:]:
            self._drop(path[s])

    def retire(self, rule_id):
        """Withdraw rule ``rule_id``; its trie path stays."""
        state = self._node.pop(rule_id)
        ids = self._ends[state]
        ids.remove(rule_id)
        if not ids:
            del self._ends[state]
        del self.fire[rule_id]
        self._drop(self._path[state][1:])

    def _drop(self, tail):
        """Drop the filled rows of the states whose string ends in
        ``tail``, given reversed like the paths: their paths start with
        it."""
        filled = self._filled
        rows = self._rows
        lo = end = bisect_left(filled, (tail,))
        while end < len(filled) and filled[end][0].startswith(tail):
            del rows[filled[end][1]]
            end += 1
        del filled[lo:end]

    @property
    def num_states(self):
        """Trie states, dead ones included."""
        return len(self._path)

    def set_rhs(self, rule_id, rhs):
        """Replace the rhs of an active rule; no row depends on it."""
        self.fire[rule_id] = (self.fire[rule_id][0], tuple(reversed(rhs)))

    def row(self, state):
        """The transition row of a live state reached from state 0."""
        rows = self._rows
        row = rows.get(state)
        if row is not None:
            return row
        # the failure chain down to the nearest filled state; every state
        # on it is live (a dead link would make ``state`` dead too) and had
        # its link set when the row of a state leading to it was filled
        chain = []
        while state not in rows:
            chain.append(state)
            if not state:
                break
            state = self._fail[state]
        edges = self._edges
        n = self.num_symbols
        fail = self._fail
        ends = self._ends
        path = self._path
        filled = self._filled
        for s in reversed(chain):
            row = list(rows[fail[s]]) if s else [0] * n
            base = s * n
            for x in range(n):
                c = edges.get(base + x)
                if c is None:
                    continue
                t = row[x]  # where the longest proper suffix of c's string goes
                ids = ends.get(c)
                if t >= 0:
                    fail[c] = t
                    r = ids[0] if ids else -1
                else:
                    r = ~t
                    if ids and ids[0] < r:
                        r = ids[0]
                row[x] = c if r < 0 else ~r
            rows[s] = row
            insort(filled, (path[s], s))
        return row


def build_index(rules, num_symbols):
    """A fresh automaton over (lhs, rhs) pairs; a rule's id is its position."""
    automaton = RuleAutomaton(num_symbols)
    for rule_id, (lhs, rhs) in enumerate(rules):
        automaton.insert(rule_id, lhs, rhs)
    return automaton


def append_word(automaton, out, states, word):
    """Append ``word`` to the irreducible ``out`` and reduce, in place.

    ``states[i]`` is the automaton state after ``out[:i]``, so ``states``
    starts as ``[0]`` for an empty ``out``; the states hold only while the
    automaton's lhs set is unchanged. Reducing ``u + w`` in one call
    leaves ``out``/``states`` as appending ``w`` to the result for ``u``
    does: the prefix ``u`` is consumed first either way.
    """
    rows = automaton._rows
    fill = automaton.row
    fire = automaton.fire
    pending = list(word)
    pending.reverse()
    pop = pending.pop
    push = out.append
    push_state = states.append
    row = fill(states[-1])
    while pending:
        x = pop()
        t = row[x]
        if t >= 0:
            push(x)
            push_state(t)
            try:
                row = rows[t]
            except KeyError:
                row = fill(t)
        else:
            k, rhs_rev = fire[~t]
            if k:
                del out[-k:]
                del states[-k:]
                row = fill(states[-1])
            pending.extend(rhs_rev)


def reduce_word(automaton, word):
    out = []
    append_word(automaton, out, [0], word)
    return tuple(out)
