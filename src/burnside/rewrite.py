"""String rewriting for group presentations, with Knuth-Bendix completion.

Rules rewrite toward shortlex-smaller words, so every rule application
strictly decreases the shortlex value of the word and rewriting always
terminates. Completion is the standard critical-pair loop with eager
interreduction; pairs are processed shortest-first (sum of lhs lengths)
from a heap, which keeps the search fair and the behavior deterministic.

A confluent system decides the word problem: reduce() is then a
canonical form. Non-confluent systems remain sound (reduce(w) is always
equal to w in the group) but not complete.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Optional

from . import kernels
from .presentation import Presentation
from .words import Word, invert, shortlex_less

DEFAULT_MAX_RULES = 20000
DEFAULT_MAX_LEN = 64
DEFAULT_MAX_STEPS = 10**6


class RewritingSystem:
    """An ordered list of shortlex-oriented rules over 2*rank symbols."""

    def __init__(self, rank: int, rules: Iterable = (), confluent: bool = False,
                 stats: Optional[dict] = None):
        self.rank = rank
        self.rules = [(tuple(l), tuple(r)) for l, r in rules]
        for lhs, rhs in self.rules:
            if not shortlex_less(rhs, lhs):
                raise ValueError(f"rule not shortlex-oriented: {lhs} -> {rhs}")
        self.confluent = confluent
        self.stats = dict(stats or {})
        self._index = None

    @property
    def num_symbols(self) -> int:
        return 2 * self.rank

    def _get_index(self):
        """The rule automaton (see ``kernels``), built on first use.

        Its live states are the normal-form automaton: the irreducible
        words are exactly the paths from state 0 through live states.
        """
        if self._index is None:
            self._index = kernels.build_index(self.rules, self.num_symbols)
        return self._index

    def reduce(self, w: Word) -> Word:
        """Rewrite to an irreducible word (canonical iff confluent)."""
        return kernels.reduce_word(self._get_index(), tuple(w))

    def __repr__(self):
        state = "confluent" if self.confluent else "partial"
        return f"RewritingSystem(rank={self.rank}, rules={len(self.rules)}, {state})"


def orient(u: Word, v: Word):
    """Order an equation into (lhs, rhs) with rhs shortlex-less, or None."""
    if u == v:
        return None
    return (u, v) if shortlex_less(v, u) else (v, u)


def cancellation_rules(rank: int):
    return [((x, x ^ 1), ()) for x in range(2 * rank)]


def rules_from_presentation(p: Presentation) -> RewritingSystem:
    """Seed rules: free cancellation plus every shortlex-oriented split
    of each relator.

    Splitting r at position j gives the equation r[:j] = (r[j:])^-1; the
    j = len(r) split is the plain r -> 1 orientation and the other splits
    are its balanced variants, which saves completion a few rounds.
    """
    rules = list(cancellation_rules(p.rank))
    seen = set(rules)
    for r in p.relators:
        for j in range(len(r) + 1):
            pair = orient(r[:j], invert(r[j:]))
            if pair is not None and pair not in seen:
                seen.add(pair)
                rules.append(pair)
    return RewritingSystem(p.rank, rules, confluent=False)


def _contains_factor(big: Word, small: Word) -> bool:
    n = len(small)
    if n > len(big):
        return False
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


def knuth_bendix(system: RewritingSystem,
                 max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LEN,
                 max_steps: int = DEFAULT_MAX_STEPS) -> RewritingSystem:
    """Huet-style completion with interreduction. Returns a new system.

    confluent=True on the result means both work queues drained within
    budget; any budget breach leaves a sound partial system with
    stats["budget_hit"] naming the limit.
    """
    num_symbols = 2 * system.rank
    rules: dict = {}
    active: set = set()
    generated = 0
    max_rule_len = 0
    heap: list = []  # (cost, tiebreak, id1, id2)
    tiebreak = 0
    equations: deque = deque((l, r) for l, r in system.rules)
    budget_hit = None
    steps = 0

    # one live automaton over the active rules for the whole completion
    automaton = kernels.build_index((), num_symbols)

    def current_reduce(w):
        return kernels.reduce_word(automaton, w)

    def push_pairs(rid):
        # generating a pair is a step too: otherwise the queue grows
        # quadratically in max_rules before the step budget can act
        nonlocal tiebreak, steps, budget_hit
        for oid in sorted(active):
            steps += 2
            if steps > max_steps:
                budget_hit = "max_steps"
                return
            cost = len(rules[rid][0]) + len(rules[oid][0])
            heapq.heappush(heap, (cost, tiebreak, rid, oid))
            tiebreak += 1
            if oid != rid:
                heapq.heappush(heap, (cost, tiebreak, oid, rid))
                tiebreak += 1

    def add_equation_as_rule(u, v):
        nonlocal generated, max_rule_len, budget_hit
        u = current_reduce(u)
        v = current_reduce(v)
        pair = orient(u, v)
        if pair is None:
            return
        lhs, rhs = pair
        if len(lhs) > max_len:
            budget_hit = "max_len"
            return
        if generated >= max_rules:
            budget_hit = "max_rules"
            return
        rid = generated
        generated += 1
        max_rule_len = max(max_rule_len, len(lhs))
        rules[rid] = (lhs, rhs)
        active.add(rid)
        automaton.insert(rid, lhs, rhs)
        # interreduce: retire rules whose lhs now reduces, requeueing their
        # equation; renormalize rhs of the rest in place
        for oid in sorted(active):
            if oid == rid:
                continue
            olhs, orhs = rules[oid]
            if _contains_factor(olhs, lhs):
                active.discard(oid)
                automaton.retire(oid)
                equations.append((olhs, orhs))
            elif _contains_factor(orhs, lhs):
                orhs = current_reduce(orhs)
                rules[oid] = (olhs, orhs)
                automaton.set_rhs(oid, orhs)
        push_pairs(rid)

    while equations or heap:
        if budget_hit:
            break
        if equations:
            u, v = equations.popleft()
            add_equation_as_rule(u, v)
            continue
        cost, _, i, j = heapq.heappop(heap)
        if i not in active or j not in active:
            continue
        steps += 1
        if steps > max_steps:
            budget_hit = "max_steps"
            break
        lhs1, rhs1 = rules[i]
        lhs2, rhs2 = rules[j]
        # proper overlaps; containments are handled by interreduction
        limit = min(len(lhs1), len(lhs2))
        for k in range(1, limit):
            if lhs1[-k:] == lhs2[:k]:
                equations.append((rhs1 + lhs2[k:], lhs1[:-k] + rhs2))

    final = [rules[i] for i in sorted(active)]
    stats = dict(system.stats)
    stats.update(
        rules_generated=generated,
        rules_active=len(final),
        steps=steps,
        max_rule_len=max_rule_len,
        budget_hit=budget_hit,
    )
    return RewritingSystem(system.rank, final,
                           confluent=budget_hit is None, stats=stats)


def complete_presentation(p: Presentation, **budgets) -> RewritingSystem:
    return knuth_bendix(rules_from_presentation(p), **budgets)


def format_rules(system: RewritingSystem) -> str:
    """One `lhs -> rhs` per line in word syntax, for golden files."""
    from .words import format_word

    return "".join(
        f"{format_word(lhs, system.rank)} -> {format_word(rhs, system.rank)}\n"
        for lhs, rhs in system.rules
    )


def count_normal_forms(system: RewritingSystem, max_len: int):
    """Count irreducible words of length <= max_len; (count, stabilized).

    stabilized=True means some length had no normal forms at all, and
    since prefixes of irreducibles are irreducible there are none longer:
    the count is then the group order.
    """
    if not system.confluent:
        raise ValueError("normal form counting needs a confluent system")
    row = system._get_index().row
    total = 1  # the empty word
    level = {0: 1}  # live state -> irreducible words of this length
    for _ in range(max_len):
        nxt: dict = {}
        for u, count in level.items():
            for v in row(u):
                if v >= 0:
                    nxt[v] = nxt.get(v, 0) + count
        if not nxt:
            return total, True
        total += sum(nxt.values())
        level = nxt
    return total, False


def normal_forms(system: RewritingSystem, max_len: int):
    """Yield the normal forms up to max_len in shortlex order."""
    if not system.confluent:
        raise ValueError("normal form listing needs a confluent system")
    row = system._get_index().row
    yield ()
    level = [((), 0)]
    for _ in range(max_len):
        nxt = []
        for w, u in level:
            for x, v in enumerate(row(u)):
                if v >= 0:
                    child = w + (x,)
                    nxt.append((child, v))
                    yield child
        if not nxt:
            return
        level = nxt


def language_infinite(system: RewritingSystem) -> bool:
    """Whether the set of irreducible words is infinite.

    Looks for a cycle among the live states of the rule automaton that
    are reachable from the start. For a confluent system this decides
    group infiniteness exactly.
    """
    if not system.confluent:
        raise ValueError("language census needs a confluent system")
    row = system._get_index().row
    # iterative cycle detection over live transitions
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {0: GRAY}
    stack = [(0, iter(row(0)))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for v in it:
            if v < 0:
                continue
            c = color.get(v, WHITE)
            if c == GRAY:
                return True
            if c == WHITE:
                color[v] = GRAY
                stack.append((v, iter(row(v))))
                advanced = True
                break
        if not advanced:
            color[u] = BLACK
            stack.pop()
    return False


def finite_order_by_powers(system: RewritingSystem, w: Word, n_max: int):
    """Smallest d <= n_max with w^d rewriting to the empty word, or None.

    Reduction to the empty word is a proof that w^d = 1 in the group, so
    a hit is always sound; the claimed d is the exact order only when the
    system is confluent (callers confirm exactness otherwise).
    """
    automaton = system._get_index()
    # out/states hold reduce(w^(d-1)); appending w to them is reduce(w^d)
    out: list = []
    states = [0]
    for d in range(1, n_max + 1):
        kernels.append_word(automaton, out, states, w)
        if not out:
            return d
    return None
