"""String rewriting for group presentations, with Knuth-Bendix completion.

Rules rewrite toward shortlex-smaller words, so every rule application
strictly decreases the shortlex value of the word and rewriting always
terminates. Completion is the standard critical-pair loop with eager
interreduction; pairs are processed shortest-first (sum of lhs lengths)
from a heap, which keeps the search fair and the behavior deterministic.

The heap holds pair groups, not pairs: a new rule pushes one entry per
lhs length among the active rules, and a pop takes the group's next
pair. Pairs still come out one at a time in shortest-first order, and
the step budget charges every generated pair arithmetically when its
rule is added, so the order, the count and any partial system are those
of a heap that holds every pair. Interreduction visits, in id order,
only the active rules whose lhs is at least as long as the new lhs: a
shortlex rhs is never longer than its lhs, so no other rule can contain
it. It tests containment on ``str`` copies of the rules, one code point
per letter, which bounds the rank at ``MAX_RANK``.

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


# One ``chr`` per letter in the string shadows of the rules, as in the
# automaton's reversed paths, and letters run up to 2 * rank - 1, so the
# rank stops where the code points do.
MAX_RANK = kernels.MAX_SYMBOLS // 2


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise ValueError(f"Knuth-Bendix completion handles rank at most "
                         f"{MAX_RANK} (one code point per letter), got {rank}")


def rules_from_presentation(p: Presentation) -> RewritingSystem:
    """Seed rules: free cancellation plus every shortlex-oriented split
    of each relator.

    Splitting r at position j gives the equation r[:j] = (r[j:])^-1; the
    j = len(r) split is the plain r -> 1 orientation and the other splits
    are its balanced variants, which saves completion a few rounds.
    Raises ValueError above ``MAX_RANK``, before any rule is built.
    """
    _check_rank(p.rank)
    rules = list(cancellation_rules(p.rank))
    seen = set(rules)
    for r in p.relators:
        for j in range(len(r) + 1):
            pair = orient(r[:j], invert(r[j:]))
            if pair is not None and pair not in seen:
                seen.add(pair)
                rules.append(pair)
    return RewritingSystem(p.rank, rules, confluent=False)


def _text(w: Word) -> str:
    return "".join(map(chr, w))


def knuth_bendix(system: RewritingSystem,
                 max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LEN,
                 max_steps: int = DEFAULT_MAX_STEPS) -> RewritingSystem:
    """Huet-style completion with interreduction. Returns a new system.

    confluent=True on the result means both work queues drained within
    budget; any budget breach leaves a sound partial system with
    stats["budget_hit"] naming the limit. It is the one system
    ``completion`` yields without marks.
    """
    for final in completion(system, (), max_rules, max_len, max_steps):
        pass
    return final


def completion(system: RewritingSystem, marks: Iterable[int] = (),
               max_rules: int = DEFAULT_MAX_RULES,
               max_len: int = DEFAULT_MAX_LEN,
               max_steps: int = DEFAULT_MAX_STEPS):
    """Completion as a generator, read before it ends.

    Once ``steps`` reaches each mark, at the next loop boundary with no
    equation waiting, it yields the active rules in id order as a
    partial system (not confluent, no budget hit): every rule is an
    equation of the group, so it reduces soundly. Marks passed together
    yield once. The last yield is the end system, confluent or with a
    budget hit, and it is exactly what ``knuth_bendix`` returns: the
    marks change nothing else.

    Critical pairs are queued lazily. A new rule r gets one heap entry per
    lhs length L among the active rules, keyed by (len(lhs_r) + L, push
    order); it stands for the pairs (r, o), (o, r) with every rule o of
    lhs length L that existed at the push, by ascending o, with no (r, r)
    twin. A pop takes the entry's next pair and puts the rest back under
    the same key, so pairs come out in the order an eager heap of single
    pairs would give them. Generating a pair costs 2 steps per active
    rule, counted when the rule is added, and processing one costs a step;
    a pair with a retired rule is skipped and costs nothing.
    """
    _check_rank(system.rank)
    num_symbols = 2 * system.rank
    # rid -> (lhs, rhs, lhs as str, rhs as str), in id order; the strings
    # serve interreduction's factor tests and the overlap tests
    active: dict = {}
    by_len: dict = {}  # lhs length -> ids of every rule ever added, in order
    live_by_len: dict = {}  # lhs length -> ids of the active rules
    generated = 0
    max_rule_len = 0
    heap: list = []  # (cost, seq, rid, ids, pos, end): pairs pos..end-1
    seq = 0
    equations: deque = deque((l, r) for l, r in system.rules)
    budget_hit = None
    steps = 0
    marks = iter(sorted(marks))
    mark = next(marks, None)

    # one live automaton over the active rules for the whole completion
    automaton = kernels.build_index((), num_symbols)

    def current_reduce(w):
        return kernels.reduce_word(automaton, w)

    def current(final):
        rules = [(lhs, rhs) for lhs, rhs, _, _ in active.values()]
        stats = dict(system.stats)
        stats.update(
            rules_generated=generated,
            rules_active=len(rules),
            steps=steps,
            max_rule_len=max_rule_len,
            budget_hit=budget_hit,
        )
        return RewritingSystem(system.rank, rules,
                               confluent=final and budget_hit is None,
                               stats=stats)

    def add_equation_as_rule(u, v):
        nonlocal generated, max_rule_len, budget_hit, steps, seq
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
        size = len(lhs)
        max_rule_len = max(max_rule_len, size)
        automaton.insert(rid, lhs, rhs)
        # interreduce: retire rules whose lhs now reduces, requeueing their
        # equation; renormalize rhs of the rest in place. A rhs is never
        # longer than its lhs, so only a rule with an lhs of at least
        # ``size`` letters can hold the new lhs
        key = _text(lhs)
        for oid in sorted([oid for length, ids in live_by_len.items()
                           if length >= size for oid in ids]):
            olhs, orhs, olhs_text, orhs_text = active[oid]
            if key in olhs_text:
                del active[oid]
                live_by_len[len(olhs)].remove(oid)
                automaton.retire(oid)
                equations.append((olhs, orhs))
            elif key in orhs_text:
                orhs = current_reduce(orhs)
                active[oid] = (olhs, orhs, olhs_text, _text(orhs))
                automaton.set_rhs(oid, orhs)
        active[rid] = (lhs, rhs, key, _text(rhs))
        by_len.setdefault(size, []).append(rid)
        live_by_len.setdefault(size, set()).add(rid)
        # generating a pair is a step too: otherwise the queue grows
        # quadratically in max_rules before the step budget can act
        count = 2 * len(active)
        if steps + count > max_steps:
            steps += (max_steps - steps) // 2 * 2 + 2
            budget_hit = "max_steps"
            return
        steps += count
        for length, live in live_by_len.items():
            if live:
                ids = by_len[length]
                end = 2 * len(ids) - (length == size)
                heapq.heappush(heap, (size + length, seq, rid, ids, 0, end))
                seq += 1

    while equations or heap:
        if budget_hit:
            break
        if equations:
            u, v = equations.popleft()
            add_equation_as_rule(u, v)
            continue
        if mark is not None and steps >= mark:
            yield current(False)
            while mark is not None and mark <= steps:
                mark = next(marks, None)
        cost, s, rid, ids, pos, end = heap[0]
        if rid not in active:  # every pair of the group is dead
            heapq.heappop(heap)
            continue
        while pos < end and ids[pos >> 1] not in active:
            pos = (pos | 1) + 1  # both pairs with a retired rule
        if pos >= end:
            heapq.heappop(heap)
            continue
        oid = ids[pos >> 1]
        i, j = (oid, rid) if pos & 1 else (rid, oid)
        if pos + 1 < end:
            heapq.heapreplace(heap, (cost, s, rid, ids, pos + 1, end))
        else:
            heapq.heappop(heap)
        steps += 1
        if steps > max_steps:
            budget_hit = "max_steps"
            break
        lhs1, rhs1, text1, _ = active[i]
        lhs2, rhs2, text2, _ = active[j]
        # proper overlaps; containments are handled by interreduction
        limit = min(len(lhs1), len(lhs2))
        for k in range(1, limit):
            if text1[-k:] == text2[:k]:
                equations.append((rhs1 + lhs2[k:], lhs1[:-k] + rhs2))

    yield current(True)


def complete_presentation(p: Presentation, **budgets) -> RewritingSystem:
    return knuth_bendix(rules_from_presentation(p), **budgets)


def count_normal_forms(system: RewritingSystem,
                       max_len: Optional[int] = None):
    """Count irreducible words of length <= max_len; (count, stabilized).

    stabilized=True means some length had no normal forms at all, and
    since prefixes of irreducibles are irreducible there are none longer:
    the count is then the group order. The default max_len is the rule
    automaton's state count: when ``language_infinite`` is false no
    normal form's path repeats a state, so that count stabilizes.
    """
    if not system.confluent:
        raise ValueError("normal form counting needs a confluent system")
    automaton = system._get_index()
    if max_len is None:
        max_len = automaton.num_states
    row = automaton.row
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
