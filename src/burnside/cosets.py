"""Coset enumeration (Todd-Coxeter, Felsch strategy) and what closure buys.

The enumerator defines cosets one table gap at a time and immediately
propagates every new table entry through all cyclic conjugates of the
relators (bucketed by first letter), so the table is deduction-closed
whenever a coset is defined. A new edge a -x-> b is scanned once, from
a: the conjugates are closed under inversion, so every relator cycle
through the edge leaves a along x in one of them, and the closure does
not depend on the order of the scans. Coincidences collapse through a
union-find whose roots are the lowest live coset numbers; coset 0 (the
subgroup itself) can never die. The run either closes, yielding the
exact coset table, or exhausts its definition budget.

The table is stored by letter, one column per letter indexed by coset,
and each conjugate carries, built once, the columns its scan reads. A
scan of the edge a -w[0]-> e along conjugate w first reads the two
steps beside the edge, from e along w[1] and back from a along w[-1].
Where both are gaps, the cycle has two and the scan stops; most scans
end there or one walk later. Where one is a gap, the other side walks
to it: it cannot pass a gap it knows, so it walks its columns without a
bound and either deduces the gap, or meets a second one, or closes the
cycle. Only where neither is a gap are the middle columns walked from
both ends. A scan of conjugate w that deduces the entry at w's position
i closes the cycle of the conjugate starting there, so that conjugate
is skipped when the new entry is scanned; the closure, every definition
and every table stay the same.

Everything downstream that says "order" or "trace" sits on a closed
table: a closed table over the trivial subgroup is the regular action of
the group on itself, so element orders, conjugacy and the center are all
plain permutation computations here, and where coset 0 goes already
decides an element. A closed table keeps the enumerator's layout, one
column per letter, and so does every finite action built on one
(``Action``: the realization here, ``subgrp.QuotientAction``), with one
breadth-first transversal and one ``trace``.

A ``Prefetch`` runs one whole-presentation enumeration ahead of need.
It makes the first ``IN_PROCESS_DEFINITIONS`` definitions itself, which
is where a small stage closes, and only a run that outgrows them goes on
in a forked child process, which continues the same run on a second core
while its owner works on something else. ``enumerate_cosets`` takes the
prefetched table only when it equals what the call would compute itself;
otherwise it discards it and enumerates in the caller, so the answer,
and any error, is the same either way.
"""

from __future__ import annotations

import io
import math
import os
import sys
from functools import cached_property
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence

from .presentation import Presentation
from .words import (Record, Word, format_word, free_reduce, invert,
                    primitive_root, shortlex_key)

DEFAULT_MAX_COSETS = 2 * 10**6

# Felsch definitions a Prefetch makes in its caller before it forks. A
# fork costs the parent 4-6 ms: the fork itself, then about 900
# copy-on-write page faults as it goes on writing its heap. The rank-7
# stage of the (2,4) tower makes its first 1,024 definitions in about
# 3.6 ms (2-core x86-64 host, Python 3.11), so a stage that closes within
# this many definitions is done in process in less time than a fork costs.
IN_PROCESS_DEFINITIONS = 1024

# the column of the empty word: every coset stays where it is
_IDENTITY = range(sys.maxsize)


class BudgetExhausted(Exception):
    pass


class _Enumerator:
    def __init__(self, p: Presentation, max_cosets: int):
        self.ns = p.num_symbols
        self.max_cosets = max_cosets
        # cols[x][c] is where coset c goes along letter x, -1 for a gap;
        # the columns only grow in place, as the conjugates hold them
        self.cols: List[List[int]] = [[-1] for _ in range(self.ns)]
        self.p = [0]
        self.deductions: List = []  # (coset, letter, conjugate it closed)
        self.defined_total = 1
        self.buckets = self._conjugates(p.relators)

    def _conjugates(self, relators: Sequence[Word]) -> List[list]:
        # Cyclic conjugates of each relator and its inverse, by first
        # letter. Rotations repeat with the primitive root's period q, so
        # only the offsets below it can be new. A conjugate w of length n
        # is a tuple (f1, fmid, flast, b1, bmid, blast, w, family, k) of
        # the columns its scan reads: f1 = cols[w[1]], fmid those of
        # w[2:n-1] and flast = cols[w[n-1]] going forward, b1 =
        # cols[w[n-1] ^ 1], bmid the inverse columns of w[2:n-1] from the
        # end and blast = cols[w[1] ^ 1] going backward. A word shorter
        # than 3 reads as if the empty word (_IDENTITY) stood after its
        # first letter until it had 3. w is rotation k of family's q
        # distinct rotations, so the conjugate that starts at its
        # position i is family[(k + i) % q].
        cols = self.cols
        buckets: List[list] = [[] for _ in range(self.ns)]
        seen: dict = {}
        for r in relators:
            for w in (r, invert(r)):
                n = len(w)
                ahead = tuple(cols[y] for y in w) * 2
                back = tuple(cols[y ^ 1] for y in w) * 2
                family: list = []
                for k in range(len(primitive_root(w)[0])):
                    rot = w[k:] + w[:k]
                    conj = seen.get(rot)
                    if conj is None:
                        if n >= 3:
                            steps = (ahead[k + 1], ahead[k + 2:k + n - 1],
                                     ahead[k + n - 1], back[k + n - 1],
                                     back[k + n - 2:k + 1:-1], back[k + 1])
                        elif n == 2:
                            steps = (_IDENTITY, (), ahead[k + 1],
                                     back[k + 1], (), _IDENTITY)
                        else:
                            steps = (_IDENTITY, (), _IDENTITY,
                                     _IDENTITY, (), _IDENTITY)
                        conj = seen[rot] = steps + (rot, family, k)
                        buckets[rot[0]].append(conj)
                    family.append(conj)
        return buckets

    # -- union-find ------------------------------------------------------

    def rep(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    # -- table writes ----------------------------------------------------

    def set_entry(self, a: int, x: int, b: int):
        self.cols[x][a] = b
        self.cols[x ^ 1][b] = a
        self.deductions.append((a, x, None))

    def define(self, a: int, x: int):
        if self.defined_total >= self.max_cosets:
            raise BudgetExhausted
        b = len(self.p)
        cols = self.cols
        for col in cols:
            col.append(-1)
        self.p.append(b)
        self.defined_total += 1
        cols[x][a] = b
        cols[x ^ 1][b] = a
        self.deductions.append((a, x, None))

    # -- coincidences ----------------------------------------------------

    def _merge(self, a: int, b: int, queue: List[int]):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            self.p[hi] = lo
            queue.append(hi)

    def coincidence(self, a: int, b: int):
        cols = self.cols
        queue: List[int] = []
        self._merge(a, b, queue)
        i = 0
        while i < len(queue):
            dead = queue[i]
            i += 1
            for x in range(self.ns):
                col, inv = cols[x], cols[x ^ 1]
                d = col[dead]
                if d == -1:
                    continue
                inv[d] = -1
                mu = self.rep(dead)
                nu = self.rep(d)
                if col[mu] != -1:
                    self._merge(nu, col[mu], queue)
                elif inv[nu] != -1:
                    self._merge(mu, inv[nu], queue)
                else:
                    self.set_entry(mu, x, nu)

    # -- scanning --------------------------------------------------------

    def fill(self, a: int, word: Word):
        """Trace the cycle a -word-> a, defining cosets until it closes."""
        f = a
        i = 0
        b = a
        j = len(word) - 1
        cols = self.cols
        while True:
            while i <= j:
                d = cols[word[i]][f]
                if d == -1:
                    break
                f = d
                i += 1
            while j >= i:
                d = cols[word[j] ^ 1][b]
                if d == -1:
                    break
                b = d
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                self.set_entry(f, word[i], b)
                return
            self.define(f, word[i])

    def process_deductions(self):
        # Scan each new edge a -x-> e once, from a, along the conjugates
        # w that start with x (see the module docstring). The two steps
        # beside the edge come first, from e along w[1] (f1) and back
        # from a along w[-1] (b1): where both are gaps the cycle has two
        # and the scan stops. Where one is, the other side walks all its
        # columns up to that gap, so the walk needs no bound; only where
        # neither is are the middle columns walked from both ends. A
        # conjugate's fields are read by position, in the order that
        # _conjugates gives, as unpacking all nine would cost more than
        # most scans. An entry that a scan deduces closes the cycle of the
        # conjugate starting at it, so that conjugate's scan is skipped.
        # A coincidence moves a dead row's entries to its root, so
        # cols[x][a] stays defined while a lives.
        cols, p, deductions = self.cols, self.p, self.deductions
        buckets = self.buckets
        while deductions:
            a, x, closed = deductions.pop()
            col = cols[x]
            e = col[a]
            if p[a] != a or e == -1:
                continue
            for conj in buckets[x]:
                if conj is closed:
                    continue
                f = conj[0][e]
                b = conj[3][a]
                if f == -1:
                    if b == -1:
                        continue
                    for c in conj[4]:
                        d = c[b]
                        if d == -1:
                            break
                        b = d
                    else:
                        f = conj[5][b]
                        if f == -1:  # the one gap is w[1], from e
                            conj[0][e] = b
                            conj[5][b] = e
                            w, family, k = conj[6:]
                            deductions.append((e, w[1],
                                               family[(k + 1) % len(family)]))
                            continue
                        b = e  # the cycle closes: f and e are one coset
                    if f == -1:  # the walk stopped at a second gap
                        continue
                elif b == -1:
                    for c in conj[1]:
                        d = c[f]
                        if d == -1:
                            break
                        f = d
                    else:
                        b = conj[2][f]
                        if b == -1:  # the one gap is w[-1], into a
                            conj[2][f] = a
                            conj[3][a] = f
                            w, family, k = conj[6:]
                            i = len(w) - 1
                            deductions.append((f, w[i],
                                               family[(k + i) % len(family)]))
                            continue
                        f = a  # the cycle closes: b and a are one coset
                    if b == -1:
                        continue
                else:
                    fmid = conj[1]
                    i = 0  # the middle edges f has crossed
                    for c in fmid:
                        d = c[f]
                        if d == -1:
                            break
                        f = d
                        i += 1
                    left = len(fmid) - i  # the middle edges from f to b
                    bmid = conj[4]
                    t = 0
                    while t < left:
                        d = bmid[t][b]
                        if d == -1:
                            break
                        b = d
                        t += 1
                    left -= t
                    if left == 1:
                        fmid[i][f] = b
                        bmid[t][b] = f
                        w, family, k = conj[6:]
                        deductions.append((f, w[i + 2],
                                           family[(k + i + 2) % len(family)]))
                        continue
                    if left or f == b:
                        continue
                self.coincidence(f, b)
                if p[a] != a:
                    break
                e = col[a]
                assert e != -1, "a coincidence vacated a live entry"

    def run(self):
        cols, p = self.cols, self.p
        a = 0
        while a < len(p):
            for x, col in enumerate(cols):
                if p[a] != a:
                    break
                if col[a] == -1:
                    self.define(a, x)
                    self.process_deductions()
            a += 1

    def live_count(self) -> int:
        return sum(1 for c in range(len(self.p)) if self.p[c] == c)


class CosetTable(Record):
    """Result of an enumeration. cols is None unless status == "closed";
    a closed table is stored by letter, cols[x][c] being where coset c
    goes along letter x, with its cosets compacted in definition order,
    coset 0 first. Columns are the one layout of a finite action here."""

    def __init__(self, rank: int, status: str, num_cosets: int,
                 defined_total: int, subgroup: tuple = (),
                 cols: Optional[list] = None):
        self.rank = rank
        self.status = status  # "closed" | "exhausted"
        self.num_cosets = num_cosets
        self.defined_total = defined_total
        self.subgroup = subgroup
        self.cols = cols

    @property
    def closed(self) -> bool:
        return self.status == "closed"


def enumerate_cosets(p: Presentation, subgroup: Sequence[Word] = (),
                     max_cosets: int = DEFAULT_MAX_COSETS,
                     prefetch: Optional[Prefetch] = None) -> CosetTable:
    """Felsch enumeration of the cosets of <subgroup> in the presented group.

    Over the trivial subgroup, a ``prefetch`` that already ran this
    enumeration hands its table over instead (see ``Prefetch.take``).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    subgroup = tuple(free_reduce(tuple(w)) for w in subgroup)
    if prefetch is not None and not subgroup:
        table = prefetch.take(p, max_cosets)
        if table is not None:
            return table
    return _finish(p, _Enumerator(p, max_cosets), subgroup)


def _finish(p: Presentation, enum: _Enumerator,
            subgroup: tuple = ()) -> CosetTable:
    """Run ``enum`` to its end, after tracing the subgroup generators from
    coset 0, and read its table off.

    Over the trivial subgroup, a run that exhausted can be finished again
    with a larger ``enum.max_cosets``: ``define`` raises before it changes
    anything, when ``process_deductions`` has emptied the deduction stack,
    and ``run`` starts again at the same first gap. No definition repeats,
    so the table, ``defined_total`` included, is the one a run at the
    larger budget from the start gives.
    """
    try:
        for g in subgroup:
            if g:
                enum.fill(0, g)
                enum.process_deductions()
        enum.run()
    except BudgetExhausted:
        return CosetTable(
            rank=p.rank, status="exhausted", num_cosets=enum.live_count(),
            defined_total=enum.defined_total, subgroup=subgroup,
        )
    # compact live cosets in definition order, a column at a time; an
    # entry naming a dead coset is renumbered through its root, and a
    # root is always lower than the cosets merged into it
    renum = [0] * len(enum.p)
    live = []
    for c, root in enumerate(enum.p):
        if root == c:
            renum[c] = len(live)
            live.append(c)
        else:
            renum[c] = renum[root]
    cols = []
    for col in enum.cols:
        col = _gather(col, live)
        if -1 in col:
            raise AssertionError("closed table has a gap")
        cols.append(_gather(renum, col))
    table = CosetTable(
        rank=p.rank, status="closed", num_cosets=len(live),
        defined_total=enum.defined_total, subgroup=subgroup, cols=cols,
    )
    _validate_closed(p, table)
    return table


class Prefetch:
    """At most one whole-presentation enumeration, run ahead of need.

    ``start`` runs the enumeration's first ``IN_PROCESS_DEFINITIONS``
    definitions in the caller. A run that closes within them, or whose
    budget is no larger, keeps its table here. A run that outgrows them
    goes on in a forked child process, so a second core works on it
    meanwhile: the child continues the same Felsch run up to the whole
    budget (see ``_finish``) and sends its table back through a pipe,
    pickled. It reports no error, because a failed child only makes the
    parent enumerate itself. The owner calls ``close`` in a ``finally``.
    A run that forks needs POSIX (``os.fork``) and a process that runs no
    other threads.
    """

    def __init__(self):
        # (presentation, max_cosets, pid, pipe read end, table): a child's
        # job has no table yet, and a table made in process has no child
        self._job = None

    def start(self, p: Presentation, max_cosets: int):
        """Enumerate p's cosets at max_cosets, in a child once the run
        outgrows ``IN_PROCESS_DEFINITIONS``; a job held for another
        presentation or budget is dropped first, its child killed."""
        if self._job is not None and self._job[:2] == (p, max_cosets):
            return
        self.close()
        enum = _Enumerator(p, min(max_cosets, IN_PROCESS_DEFINITIONS))
        table = _finish(p, enum)
        if table.closed or max_cosets <= IN_PROCESS_DEFINITIONS:
            self._job = (p, max_cosets, None, None, table)
            return
        import pickle  # here, not at module load: only a forking run pays

        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child exits 0 only once the whole table is sent
            status = 1
            try:
                os.close(read)
                enum.max_cosets = max_cosets
                data = pickle.dumps(_finish(p, enum), pickle.HIGHEST_PROTOCOL)
                with open(write, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                # skips the parent's exit handlers and buffered output; an
                # error leaves the enumeration, and its report, to the parent
                os._exit(status)
        os.close(write)
        self._job = (p, max_cosets, pid, read, None)

    def take(self, p: Presentation, max_cosets: int) -> Optional[CosetTable]:
        """The prefetched table if it is what ``enumerate_cosets(p, (),
        max_cosets)`` would return, else None; either way the job is
        gone. For the same presentation this waits for a child. A run with
        a larger budget closes identically within a smaller one when it
        defined no more cosets than that: Felsch reads its budget only
        when it reaches it."""
        if self._job is None or self._job[0] != p:
            self.close()
            return None
        _, budget, pid, read, table = self._job
        if pid is None:
            self._job = None
        else:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()  # until the child exits
            if self._reap(kill=False) != 0:
                return None
            import pickle

            table = pickle.loads(data)
        if budget == max_cosets or (table.closed
                                    and table.defined_total <= max_cosets):
            return table
        return None

    def close(self):
        """Kill and reap the child, if there is one, and drop the job."""
        if self._job is not None and self._job[2] is not None:
            self._reap(kill=True)
        self._job = None

    def _reap(self, kill: bool) -> int:
        _, _, pid, read, _ = self._job
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        self._job = None
        os.close(read)
        return os.waitstatus_to_exitcode(status)


def _gather(seq: Sequence[int], idx: Sequence[int]) -> tuple:
    """(seq[i] for i in idx) as a tuple, gathered in C; idx is not empty."""
    return itemgetter(*idx)(seq) if len(idx) > 1 else (seq[idx[0]],)


def _validate_closed(p: Presentation, t: CosetTable):
    """Soundness self-check of a closed table: relators act trivially and
    the subgroup fixes coset 0.

    A relator u^k (u its primitive root) is checked as a map on all
    cosets at once: the map of u, composed a letter at a time, raised to
    the k-th power by repeated squaring. Composition is associative, so
    this is the map that tracing u^k letter by letter gives."""
    cols = t.cols
    start = tuple(range(t.num_cosets))
    for r in p.relators:
        u, k = primitive_root(r)
        step = start
        for x in u:
            step = _gather(cols[x], step)
        cur = start
        while True:  # cur is the map of u^(k's bits read so far)
            if k & 1:
                cur = _gather(step, cur)
            k >>= 1
            if not k:
                break
            step = _gather(step, step)
        if cur != start:
            raise AssertionError("relator does not stabilize a coset")
    for g in t.subgroup:
        if trace(cols, 0, g) != 0:
            raise AssertionError("subgroup generator moves coset 0")


def export_csv(t: CosetTable) -> str:
    """Closed table as CSV: one row per coset, one column per letter."""
    if not t.closed:
        raise ValueError("only closed tables export")
    from .words import letter as mk

    buf = io.StringIO()
    headers = ["coset"]
    for i in range(1, t.rank + 1):
        headers.append(format_word((mk(i),), t.rank))
        headers.append(format_word((mk(i, True),), t.rank))
    buf.write(",".join(headers) + "\n")
    for c, row in enumerate(zip(*t.cols)):
        buf.write(",".join([str(c)] + [str(d) for d in row]) + "\n")
    return buf.getvalue()


def trace(cols: Sequence[Sequence[int]], c: int, word: Iterable[int]) -> int:
    """Where point c goes along word, in the action given by cols."""
    for x in word:
        c = cols[x][c]
    return c


def transversal(cols: Sequence[Sequence[int]], size: int) -> List[Word]:
    """Shortlex-least word taking point 0 to each of the size points,
    breadth-first over points, then letters in order. It is also the
    transitivity check: an action that leaves a point unreached raises
    ValueError."""
    reps: List[Optional[Word]] = [None] * size
    reps[0] = ()
    queue = [0]
    for c in queue:  # grows while it is read
        rep = reps[c]
        for x, col in enumerate(cols):
            d = col[c]
            if reps[d] is None:
                reps[d] = rep + (x,)
                queue.append(d)
    if len(queue) != size:
        raise ValueError("the action is not transitive: "
                         f"{len(queue)} of {size} points reached from 0")
    return reps  # type: ignore[return-value]


class Action:
    """A finite transitive action stored by columns: cols[x][c] is where
    point c goes along letter x, for every letter, inverses included.
    reps[c] is the shortlex-least word taking point 0 to c. An action
    that is not transitive raises ValueError."""

    def __init__(self, cols: Sequence[Sequence[int]], size: int):
        self.cols = cols
        self.size = size
        self.reps: List[Word] = transversal(cols, size)

    def trace(self, c: int, word: Iterable[int]) -> int:
        return trace(self.cols, c, word)

    def eval_word(self, word: Iterable[int]) -> int:
        return trace(self.cols, 0, word)

    def element_order(self, word: Word) -> int:
        """The least d >= 1 with word^d fixing point 0: in a regular
        action the order of word, in any transitive one the least power
        of word in the stabilizer of 0."""
        cols = self.cols
        c = trace(cols, 0, word)
        d = 1
        while c:
            c = trace(cols, c, word)
            d += 1
        return d


class FiniteRealization(Action):
    """The regular action read off a closed table over the trivial subgroup.

    Cosets are group elements; tracing a word from coset 0 is evaluation.
    Element c's canonical word is the shortlex-least word reaching c.
    """

    def __init__(self, table: CosetTable):
        if not table.closed:
            raise ValueError("realization needs a closed table")
        if table.subgroup:
            raise ValueError("realization needs the trivial subgroup")
        super().__init__(table.cols, table.num_cosets)
        self.order = table.num_cosets
        self.rank = table.rank

    @cached_property
    def element_orders(self) -> List[int]:
        """Order of every element, indexed by coset.

        One trace of an element g of order d passes through all its
        powers, and g^k has order d / gcd(k, d), so an element met on an
        earlier trace is never traced itself.
        """
        cols = self.cols
        orders = [1] + [0] * (self.order - 1)
        for c in range(1, self.order):
            if orders[c]:
                continue
            word = self.reps[c]
            powers, cur = [0], c  # powers[k] is the coset of word^k
            while cur:
                powers.append(cur)
                cur = trace(cols, cur, word)
            d = len(powers)
            for k, p in enumerate(powers):
                orders[p] = d // math.gcd(k, d)
        return orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders)


def realize(table: CosetTable) -> FiniteRealization:
    return FiniteRealization(table)


def conjugacy_decide(r: FiniteRealization, u: Word, v: Word):
    """Whether u and v are conjugate; returns (True, g) with g^-1 u g = v
    (so the example pair (ab, ba) gets witness g = a), else (False, None).

    Candidates g run over the reps in coset order. g^-1 u g = v means
    u g = g v, and in the regular action two elements are equal iff they
    send coset 0 to the same place, so one trace of each side decides.
    """
    cu = r.eval_word(u)
    for c, g in enumerate(r.reps):
        if r.trace(cu, g) == r.trace(c, v):
            return True, g
    return False, None


def center(r: FiniteRealization):
    """Words (shortlex reps) of the elements commuting with everything.

    z is central iff it commutes with each plain generator x, that is
    iff z x and x z send coset 0 to the same place.
    """
    gens = r.cols[0::2]
    out = []
    for c, z in enumerate(r.reps):
        if all(col[c] == r.trace(col[0], z) for col in gens):
            out.append(z)
    out.sort(key=shortlex_key)
    return out
