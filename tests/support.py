"""Reference helpers shared by several test modules; the engine needs none."""

import csv
import heapq
import inspect
import io
import itertools
import math
import os
from collections import deque
from fractions import Fraction

from burnside import cosets, kernels, rewrite, subgrp
from burnside.words import format_word, invert, letter, power, shortlex_key

# the JSON type of every field an order certificate must carry
CERT_TYPES = {"schema": str, "presentation": dict, "word": str, "power": int,
              "quotient": dict, "kernel_index": int, "homomorphism": list,
              "value": int}
# one value of each JSON type
JSON_JUNK = (None, "x", 1.5, True, ["x"], {"x": 1})


def replaced(record, **changes):
    """A copy of an engine record with some fields changed, built by its
    constructor from the record's own values for the rest."""
    params = inspect.signature(type(record)).parameters
    fields = {name: getattr(record, name) for name in params}
    return type(record)(**{**fields, **changes})


def count_enumerations(monkeypatch) -> list:
    """Route cosets.enumerate_cosets through a counter for this test;
    the returned list collects the budget of each call. A Prefetch runs
    its enumeration without this call, in process or in its child, so a
    table it hands over counts once, as the call that takes it."""
    budgets = []
    enumerate_cosets = cosets.enumerate_cosets

    def counted(p, subgroup=(), max_cosets=cosets.DEFAULT_MAX_COSETS,
                prefetch=None):
        budgets.append(max_cosets)
        return enumerate_cosets(p, subgroup, max_cosets, prefetch=prefetch)

    monkeypatch.setattr(cosets, "enumerate_cosets", counted)
    return budgets


def count_cycle_letters(monkeypatch) -> list:
    """Route subgrp.Kernel.cycle through a counter for this test; the
    returned list collects (relator count of the kernel's presentation,
    letters the walk traced) of each call."""
    traced = []
    cycle = subgrp.Kernel.cycle

    def counted(self, w, c):
        points, v = cycle(self, w, c)
        traced.append((len(self.presentation.relators), len(w) * len(points)))
        return points, v

    monkeypatch.setattr(subgrp.Kernel, "cycle", counted)
    return traced


def count_completions(monkeypatch) -> list:
    """Route every Knuth-Bendix completion through a counter for this
    test; the returned list collects (stage rank, max_len, max_steps,
    steps) of each call, the stage rank being one more than the relator
    count of the presentation seeded by rewrite.rules_from_presentation
    (None for a system built otherwise), and steps those of the system
    the call returned."""
    calls = []
    ranks = {}  # id of a seed -> (the seed, its stage rank)
    seed_rules = rewrite.rules_from_presentation
    knuth_bendix = rewrite.knuth_bendix

    def seeded(p):
        system = seed_rules(p)
        ranks[id(system)] = (system, len(p.relators) + 1)
        return system

    def counted(system, max_rules=rewrite.DEFAULT_MAX_RULES,
                max_len=rewrite.DEFAULT_MAX_LEN,
                max_steps=rewrite.DEFAULT_MAX_STEPS):
        rank = ranks.get(id(system), (None, None))[1]
        end = knuth_bendix(system, max_rules, max_len, max_steps)
        calls.append((rank, max_len, max_steps, end.stats["steps"]))
        return end

    monkeypatch.setattr(rewrite, "rules_from_presentation", seeded)
    monkeypatch.setattr(rewrite, "knuth_bendix", counted)
    return calls


def count_felsch_runs(monkeypatch) -> list:
    """Collect the budget of each Felsch run started in this process. A
    Prefetch starts its run here at min(max_cosets,
    cosets.IN_PROCESS_DEFINITIONS); a child that continues it counts in
    its own copy of the list."""
    runs = []
    run = cosets._Enumerator.run

    def counted(self):
        runs.append(self.max_cosets)
        return run(self)

    monkeypatch.setattr(cosets._Enumerator, "run", counted)
    return runs


def count_forks(monkeypatch) -> list:
    """Collect, for each os.fork in this process, the presentation whose
    Prefetch.start forked (None for a fork outside one)."""
    forks = []
    starting = []
    fork = os.fork
    start = cosets.Prefetch.start

    def counted_fork():
        forks.append(starting[-1] if starting else None)
        return fork()

    def recorded_start(self, p, max_cosets):
        starting.append(p)
        try:
            start(self, p, max_cosets)
        finally:
            starting.pop()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cosets.Prefetch, "start", recorded_start)
    return forks


def fail_in_children(monkeypatch):
    """Make every Felsch run raise in any process but this one."""
    parent = os.getpid()
    run = cosets._Enumerator.run

    def fails_in_child(self):
        if os.getpid() != parent:
            raise AssertionError("enumeration fails in a child")
        return run(self)

    monkeypatch.setattr(cosets._Enumerator, "run", fails_in_child)


class TwoSidedEnumerator:
    """Reference for cosets._Enumerator: the same Felsch run on a table
    stored by coset (table[c][x]), with each new edge a -x-> b scanned
    twice, from a along every conjugate starting with x and again from b
    along every one starting with x^-1, and no conjugate skipped. It
    shares no code with the engine's enumerator; results must agree
    exactly."""

    def __init__(self, p, max_cosets):
        self.ns = p.num_symbols
        self.max_cosets = max_cosets
        self.table = [[-1] * self.ns]
        self.p = [0]
        self.deductions = []
        self.defined_total = 1
        self.rot_buckets = [[] for _ in range(self.ns)]
        seen = set()
        for r in p.relators:
            for w in (r, invert(r)):
                for i in range(len(w)):
                    rot = w[i:] + w[:i]
                    if rot not in seen:
                        seen.add(rot)
                        self.rot_buckets[rot[0]].append(rot)

    def rep(self, c):
        while self.p[c] != c:
            c = self.p[c]
        return c

    def alive(self, c):
        return self.p[c] == c

    @property
    def cols(self):
        """The table by letter, as enumerate_cosets compacts it."""
        return [list(col) for col in zip(*self.table)]

    def live_count(self):
        return sum(1 for c in range(len(self.p)) if self.alive(c))

    def set_entry(self, a, x, b):
        self.table[a][x] = b
        self.table[b][x ^ 1] = a
        self.deductions.append((a, x))

    def define(self, a, x):
        if self.defined_total >= self.max_cosets:
            raise cosets.BudgetExhausted
        b = len(self.table)
        self.table.append([-1] * self.ns)
        self.p.append(b)
        self.defined_total += 1
        self.set_entry(a, x, b)

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            self.p[max(a, b)] = min(a, b)
            queue.append(max(a, b))

    def coincidence(self, a, b):
        queue = []
        self.merge(a, b, queue)
        for dead in queue:  # grows while it is read
            for x in range(self.ns):
                d = self.table[dead][x]
                if d == -1:
                    continue
                self.table[d][x ^ 1] = -1
                mu, nu = self.rep(dead), self.rep(d)
                if self.table[mu][x] != -1:
                    self.merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x ^ 1] != -1:
                    self.merge(mu, self.table[nu][x ^ 1], queue)
                else:
                    self.set_entry(mu, x, nu)

    def trace(self, a, word, define):
        """Trace the cycle a -word-> a from both ends. Where one gap is
        left, deduce it; where more are, define across the first if
        define is set, else stop. Where none is, identify the ends."""
        f, i, b, j = a, 0, a, len(word) - 1
        while True:
            while i <= j and self.table[f][word[i]] != -1:
                f = self.table[f][word[i]]
                i += 1
            while j >= i and self.table[b][word[j] ^ 1] != -1:
                b = self.table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                self.set_entry(f, word[i], b)
                return
            if not define:
                return
            self.define(f, word[i])

    def fill(self, a, word):
        self.trace(a, word, define=True)

    def process_deductions(self):
        while self.deductions:
            a, x = self.deductions.pop()
            if self.alive(a) and self.table[a][x] != -1:
                for w in self.rot_buckets[x]:
                    if not self.alive(a):
                        break
                    self.trace(a, w, define=False)
            if not self.alive(a):
                continue
            b = self.table[a][x]
            if b != -1 and self.alive(b):
                for w in self.rot_buckets[x ^ 1]:
                    if not self.alive(b):
                        break
                    self.trace(b, w, define=False)

    def run(self):
        a = 0
        while a < len(self.table):
            for x in range(self.ns):
                if not self.alive(a):
                    break
                if self.table[a][x] == -1:
                    self.define(a, x)
                    self.process_deductions()
            a += 1


def table_csv(t) -> str:
    """A FiniteGroupTable in the CSV form FiniteGroupTable.from_csv reads:
    a header row, then one row of products per element."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["order", t.order, "name", t.name])
    writer.writerows(t.rows)
    return buf.getvalue()


def exponent(t) -> int:
    """The lcm of the element orders of a FiniteGroupTable."""
    return math.lcm(*(t.element_order(g) for g in range(t.order)))


def is_abelian(t) -> bool:
    """Whether every two elements of a FiniteGroupTable commute."""
    return all(t.rows[g][h] == t.rows[h][g]
               for g in range(t.order) for h in range(g))


def _level_join(rows, span, prefix, a):
    """<span, a> for span = <prefix>: the old span is already closed under
    prefix, so only a is applied to it; new elements take every generator."""
    seen = set(span)
    frontier = span
    step = (a,)
    while frontier:
        nxt = []
        for g in frontier:
            row = rows[g]
            for s in step:
                h = row[s]
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        step = (*prefix, a)
    return frozenset(seen)


def level_generating_tuple(table) -> list:
    """The lexicographically first generating tuple of minimal size, by
    the level-by-level search dihedral.minimal_generating_tuple used to
    run: increasing tuples grow one size at a time from size 1, and each
    size keeps only the first tuple reaching each span."""
    order = table.order
    if order == 1:
        return []
    rows = table.rows
    # span -> first tuple reaching it; insertion order is lexicographic
    level = {frozenset((0,)): []}
    while level:
        grown_level = {}
        for span, prefix in level.items():
            for a in range(prefix[-1] + 1 if prefix else 1, order):
                if a in span:
                    continue
                grown = _level_join(rows, span, prefix, a)
                if len(grown) == order:
                    return prefix + [a]
                grown_level.setdefault(grown, prefix + [a])
        level = grown_level
    raise AssertionError("a finite group always has a generating set")


def mat_mul(A: list, B: list) -> list:
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    cols = len(B[0])
    out = []
    for row in A:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                Bk = B[k]
                for j in range(cols):
                    acc[j] += a * Bk[j]
        out.append(acc)
    return out


def determinant(M: list) -> int:
    """Fraction-free (Bareiss) determinant over exact ints."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def multiplication_table(realization) -> list:
    """order x order table of a FiniteRealization: entry [i][j] is the
    index of reps[i]*reps[j], i.e. reps[j] traced from coset i."""
    reps = realization.reps
    return [[realization.trace(i, w) for w in reps]
            for i in range(realization.order)]


def determinantal_divisors(M: list) -> list:
    """[D_1, ..., D_r] for r = min(rows, cols): D_k is the gcd of all
    k x k minors of M (0 once every k x k minor vanishes)."""
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    out = []
    for k in range(1, min(nrows, ncols) + 1):
        if out and out[-1] == 0:
            # every (k-1)-minor vanishes, so by Laplace so does every k-minor
            out.append(0)
            continue
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                g = math.gcd(g, determinant([[M[i][j] for j in cols]
                                             for i in rows]))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
    return out


def check_smith_form(M: list, S: list, V: list, ncols: int) -> None:
    """Assert that (S, V) is a Smith normal form of M with its column
    transform, without a row transform U.

    Four checks that together say U*M*V == S for some unimodular U:
    V is unimodular; S is diagonal and nonnegative with d_i | d_{i+1};
    every row of M*V lies in the row lattice of S; and d_1...d_k equals
    the gcd of the k x k minors of M for every k.
    """
    assert len(V) == ncols and all(len(row) == ncols for row in V)
    assert determinant(V) in (1, -1)
    assert len(S) == len(M)
    diag = []
    for i, row in enumerate(S):
        assert len(row) == ncols
        for j, v in enumerate(row):
            if i == j:
                diag.append(v)
            else:
                assert v == 0, (i, j, S)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0, diag
    for row in mat_mul(M, V):
        for j, v in enumerate(row):
            d = diag[j] if j < len(diag) else 0
            assert (v % d == 0) if d else v == 0, (row, diag)
    assert list(itertools.accumulate(diag, lambda a, b: a * b)) == \
        determinantal_divisors(M), (M, diag)


def in_rational_row_space(M: list, v: list) -> bool:
    """Whether v is a rational combination of the rows of M, by Gaussian
    elimination over Fraction: a reference for the certifier, which
    finds w infinite exactly when its kernel vector is not."""
    basis = []  # (pivot, row with a 1 there and 0 at every earlier pivot)

    def reduce(row):
        r = [Fraction(a) for a in row]
        for j, b in basis:
            if r[j]:
                r = [x - r[j] * y for x, y in zip(r, b)]
        return r

    for row in M:
        r = reduce(row)
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / r[pivot] for x in r]))
    return not any(reduce(v))


def element_row(r, word) -> tuple:
    """The whole permutation a word induces on a FiniteRealization's
    cosets: row[c] is c traced along the word."""
    return tuple(r.trace(c, word) for c in range(r.order))


def center_by_rows(r) -> list:
    """Full-row reference for cosets.center: z is central iff its row
    commutes with each plain generator's row at every coset."""
    gens = [(x,) for x in range(0, 2 * r.rank, 2)]
    gen_rows = [element_row(r, g) for g in gens]
    out = []
    for c in range(r.order):
        w = r.reps[c]
        row_w = element_row(r, w)
        if all(row_w[gr[k]] == gr[row_w[k]]
               for gr in gen_rows for k in range(r.order)):
            out.append(w)
    out.sort(key=shortlex_key)
    return out


def conjugacy_by_rows(r, u, v):
    """Full-row reference for cosets.conjugacy_decide: the first rep g
    (in coset order) whose row satisfies row(u) row(g) = row(g) row(v)
    at every coset."""
    row_u = element_row(r, u)
    row_v = element_row(r, v)
    for c in range(r.order):
        g = r.reps[c]
        row_g = element_row(r, g)
        if all(row_g[row_u[k]] == row_v[row_g[k]] for k in range(r.order)):
            return True, g
    return False, None


def _contains_factor(big, small) -> bool:
    n = len(small)
    if n > len(big):
        return False
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


class DropAllAutomaton(kernels.RuleAutomaton):
    """Reference for kernels.RuleAutomaton: every insert and retire drops
    every filled row, so each row is filled against the current lhs set."""

    __slots__ = ()

    def insert(self, rule_id, lhs, rhs):
        super().insert(rule_id, lhs, rhs)
        self._drop("")

    def retire(self, rule_id):
        super().retire(rule_id)
        self._drop("")


def knuth_bendix_eager(system, max_rules=rewrite.DEFAULT_MAX_RULES,
                       max_len=rewrite.DEFAULT_MAX_LEN,
                       max_steps=rewrite.DEFAULT_MAX_STEPS):
    """Reference for rewrite.knuth_bendix: the same completion with every
    critical pair pushed onto the heap as it is generated, interreduction
    over every active rule by a slice loop over tuples, and an automaton
    that drops every filled row on a rule change. Results must agree
    exactly."""
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
    automaton = DropAllAutomaton(num_symbols)

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
        pair = rewrite.orient(u, v)
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
    return rewrite.RewritingSystem(system.rank, final,
                                   confluent=budget_hit is None, stats=stats)


# --- the row layout, a reference for the column layout ----------------------
#
# Finite actions were once stored by coset: rows[c][x] is where coset c goes
# along letter x. What follows is that code, kept as a reference: the
# column layout must give the same transversal, orders, center, conjugacy
# witnesses, CSV bytes, Schreier generators and relation rows.


def table_rows(t) -> list:
    """A closed CosetTable's rows, read off its columns."""
    return [list(row) for row in zip(*t.cols)]


def row_transversal(rows: list, rank: int) -> list:
    """Shortlex-minimal word reaching each coset from 0 (BFS, letter order)."""
    n = len(rows)
    reps = [None] * n
    reps[0] = ()
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for x in range(2 * rank):
            d = rows[c][x]
            if reps[d] is None:
                reps[d] = reps[c] + (x,)
                queue.append(d)
    if any(r is None for r in reps):
        raise AssertionError("coset graph is not connected")
    return reps


class RowRealization:
    """The regular action of a closed table over the trivial subgroup,
    stored by rows."""

    def __init__(self, t):
        self.rows = table_rows(t)
        self.order = t.num_cosets
        self.rank = t.rank
        self.reps = row_transversal(self.rows, t.rank)

    def trace(self, c, word):
        for x in word:
            c = self.rows[c][x]
        return c

    def element_order(self, word):
        c = self.trace(0, word)
        d = 1
        while c != 0:
            c = self.trace(c, word)
            d += 1
        return d

    def element_orders(self) -> list:
        return [self.element_order(w) for w in self.reps]

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def center(self) -> list:
        rows = self.rows
        out = [z for c, z in enumerate(self.reps)
               if all(rows[c][x] == self.trace(rows[0][x], z)
                      for x in range(0, 2 * self.rank, 2))]
        out.sort(key=shortlex_key)
        return out

    def conjugacy_decide(self, u, v):
        cu = self.trace(0, u)
        for c, g in enumerate(self.reps):
            if self.trace(cu, g) == self.trace(c, v):
                return True, g
        return False, None


def rows_csv(t) -> str:
    """cosets.export_csv written from the table's rows."""
    headers = ["coset"]
    for i in range(1, t.rank + 1):
        headers.append(format_word((letter(i),), t.rank))
        headers.append(format_word((letter(i, True),), t.rank))
    lines = [",".join(headers)]
    for c, row in enumerate(table_rows(t)):
        lines.append(",".join([str(c)] + [str(d) for d in row]))
    return "".join(line + "\n" for line in lines)


def quotient_rows(spec: dict, rank: int) -> list:
    """The rows of a valid quotient spec's action: element 0 is the
    identity; an abelian spec's elements are its coordinate tuples in
    lexicographic order."""
    if spec["kind"] == "abelian":
        moduli = spec["moduli"]
        elements = list(itertools.product(*(range(d) for d in moduli)))
        index = {e: c for c, e in enumerate(elements)}
        return [[index[tuple((a + sign * b) % d
                             for a, b, d in zip(e, img, moduli))]
                 for img in spec["images"] for sign in (1, -1)]
                for e in elements]
    images = spec["images"]
    size = len(images[0]) if images else 1
    inverses = [sorted(range(size), key=perm.__getitem__) for perm in images]
    return [[g[c] for perm, inv in zip(images, inverses) for g in (perm, inv)]
            for c in range(size)]


def row_schreier_data(rows: list, rank: int):
    """(reps, gen_of_edge) of the subgroup a closed table describes: one
    Schreier generator per non-tree edge (c, x), x a plain letter,
    numbered by c, then x."""
    n = len(rows)
    reps = row_transversal(rows, rank)
    tree = set()
    for d in range(1, n):
        x = reps[d][-1]
        tree.add((rows[d][x ^ 1], x))
        tree.add((d, x ^ 1))
    gen_of_edge = {}
    for c in range(n):
        for g in range(0, 2 * rank, 2):
            if (c, g) not in tree:
                gen_of_edge[(c, g)] = len(gen_of_edge)
    return reps, gen_of_edge


def row_exponent_vector(rows: list, gen_of_edge: dict, w, start: int = 0):
    """Signed counts of the Schreier generators a trace of w from start
    crosses, or None when the trace does not return to start."""
    v = [0] * len(gen_of_edge)
    c = start
    for x in w:
        if x & 1:
            d = rows[c][x]
            gid = gen_of_edge.get((d, x ^ 1))
            if gid is not None:
                v[gid] -= 1
            c = d
        else:
            gid = gen_of_edge.get((c, x))
            if gid is not None:
                v[gid] += 1
            c = rows[c][x]
    return v if c == start else None


class PointRowCertifier:
    """The certifier as it was before its rows were one per relator
    cycle, kept as a reference: every relator traced from every point of
    the row layout, rows in (point, relator) order, one SNF over all of
    them, and the free columns of its transform as the homomorphisms."""

    def __init__(self, p, spec: dict):
        self.rows = quotient_rows(spec, p.rank)
        _, self.gen_of_edge = row_schreier_data(self.rows, p.rank)
        n = len(self.gen_of_edge)
        self.relations = [
            row_exponent_vector(self.rows, self.gen_of_edge, r, c)
            for c in range(len(self.rows)) for r in p.relators]
        S, V = subgrp.smith_normal_form(self.relations, ncols=n)
        diag = subgrp.snf_diagonal(S, n)
        self.homomorphisms = [tuple(row[j] for row in V) for j in range(n)
                              if j >= len(diag) or diag[j] == 0]

    def certify(self, w):
        """(power, homomorphism, value) of the certificate for w, or None."""
        s = 1
        while (v := row_exponent_vector(self.rows, self.gen_of_edge,
                                        power(w, s))) is None:
            s += 1
        for f in self.homomorphisms:
            value = sum(a * b for a, b in zip(f, v))
            if value:
                return s, f, value
        return None
