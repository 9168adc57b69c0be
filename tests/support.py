"""Reference helpers shared by several test modules; the engine needs none."""

import csv
import heapq
import io
import itertools
import math
import os
from collections import deque

from burnside import cosets, kernels, rewrite
from burnside.words import invert, shortlex_key

# the JSON type of every field an order certificate must carry
CERT_TYPES = {"schema": str, "presentation": dict, "word": str, "power": int,
              "quotient": dict, "kernel_index": int,
              "num_schreier_generators": int, "free_positions": list,
              "witness_position": int, "witness_coordinate": int}
# one value of each JSON type
JSON_JUNK = (None, "x", 1.5, True, ["x"], {"x": 1})


def count_enumerations(monkeypatch) -> list:
    """Route cosets.enumerate_cosets through a counter for this test;
    the returned list collects the budget of each call. A prefetch child
    counts in its own copy of the list, so only calls in this process
    show."""
    budgets = []
    enumerate_cosets = cosets.enumerate_cosets

    def counted(p, subgroup=(), max_cosets=cosets.DEFAULT_MAX_COSETS,
                prefetch=None):
        budgets.append(max_cosets)
        return enumerate_cosets(p, subgroup, max_cosets, prefetch=prefetch)

    monkeypatch.setattr(cosets, "enumerate_cosets", counted)
    return budgets


def count_completions(monkeypatch) -> list:
    """Route every Knuth-Bendix completion through a counter for this
    test; the returned list collects (stage rank, max_len, max_steps,
    steps) of each completion read at least once, the stage rank being one
    more than the relator count of the presentation seeded by
    rewrite.rules_from_presentation (None for a system built otherwise),
    and steps those of the last system read from it so far."""
    calls = []
    ranks = {}  # id of a seed -> (the seed, its stage rank)
    seed_rules = rewrite.rules_from_presentation
    completion = rewrite.completion

    def seeded(p):
        system = seed_rules(p)
        ranks[id(system)] = (system, len(p.relators) + 1)
        return system

    def counted(system, marks=(), max_rules=rewrite.DEFAULT_MAX_RULES,
                max_len=rewrite.DEFAULT_MAX_LEN,
                max_steps=rewrite.DEFAULT_MAX_STEPS):
        rank = ranks.get(id(system), (None, None))[1]
        i = len(calls)
        calls.append((rank, max_len, max_steps, 0))
        for tier in completion(system, marks, max_rules, max_len, max_steps):
            calls[i] = (rank, max_len, max_steps, tier.stats["steps"])
            yield tier

    monkeypatch.setattr(rewrite, "rules_from_presentation", seeded)
    monkeypatch.setattr(rewrite, "completion", counted)
    return calls


def count_felsch_runs(monkeypatch) -> list:
    """Collect the budget of each Felsch run made in this process; a
    prefetch child counts in its own copy of the list."""
    runs = []
    run = cosets._Enumerator.run

    def counted(self):
        runs.append(self.max_cosets)
        return run(self)

    monkeypatch.setattr(cosets._Enumerator, "run", counted)
    return runs


def fail_in_children(monkeypatch):
    """Make cosets.enumerate_cosets raise in any process but this one."""
    parent = os.getpid()
    enumerate_cosets = cosets.enumerate_cosets

    def fails_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("enumeration fails in a child")
        return enumerate_cosets(*args, **kwargs)

    monkeypatch.setattr(cosets, "enumerate_cosets", fails_in_child)


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


def is_abelian(t) -> bool:
    """Whether every two elements of a FiniteGroupTable commute."""
    return all(t.rows[g][h] == t.rows[h][g]
               for g in range(t.order) for h in range(g))


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
