"""Finite group tables and subgroup embeddings into dihedral products.

The centerpiece is embed_search: decide whether a small group H embeds
in D(n) x D(2^k)^r, n = 2^k * n0 with n0 odd, for some r <= r_max. H
embeds in a direct product exactly when homomorphisms into the factors
have trivially intersecting kernels, so the search enumerates Hom(H, D)
once per factor and meets kernels as bitsets over H. The ambient stays a
lazy product of coordinate tuples, so its order may exceed any table
cap; a found embedding is replayed in it coordinatewise.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from math import lcm
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

MAX_TABLE_CELLS = 1 << 16  # materialized tables stop at order 256


class TableError(ValueError):
    pass


class FiniteGroupTable:
    """A finite group as a multiplication table over 0..order-1 with
    identity 0. verify=True replays the group axioms; generated tables
    are correct by construction and skip it."""

    def __init__(self, rows: Sequence[Sequence[int]], name: str = "",
                 verify: bool = True):
        self.rows = [list(r) for r in rows]
        self.order = len(self.rows)
        self.name = name or f"group of order {self.order}"
        if verify:
            self._verify()
        self._inverse = [0] * self.order
        for g in range(self.order):
            row = self.rows[g]
            for h in range(self.order):
                if row[h] == 0:
                    self._inverse[g] = h
                    break
        self._order_cache: Dict[int, int] = {}

    def _verify(self) -> None:
        n = self.order
        if n == 0:
            raise TableError("empty table")
        for g, row in enumerate(self.rows):
            if len(row) != n or sorted(row) != list(range(n)):
                raise TableError(f"row {g} is not a permutation")
            if self.rows[0][g] != g or row[0] != g:
                raise TableError("0 is not an identity")
        for h, col in enumerate(zip(*self.rows)):
            if sorted(col) != list(range(n)):
                raise TableError(f"column {h} is not a permutation")
        # Light's test: the s with (g s) k = g (s k) for all g, k are
        # closed under the product, so it suffices to check the s of a
        # set whose left-normed products from 0 reach every element
        rows = self.rows
        for s in self._spanning_set():
            row_s = rows[s]
            for g, row_g in enumerate(rows):
                want = list(map(row_g.__getitem__, row_s))  # g (s k) by k
                got = rows[row_g[s]]
                if got != want:
                    k = next(k for k in range(n) if got[k] != want[k])
                    raise TableError(
                        f"associativity fails at ({g}, {s}, {k})")

    def _spanning_set(self) -> List[int]:
        """Elements, taken greedily in order, whose left-normed products
        from 0 reach every element: each is the least one not yet
        reached."""
        rows = self.rows
        reached = [True] + [False] * (self.order - 1)
        span = [0]  # the elements reached, in the order they were
        gens: List[int] = []
        for s in range(1, self.order):
            if reached[s]:
                continue
            gens.append(s)
            for g in span:  # grows while it is read
                row = rows[g]
                for t in gens:
                    h = row[t]
                    if not reached[h]:
                        reached[h] = True
                        span.append(h)
        return gens

    def mul(self, g: int, h: int) -> int:
        return self.rows[g][h]

    def inverse(self, g: int) -> int:
        return self._inverse[g]

    def element_order(self, g: int) -> int:
        cached = self._order_cache.get(g)
        if cached is not None:
            return cached
        d, x = 1, g
        while x != 0:
            x = self.rows[x][g]
            d += 1
        self._order_cache[g] = d
        return d

    def exponent(self) -> int:
        e = 1
        for g in range(self.order):
            e = lcm(e, self.element_order(g))
        return e

    def order_spectrum(self) -> Dict[int, int]:
        spectrum: Dict[int, int] = {}
        for g in range(self.order):
            d = self.element_order(g)
            spectrum[d] = spectrum.get(d, 0) + 1
        return spectrum

    def closure(self, gens: Sequence[int]) -> List[int]:
        """Subgroup generated by gens, as a sorted element list."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.rows[g][s]
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return sorted(seen)

    @classmethod
    def from_csv(cls, text: str) -> "FiniteGroupTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if len(header) < 2 or header[0] != "order":
            raise TableError("missing table header")
        order = int(header[1])
        if order < 1:
            raise TableError(f"table order must be >= 1, got {order}")
        if order * order > MAX_TABLE_CELLS:
            raise TableError(f"table of order {order} needs {order * order} "
                             f"cells (cap {MAX_TABLE_CELLS})")
        name = header[3] if len(header) > 3 else ""
        rows = [[int(c) for c in row] for row in reader if row]
        if len(rows) != order:
            raise TableError(f"expected {order} rows, got {len(rows)}")
        return cls(rows, name=name, verify=True)


def build_dihedral(h: int) -> FiniteGroupTable:
    """Dihedral group of order 2h (symmetries of the h-gon), h >= 1.

    Elements are pairs (e, k) in C2 x C_h encoded as 2k + e, with the
    semidirect multiplication (e1, k1)(e2, k2) = (e1 + e2, k1 + (-1)^e1 k2).
    Even codes are the rotations, odd codes the reflections; (0, 0) = 0
    is the identity and every reflection squares to it. Refuses above
    MAX_TABLE_CELLS cells before building anything.
    """
    if h < 1:
        raise ValueError("need h >= 1")
    order = 2 * h
    if order * order > MAX_TABLE_CELLS:
        raise TableError(f"D{h} of order {order} needs {order * order} "
                         f"cells (cap {MAX_TABLE_CELLS})")

    def enc(e: int, k: int) -> int:
        return 2 * (k % h) + (e & 1)

    rows = []
    for g in range(order):
        e1, k1 = g & 1, g >> 1
        row = []
        for x in range(order):
            e2, k2 = x & 1, x >> 1
            k = k1 + (k2 if not e1 else -k2)
            row.append(enc(e1 ^ e2, k))
        rows.append(row)
    return FiniteGroupTable(rows, name=f"D{h}", verify=False)


def build_cyclic(h: int) -> FiniteGroupTable:
    rows = [[(a + b) % h for b in range(h)] for a in range(h)]
    return FiniteGroupTable(rows, name=f"C{h}", verify=False)


def build_quaternion() -> FiniteGroupTable:
    """Order-8 group with a unique involution and six order-4 elements.

    Encoded 0..7 as 1, -1, i, -i, j, -j, k, -k.
    """
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    val = {"1": (0, "1"), "-1": (1, "1"),
           "i": (0, "i"), "-i": (1, "i"),
           "j": (0, "j"), "-j": (1, "j"),
           "k": (0, "k"), "-k": (1, "k")}
    base = {
        ("1", "1"): (0, "1"), ("1", "i"): (0, "i"),
        ("1", "j"): (0, "j"), ("1", "k"): (0, "k"),
        ("i", "1"): (0, "i"), ("i", "i"): (1, "1"),
        ("i", "j"): (0, "k"), ("i", "k"): (1, "j"),
        ("j", "1"): (0, "j"), ("j", "i"): (1, "k"),
        ("j", "j"): (1, "1"), ("j", "k"): (0, "i"),
        ("k", "1"): (0, "k"), ("k", "i"): (0, "j"),
        ("k", "j"): (1, "i"), ("k", "k"): (1, "1"),
    }
    index = {n: i for i, n in enumerate(names)}
    rows = []
    for a in names:
        sa, ba = val[a]
        row = []
        for b in names:
            sb, bb = val[b]
            s, c = base[(ba, bb)]
            sign = (sa + sb + s) & 1
            row.append(index[("-" if sign else "") + c])
        rows.append(row)
    return FiniteGroupTable(rows, name="Q8", verify=True)


def direct_product(tables: Sequence[FiniteGroupTable]) -> FiniteGroupTable:
    """Materialized product table. Refuses above MAX_TABLE_CELLS cells;
    use LazyProduct beyond that."""
    if not tables:
        raise ValueError("need at least one factor")
    result = tables[0]
    for b in tables[1:]:
        a = result
        order = a.order * b.order
        if order * order > MAX_TABLE_CELLS:
            raise TableError(
                f"product of order {order} needs {order * order} cells "
                f"(cap {MAX_TABLE_CELLS}); use LazyProduct")
        rows = []
        for g in range(order):
            ga, gb = divmod(g, b.order)
            row = []
            for h in range(order):
                ha, hb = divmod(h, b.order)
                row.append(a.rows[ga][ha] * b.order + b.rows[gb][hb])
            rows.append(row)
        result = FiniteGroupTable(rows, name=f"{a.name} x {b.name}",
                                  verify=False)
    return result


class LazyProduct:
    """Direct product of finite group tables with elements as coordinate
    tuples; nothing is materialized, so the ambient order may exceed any
    table cap."""

    def __init__(self, factors: Sequence[FiniteGroupTable]):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.order = 1
        for f in self.factors:
            self.order *= f.order
        self.name = " x ".join(f.name for f in self.factors)
        self.identity = (0,) * len(self.factors)

    def mul(self, g: Tuple[int, ...], h: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(f.rows[a][b]
                     for f, a, b in zip(self.factors, g, h))

    def inverse(self, g: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(f.inverse(a) for f, a in zip(self.factors, g))

    def element_order(self, g: Tuple[int, ...]) -> int:
        return lcm(*(f.element_order(a)
                     for f, a in zip(self.factors, g)))

    def exponent(self) -> int:
        return lcm(*(f.exponent() for f in self.factors))


# --- minimal generating tuples ----------------------------------------------


def _join(rows: List[List[int]], span: FrozenSet[int],
          prefix: Sequence[int], a: int) -> FrozenSet[int]:
    """<span, a> for span = <prefix>: the old span is already closed under
    prefix, so only a is applied to it; new elements take every generator."""
    seen = set(span)
    frontier: Iterable[int] = span
    step: Sequence[int] = (a,)
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


def minimal_generating_tuple(table: FiniteGroupTable) -> List[int]:
    """Lexicographically first generating tuple of minimal size.

    Increasing tuples grow one size at a time, and each size keeps only
    the lexicographically first tuple reaching each span. That loses no
    answer: if a tuple P + B generates and an earlier tuple P' of P's
    length spans what P spans, then sorted(P' + B) generates too, has the
    same size (no element of B lies in that span) and comes first. An
    element already in the prefix's span is skipped, since a tuple holding
    one generates with one element less and the smaller sizes failed.
    """
    order = table.order
    if order == 1:
        return []
    rows = table.rows
    # span -> first tuple reaching it; insertion order is lexicographic
    level: Dict[FrozenSet[int], List[int]] = {frozenset((0,)): []}
    while level:
        grown_level: Dict[FrozenSet[int], List[int]] = {}
        for span, prefix in level.items():
            for a in range(prefix[-1] + 1 if prefix else 1, order):
                if a in span:
                    continue
                grown = _join(rows, span, prefix, a)
                if len(grown) == order:
                    return prefix + [a]
                grown_level.setdefault(grown, prefix + [a])
        level = grown_level
    raise AssertionError("a finite group always has a generating set")


# --- embedding search --------------------------------------------------------


@dataclass
class DihedralProductSpec:
    """Ambient family D(h=n) x D(h=2^k)^r where n = 2^k * n0, n0 odd.

    The lead factor has order 2n; each extra copy is the dihedral
    2-group of order 2^(k+1). r is a search parameter.
    """
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("exponent must be >= 1")
        k = 0
        n0 = self.n
        while n0 % 2 == 0:
            n0 //= 2
            k += 1
        self.k = k
        self.n0 = n0

    def factor_tables(self) -> Tuple[FiniteGroupTable, FiniteGroupTable]:
        """Fresh tables of the lead factor D(n) and the copy D(2^k), one
        table for both when n is a power of 2."""
        lead = build_dihedral(self.n)
        return lead, (lead if self.n0 == 1 else build_dihedral(2 ** self.k))

    def ambient(self, copies: int) -> LazyProduct:
        lead, copy = self.factor_tables()
        return LazyProduct([lead] + [copy] * copies)


@dataclass
class EmbedResult:
    status: str  # embedding | not_found_exhausted | budget_exceeded | refuted_structural
    subgroup: str
    ambient: str
    copies_tried: int
    images: Optional[List[Tuple[int, ...]]] = None
    generators: Optional[List[int]] = None
    reason: Optional[str] = None
    nodes: int = 0

    def to_json_dict(self) -> dict:
        d = {
            "status": self.status,
            "subgroup": self.subgroup,
            "ambient": self.ambient,
            "copies_tried": self.copies_tried,
            "nodes": self.nodes,
        }
        if self.images is not None:
            d["generators"] = self.generators
            d["images"] = [list(t) for t in self.images]
        if self.reason is not None:
            d["reason"] = self.reason
        return d


def _structural_obstruction(sub: FiniteGroupTable,
                            ambient: LazyProduct) -> Optional[str]:
    """Cheap necessary conditions: exponent divisibility and order
    spectrum availability (an order-d subgroup element needs an order-d
    ambient element). The lcm closure over coordinate orders ignores the
    copy count, so it can only under-refute, never over-refute."""
    amb_exp = ambient.exponent()
    ambient_orders = set()
    for f in ambient.factors:
        ambient_orders.update(f.element_order(x) for x in range(f.order))
    feasible = {1}
    for e in sorted(ambient_orders):
        feasible |= {lcm(e, f) for f in feasible}
    for d in sub.order_spectrum():
        if amb_exp % d:
            return (f"subgroup has an element of order {d} but the "
                    f"ambient exponent is {amb_exp}")
        if d not in feasible:
            return f"no ambient element can have order {d}"
    return None


class _ClosurePlan(NamedTuple):
    """The Cayley graph of <gens> in sub, walked breadth-first from 0:
    `tree` holds the edges (g, j, h), h = g * gens[j], that first reach
    an element, `checks` every other edge out of the span."""
    order: int
    tree: List[Tuple[int, int, int]]
    checks: List[Tuple[int, int, int]]


def _closure_plan(sub: FiniteGroupTable, gens: Sequence[int]) -> _ClosurePlan:
    seen = [False] * sub.order
    seen[0] = True
    tree: List[Tuple[int, int, int]] = []
    checks: List[Tuple[int, int, int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            row = sub.rows[g]
            for j, s in enumerate(gens):
                h = row[s]
                if seen[h]:
                    checks.append((g, j, h))
                else:
                    seen[h] = True
                    tree.append((g, j, h))
                    nxt.append(h)
        frontier = nxt
    return _ClosurePlan(sub.order, tree, checks)


def _close(plan: _ClosurePlan, images: Sequence[int],
           target: FiniteGroupTable) -> Optional[List[Optional[int]]]:
    """The map gens -> images closed over the plan's span, as a list over
    sub (None outside the span), or None if an edge clashes: phi is
    assigned along the tree edges, then every other edge is checked."""
    rows = target.rows
    phi: List[Optional[int]] = [None] * plan.order
    phi[0] = 0
    for g, j, h in plan.tree:
        phi[h] = rows[phi[g]][images[j]]
    for g, j, h in plan.checks:
        if rows[phi[g]][images[j]] != phi[h]:
            return None
    return phi


def _homomorphisms(sub: FiniteGroupTable, gens: Sequence[int],
                   plans: Sequence[_ClosurePlan], target: FiniteGroupTable,
                   tick: Callable[[], None]) -> Dict[int, List[int]]:
    """One homomorphism sub -> target (as its image list) per distinct
    kernel, keyed by the kernel as a bitset over sub's elements. The
    image of each generator g of sub has order dividing ord(g); the span
    of the generators assigned so far is closed after each assignment,
    by plans[k] for the first k generators. tick() runs once per image
    tried."""
    pools = [[x for x in range(target.order)
              if sub.element_order(g) % target.element_order(x) == 0]
             for g in gens]
    by_kernel: Dict[int, List[int]] = {}

    def extend(images: Tuple[int, ...]) -> None:
        phi = _close(plans[len(images)], images, target)
        if phi is None:
            return
        if len(images) == len(gens):
            kernel = sum(1 << h for h, x in enumerate(phi) if x == 0)
            by_kernel.setdefault(kernel, phi)
            return
        for x in pools[len(images)]:
            tick()
            extend(images + (x,))

    extend(())
    return by_kernel


def _trivial_meet(lead: Dict[int, List[int]], factor: Dict[int, List[int]],
                  copies: int,
                  tick: Callable[[], None]) -> Optional[Tuple[int, ...]]:
    """A lead kernel then at most `copies` factor kernels intersecting
    in the trivial subgroup (bitset 1 << 0), or None. Breadth-first over
    distinct intersections; tick() runs once per intersection taken."""
    reached = {k: (k,) for k in lead}
    frontier = list(reached)
    for _ in range(copies):
        nxt = []
        for meet in frontier:
            for k in factor:
                tick()
                m = meet & k
                if m not in reached:
                    reached[m] = reached[meet] + (k,)
                    nxt.append(m)
        frontier = nxt
    return reached.get(1)


def _verify_embedding(sub: FiniteGroupTable, maps: Sequence[Sequence[int]],
                      ambient: LazyProduct) -> bool:
    """Full replay of the map h -> (maps[0][h], maps[1][h], ...): each
    coordinate is multiplicative on every pair in its factor's table, and
    the coordinates together are injective."""
    if len(maps) != len(ambient.factors):
        return False
    codes = [0] * sub.order
    for m, f in zip(maps, ambient.factors):
        for g, row in enumerate(sub.rows):
            image_row = f.rows[m[g]]
            if [image_row[x] for x in m] != [m[gh] for gh in row]:
                return False
        codes = [c * f.order + x for c, x in zip(codes, m)]
    return len(set(codes)) == sub.order


def embed_search(sub: FiniteGroupTable, spec: DihedralProductSpec,
                 r_max: int = 4, budget: int = 5_000_000) -> EmbedResult:
    """Search for an embedding of sub into spec's ambient for r = 0..r_max.

    sub embeds in A x B^r exactly when there are homomorphisms sub -> A
    and r homomorphisms sub -> B whose kernels intersect trivially.
    Hom(sub, A) and Hom(sub, B) are enumerated once, by images of a
    minimal generating tuple, keeping one homomorphism per distinct
    kernel. The tuple is computed only once some r passes the structural
    check. `nodes` counts the homomorphism candidates tried (generator
    images, then kernel intersections) and `budget` caps it. Any found
    map is replayed over the full table before being reported.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    lead_table, copy_table = spec.factor_tables()
    gens: Optional[List[int]] = None
    plans: List[_ClosurePlan] = []
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetStop

    # kernels by target order, which fixes a dihedral group
    homs: Dict[int, Dict[int, List[int]]] = {}
    structural: List[str] = []
    for copies in range(0, r_max + 1):
        ambient = LazyProduct([lead_table] + [copy_table] * copies)
        obstruction = _structural_obstruction(sub, ambient)
        if obstruction is not None:
            structural.append(obstruction)
            continue
        if gens is None:
            gens = minimal_generating_tuple(sub)
            plans = [_closure_plan(sub, gens[:k])
                     for k in range(len(gens) + 1)]
        try:
            for f in ambient.factors[:2]:
                if f.order not in homs:
                    homs[f.order] = _homomorphisms(sub, gens, plans, f, tick)
            lead = homs[lead_table.order]
            factor = homs[copy_table.order] if copies else {}
            path = _trivial_meet(lead, factor, copies, tick)
        except _BudgetStop:
            return EmbedResult(status="budget_exceeded", subgroup=sub.name,
                               ambient=ambient.name, copies_tried=copies,
                               reason=f"node budget {budget} exhausted",
                               nodes=nodes)
        if path is not None:
            maps = [lead[path[0]]] + [factor[k] for k in path[1:]]
            maps += [[0] * sub.order] * (copies + 1 - len(maps))  # trivial
            if not _verify_embedding(sub, maps, ambient):
                raise AssertionError("search produced a non-embedding")
            return EmbedResult(
                status="embedding", subgroup=sub.name, ambient=ambient.name,
                copies_tried=copies,
                images=[tuple(m[g] for m in maps) for g in gens],
                generators=gens, nodes=nodes)
    family = f"{lead_table.name} (+ up to {r_max} copies)"
    if len(structural) == r_max + 1:
        return EmbedResult(status="refuted_structural", subgroup=sub.name,
                           ambient=family, copies_tried=r_max,
                           reason=structural[-1], nodes=nodes)
    return EmbedResult(status="not_found_exhausted", subgroup=sub.name,
                       ambient=family, copies_tried=r_max,
                       reason="exhaustive search at every r found no embedding",
                       nodes=nodes)


class _BudgetStop(Exception):
    pass


def sample_subgroups(table: FiniteGroupTable, count: int,
                     seed: int = 0) -> List[List[int]]:
    """Seeded random sample of distinct subgroups (as element lists),
    generated by 1-3 random elements each. Deterministic for a seed."""
    rng = random.Random(seed)
    seen = set()
    out: List[List[int]] = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        k = rng.randint(1, 3)
        gens = [rng.randrange(table.order) for _ in range(k)]
        sub = tuple(table.closure(gens))
        if sub not in seen:
            seen.add(sub)
            out.append(list(sub))
    return out


def subgroup_table(table: FiniteGroupTable,
                   elements: Sequence[int]) -> FiniteGroupTable:
    """Multiplication table of a subgroup, reindexed to 0..k-1 (0 stays
    the identity)."""
    elems = sorted(elements)
    if not elems or elems[0] != 0:
        raise TableError("subgroup must contain the identity 0")
    index = {g: i for i, g in enumerate(elems)}
    rows = []
    for g in elems:
        row = []
        for h in elems:
            gh = table.rows[g][h]
            if gh not in index:
                raise TableError("element list is not closed")
            row.append(index[gh])
        rows.append(row)
    return FiniteGroupTable(rows, name=f"subgroup of {table.name}",
                            verify=False)
