"""Finite group tables and subgroup embeddings into dihedral products.

The centerpiece is embed_search: decide whether a small group H embeds
in D(n) x D(2^k)^r, n = 2^k * n0 with n0 odd, for some r <= r_max. H
embeds in a direct product exactly when homomorphisms into the factors
have trivially intersecting kernels, so the search streams Hom(H, D)
once per factor and meets kernels, bitsets over H, as they arrive. The
ambient is never built: it is its list of factor tables, so its order
may exceed any table cap, and a found embedding is replayed factor by
factor.
"""

from __future__ import annotations

import io
import random
from math import lcm, log
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .words import Record

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
        self._order_cache: Dict[int, int] = {}
        self._spectrum: Optional[Dict[int, int]] = None

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
        # set whose products reach every element
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
        """Elements, taken greedily in order, that generate the table:
        each is the least one not yet reached. In a table not yet
        verified, each reached element is still a product of them."""
        gens: List[int] = []
        self._span(range(1, self.order), gens)
        return gens

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

    def order_spectrum(self) -> Dict[int, int]:
        if self._spectrum is None:
            self._spectrum = {}
            for g in range(self.order):
                d = self.element_order(g)
                self._spectrum[d] = self._spectrum.get(d, 0) + 1
        return dict(self._spectrum)

    def closure(self, gens: Sequence[int]) -> List[int]:
        """Subgroup generated by gens, as a sorted element list."""
        return sorted(self._span(gens, []))

    def _span(self, elements: Iterable[int], taken: List[int]) -> List[int]:
        """The span of elements, grown by _join one element at a time;
        each element outside the span so far is appended to taken."""
        span, inside = [0], bytearray(self.order)
        inside[0] = 1
        for a in elements:
            if not inside[a]:
                span, inside = _join(self.rows, span, inside, taken, a)
                taken.append(a)
        return span

    @classmethod
    def from_csv(cls, text: str) -> "FiniteGroupTable":
        import csv  # only the embed command reads a table file
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, [])
            if len(header) < 2 or header[0] != "order":
                raise TableError("missing table header")
            order = int(header[1])
            if order < 1:
                raise TableError(f"table order must be >= 1, got {order}")
            if order * order > MAX_TABLE_CELLS:
                raise TableError(f"table of order {order} needs {order ** 2}"
                                 f" cells (cap {MAX_TABLE_CELLS})")
            name = header[3] if len(header) > 3 else ""
            rows = [[int(c) for c in row] for row in reader if row]
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise TableError(f"unreadable table CSV: {exc}") from None
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
    """Materialized product table. Refuses above MAX_TABLE_CELLS cells."""
    if not tables:
        raise ValueError("need at least one factor")
    result = tables[0]
    for b in tables[1:]:
        a = result
        order = a.order * b.order
        if order * order > MAX_TABLE_CELLS:
            raise TableError(
                f"product of order {order} needs {order * order} cells "
                f"(cap {MAX_TABLE_CELLS})")
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


def _product_spectrum(factors: Sequence[FiniteGroupTable]) -> Dict[int, int]:
    """Order spectrum of the direct product of factors: an element's
    order is the lcm of its coordinates' orders."""
    spectrum = {1: 1}
    for f in factors:
        grown: Dict[int, int] = {}
        for b, k in f.order_spectrum().items():
            for a, m in spectrum.items():
                d = lcm(a, b)
                grown[d] = grown.get(d, 0) + m * k
        spectrum = grown
    return spectrum


# --- minimal generating tuples ----------------------------------------------


def _join(rows: List[List[int]], span: List[int], inside: bytearray,
          gens: Sequence[int], a: int) -> Tuple[List[int], bytearray]:
    """<span, a> for span = <gens> and a outside it, as its elements and
    a fresh membership array. By Dimino's method the new group is a union
    of cosets span * y: y starts at a, and every product of a found y
    with a generator outside the union starts a new coset."""
    grown, inside = list(span), bytearray(inside)
    step = (*gens, a)
    reps = [a]
    for y in reps:  # grows while it is read
        if inside[y]:  # in a coset entered since it was found
            continue
        coset = [rows[s][y] for s in span]
        for h in coset:
            inside[h] = 1
        grown += coset
        row = rows[y]
        reps += [row[t] for t in step]
    return grown, inside


def _elementary_quotients(
        table: FiniteGroupTable) -> List[Tuple[int, int, int]]:
    """(p, d, mask) for each prime p dividing the order: N = H^p [H, H]
    as a bitmask over H (one byte per element) and d = dim H/N, the rank
    of H's largest elementary abelian p-quotient. N is the normal closure
    of the commutators and the p-th powers of any generating set."""
    rows, order = table.rows, table.order
    inv = [row.index(0) for row in rows]
    gens = table._spanning_set()
    quotients = []
    for p in range(2, order + 1):
        if order % p or any(p % q == 0 for q in range(2, p)):
            continue
        todo = [rows[rows[inv[s]][inv[t]]][rows[s][t]]
                for s in gens for t in gens]
        for s in gens:
            x = 0
            for _ in range(p):
                x = rows[x][s]
            todo.append(x)
        span, inside, found = [0], bytearray(order), []
        inside[0] = 1
        for x in todo:  # grows while it is read: conjugates of each new one
            if not inside[x]:
                span, inside = _join(rows, span, inside, found, x)
                found.append(x)
                todo += [rows[rows[inv[s]][x]][s] for s in gens]
        quotients.append((p, round(log(order // len(span), p)),
                          int.from_bytes(inside, "little")))
    return quotients


def minimal_generating_tuple(table: FiniteGroupTable) -> List[int]:
    """Lexicographically first generating tuple of minimal size.

    The size starts at the bound D, the largest rank of an elementary
    abelian quotient H/H^p[H, H]; that is the answer for nilpotent (so
    for abelian and prime-power) groups. At each size a depth-first walk
    over increasing tuples keeps, at each depth, only the first prefix to
    reach each span, and the size grows by one only when it fails. That
    loses no answer: if a tuple P + B generates and an earlier tuple P'
    of P's length spans what P spans, then sorted(P' + B) generates too,
    has the same size (no element of B lies in that span) and comes
    first. A prefix is also dropped when its image in some H/H^p[H, H]
    is too small for the elements left to span it. An element already in
    the prefix's span is skipped, since a tuple holding one generates
    with one element less and the smaller sizes failed.
    """
    order = table.order
    if order == 1:
        return []
    rows = table.rows
    quotients = _elementary_quotients(table)
    size = max(1, *(d for _, d, _ in quotients))

    def walk(prefix: List[int], span: List[int], inside: bytearray,
             seen: List[set]) -> Optional[List[int]]:
        rest = size - len(prefix) - 1  # elements still to take after a
        for a in range(prefix[-1] + 1 if prefix else 1, order - rest):
            if inside[a]:
                continue
            grown, grown_inside = _join(rows, span, inside, prefix, a)
            if len(grown) == order:
                return prefix + [a]
            key = int.from_bytes(grown_inside, "little")
            if not rest or key in seen[rest]:
                continue
            seen[rest].add(key)
            if any(len(grown) < p ** (d - rest) * (key & mask).bit_count()
                   for p, d, mask in quotients if d > rest):
                continue
            found = walk(prefix + [a], grown, grown_inside, seen)
            if found is not None:
                return found
        return None

    while True:
        first = bytearray(order)
        first[0] = 1
        found = walk([], [0], first, [set() for _ in range(size)])
        if found is not None:
            return found
        size += 1


# --- embedding search --------------------------------------------------------


class DihedralProductSpec(Record):
    """Ambient family D(h=n) x D(h=2^k)^r where n = 2^k * n0, n0 odd.

    The lead factor has order 2n; each extra copy is the dihedral
    2-group of order 2^(k+1). r is a search parameter.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("exponent must be >= 1")
        self.n = n
        self.k = (n & -n).bit_length() - 1  # the lowest set bit
        self.n0 = n >> self.k

    def factor_tables(self) -> Tuple[FiniteGroupTable, FiniteGroupTable]:
        """Fresh tables of the lead factor D(n) and the copy D(2^k), one
        table for both when n is a power of 2."""
        lead = build_dihedral(self.n)
        return lead, (lead if self.n0 == 1 else build_dihedral(2 ** self.k))


class EmbedResult(Record):
    def __init__(self, status: str, subgroup: str, ambient: str,
                 copies_tried: int,
                 images: Optional[List[Tuple[int, ...]]] = None,
                 generators: Optional[List[int]] = None,
                 reason: Optional[str] = None, nodes: int = 0):
        # embedding | not_found_exhausted | budget_exceeded | refuted_structural
        self.status = status
        self.subgroup = subgroup
        self.ambient = ambient
        self.copies_tried = copies_tried
        self.images = images
        self.generators = generators
        self.reason = reason
        self.nodes = nodes

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
                            factors: Sequence[FiniteGroupTable]
                            ) -> Optional[str]:
    """Cheap necessary conditions: exponent divisibility and order
    spectrum availability (an order-d subgroup element needs an order-d
    ambient element). The lcm closure over coordinate orders ignores the
    copy count, so it can only under-refute, never over-refute."""
    ambient_orders = set()
    for f in factors:
        ambient_orders.update(f.order_spectrum())
    amb_exp = lcm(*ambient_orders)
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


def _extension_plans(sub: FiniteGroupTable,
                     gens: Sequence[int]) -> List[List[Tuple[int, int, int]]]:
    """One plan per generator: plans[k] walks out from <gens[:k]> to
    <gens[:k + 1]>, first along the edges g -> g * gens[k] out of the old
    span, then along every edge g -> g * gens[j], j <= k, of each new
    element. An edge (g, j, h) assigns h its image when it meets h first;
    a later edge into h is stored as (g, j, ~h) and checks it."""
    rows = sub.rows
    span = [0]
    inside = [True] + [False] * (sub.order - 1)
    plans = []
    for k in range(len(gens)):
        plan = []
        old = len(span)
        for i, g in enumerate(span):  # grows while it is read
            row = rows[g]
            for j in ((k,) if i < old else range(k + 1)):
                h = row[gens[j]]
                if inside[h]:
                    plan.append((g, j, ~h))
                else:
                    inside[h] = True
                    span.append(h)
                    plan.append((g, j, h))
        plans.append(plan)
    return plans


def _extend(plan: List[Tuple[int, int, int]], images: Sequence[int],
            phi: List[int], rows: List[List[int]]) -> bool:
    """Run one extension plan: phi, a homomorphism on the plan's old
    span, is extended by the generator images, edge by edge, or False at
    the first edge that clashes."""
    for g, j, h in plan:
        x = rows[phi[g]][images[j]]
        if h >= 0:
            phi[h] = x
        elif phi[~h] != x:
            return False
    return True


_ZERO_BITS = b"1" + b"0" * 255  # bytes.translate: image 0 -> "1", else "0"


def _kernels(sub: FiniteGroupTable, gens: Sequence[int],
             plans: List[List[Tuple[int, int, int]]],
             target: FiniteGroupTable, tick: Callable[[], None],
             maps: Dict[int, List[int]]) -> Iterator[int]:
    """Hom(sub, target) as a stream of its distinct kernels, each a
    bitset over sub's elements yielded when first met, with maps[kernel]
    the homomorphism (an image list) that met it. Generator images are
    tried depth-first, those of largest order first, since an injective
    map needs them; the image of g has order dividing ord(g), and each
    one tried runs g's plan. tick() runs once per image tried."""
    rows = target.rows
    orders = [target.element_order(x) for x in range(target.order)]
    by_order = sorted(range(target.order), key=lambda x: -orders[x])
    pools = [[x for x in by_order if sub.element_order(g) % orders[x] == 0]
             for g in gens]
    phi = [0] * sub.order
    images = [0] * len(gens)
    if not gens:  # the trivial group
        maps[1] = phi
        yield 1
        return
    walks = [iter(pools[0])]
    while walks:
        k = len(walks) - 1
        for x in walks[k]:
            tick()
            images[k] = x
            if not _extend(plans[k], images, phi, rows):
                continue
            if k + 1 < len(gens):
                walks.append(iter(pools[k + 1]))
                break
            kernel = int(bytes(phi).translate(_ZERO_BITS)[::-1], 2)
            if kernel not in maps:
                maps[kernel] = phi[:]
                yield kernel
        else:
            walks.pop()


class _MeetSearch:
    """Kernels of Hom(sub, lead) and Hom(sub, copy) met as they stream
    in. `reached` keys each meet of a lead kernel with copy kernels to
    its shortest path (the lead kernel, then the copy kernels); the meet
    1, the identity alone, is an embedding. A meet of fewer than r copy
    kernels is met with every copy kernel, when it is reached and when
    a copy kernel arrives. Streams and meets persist from one r to the
    next."""

    def __init__(self, sub: FiniteGroupTable, gens: List[int],
                 lead: FiniteGroupTable, copy: FiniteGroupTable,
                 tick: Callable[[], None]):
        plans = _extension_plans(sub, gens)
        self.tick, self.r = tick, 0
        self.lead, self.copy = lead.order, copy.order  # orders fix tables
        self.maps: Dict[int, Dict[int, List[int]]] = {
            t.order: {} for t in (lead, copy)}
        self.streams = {t.order: _kernels(sub, gens, plans, t, tick,
                                          self.maps[t.order])
                        for t in (lead, copy)}  # one when the tables agree
        self.reached: Dict[int, Tuple[int, ...]] = {}

    def _offer(self, meet: int, path: Tuple[int, ...]) -> bool:
        """Keep path to meet if it is the first or a shorter one, and
        meet a kept path of fewer than r copy kernels with every copy
        kernel. True once the meet 1 is reached."""
        known = self.reached.get(meet)
        if known is not None and len(known) <= len(path):
            return False
        self.reached[meet] = path
        return meet == 1 or len(path) <= self.r and \
            self._meet(meet, path, self.maps[self.copy])

    def _meet(self, meet: int, path: Tuple[int, ...],
              kernels: Iterable[int]) -> bool:
        for k in kernels:
            self.tick()
            if self._offer(meet & k, path + (k,)):
                return True
        return False

    def search(self, r: int) -> Optional[Tuple[int, ...]]:
        """A path to the trivial meet through at most r copy kernels, or
        None once the streams it reads are at their end: the lead stream,
        and at r >= 1 the copy stream, one kernel from each in turn."""
        below, self.r = self.r, r
        copies = self.maps[self.copy]
        for meet, path in list(self.reached.items()):  # left by a lower r
            if below < len(path) <= r and self._meet(meet, path, copies):
                return self.reached[1]
        orders = list(dict.fromkeys((self.lead, self.copy)[:r + 1]))
        while orders:
            for order in orders[:]:
                kernel = next(self.streams[order], None)
                if kernel is None:
                    orders.remove(order)
                    continue
                if order == self.copy:
                    met = [(m, p) for m, p in self.reached.items()
                           if len(p) <= r]
                    if any(self._meet(m, p, (kernel,)) for m, p in met):
                        return self.reached[1]
                if order == self.lead and self._offer(kernel, (kernel,)):
                    return self.reached[1]
        return None


def _verify_embedding(sub: FiniteGroupTable, maps: Sequence[Sequence[int]],
                      factors: Sequence[FiniteGroupTable]) -> bool:
    """Full replay of the map h -> (maps[0][h], maps[1][h], ...): each
    coordinate is multiplicative on every pair in its factor's table, and
    the coordinates together are injective."""
    if len(maps) != len(factors):
        return False
    codes = [0] * sub.order
    for m, f in zip(maps, factors):
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
    Hom(sub, A) and Hom(sub, B) stream by images of a minimal generating
    tuple, each distinct kernel once, and their meets grow as kernels
    arrive; the search stops at the first trivial meet, and a stream is
    read to its end only to refute an r. An r whose ambient has fewer
    elements of some order than sub (so any smaller ambient) is skipped,
    not refuted. The tuple is computed only once some r passes the
    structural check and is not skipped. `nodes`
    counts the homomorphism candidates tried (generator images, then
    kernel intersections) and `budget` caps it. Any found map is replayed
    over the full table before being reported.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    lead_table, copy_table = spec.factor_tables()
    search: Optional[_MeetSearch] = None
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetStop

    structural: List[str] = []
    need = sub.order_spectrum()
    for copies in range(0, r_max + 1):
        factors = [lead_table] + [copy_table] * copies
        ambient = " x ".join(f.name for f in factors)
        obstruction = _structural_obstruction(sub, factors)
        if obstruction is not None:
            structural.append(obstruction)
            continue
        room = _product_spectrum(factors)
        if any(room.get(d, 0) < k for d, k in need.items()):
            continue  # too few elements of some order; no refutation either
        if search is None:
            gens = minimal_generating_tuple(sub)
            search = _MeetSearch(sub, gens, lead_table, copy_table, tick)
        try:
            path = search.search(copies)
        except _BudgetStop:
            return EmbedResult(status="budget_exceeded", subgroup=sub.name,
                               ambient=ambient, copies_tried=copies,
                               reason=f"node budget {budget} exhausted",
                               nodes=nodes)
        if path is not None:
            maps = [search.maps[lead_table.order][path[0]]]
            maps += [search.maps[copy_table.order][k] for k in path[1:]]
            maps += [[0] * sub.order] * (copies + 1 - len(maps))  # trivial
            if not _verify_embedding(sub, maps, factors):
                raise AssertionError("search produced a non-embedding")
            return EmbedResult(
                status="embedding", subgroup=sub.name, ambient=ambient,
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
