"""Finite-index subgroup machinery: Schreier generators counted along
coset traces (Reidemeister-Schreier, abelianized), integer Smith normal
form, abelian invariants, and the infinite-order certificates built from
all of that.

The certificate construction: given a finite quotient Q of the presented
group G (either the torsion part of the abelianization, or a concrete
permutation realization), the kernel H has index |Q| and its coset table
is just Q's own action, stored by columns as every finite action is
(``cosets.Action``), with the transversal its transitivity check found.
Tracing each relator's primitive root round each of its cycles and
counting, with signs, the Schreier generators it crosses gives one row
of H's abelianized relation matrix M; no Schreier word is spelled.
Tracing w from coset 0 until the walk returns (s times, s = order of the
image of w in Q, so w^s lands in H) counts the vector v of w^s. An
integer vector f with M.f = 0 is a homomorphism from H onto a subgroup
of Z, and f.v != 0 means w^s has infinite order in H, hence w has
infinite order in G. The certificate carries f and f.v, so a third party
replays it with a coset trace and integer dot products over those
rows alone; only finding f takes a Smith normal form. A quotient spec
is untrusted input: each modulus and image entry must be exactly an int.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

from .cosets import Action
from .presentation import Presentation
from .words import (ORDER_ID, Record, Word, format_word, free_reduce,
                    parse_word, primitive_root)


# --- integer matrices / Smith normal form ---------------------------------


def mat_identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: list, ncols: Optional[int] = None):
    """Diagonalize an integer matrix: returns (S, V) with V unimodular
    and S = U*M*V for some unimodular U, S diagonal nonnegative with
    d_i | d_{i+1}.

    U itself is not kept: row operations act on S alone, so a relation
    matrix with many more rows than columns never pays for a rows x rows
    transform. Pivoting picks the smallest nonzero |entry| (then lowest
    row, column), which keeps intermediate entries modest and the result
    deterministic.
    """
    nrows = len(M)
    if ncols is None:
        ncols = len(M[0]) if M else 0
    S = [list(row) for row in M]
    for row in S:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    V = mat_identity(ncols)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row i -= q * row j
        Si, Sj = S[i], S[j]
        for k in range(ncols):
            Si[k] -= q * Sj[k]

    def col_sub(i, j, q):
        # col i -= q * col j
        for row in S:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def clear_at(t):
        while True:
            if S[t][t] < 0:
                S[t] = [-a for a in S[t]]
            pivot = S[t][t]
            swapped = False
            for i in range(t + 1, nrows):
                if S[i][t]:
                    q = S[i][t] // pivot
                    if q:
                        row_sub(i, t, q)
                    if S[i][t]:
                        swap_rows(i, t)
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, ncols):
                if S[t][j]:
                    q = S[t][j] // pivot
                    if q:
                        col_sub(j, t, q)
                    if S[t][j]:
                        swap_cols(j, t)
                        swapped = True
                        break
            if not swapped:
                return

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = None
        for i in range(t, nrows):
            Si = S[i]
            for j in range(t, ncols):
                v = Si[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            clear_at(t)
            d = S[t][t]
            bad = None
            for i in range(t + 1, nrows):
                Si = S[i]
                for j in range(t + 1, ncols):
                    if Si[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # add the offending row into row t
        t += 1
    return S, V


def snf_diagonal(S: list, ncols: Optional[int] = None) -> list:
    n = min(len(S), ncols if ncols is not None else (len(S[0]) if S else 0))
    return [S[i][i] for i in range(n)]


class AbelianInvariants(Record):
    """Equal, and hashed, by torsion and free rank alone."""

    def __init__(self, torsion: tuple, free_rank: int, quotient: dict):
        self.torsion = torsion  # invariant factors > 1, divisibility chain
        self.free_rank = free_rank
        # quotient spec of the torsion part of G^ab (trivial if none)
        self.quotient = quotient

    def __eq__(self, other):
        if type(other) is not AbelianInvariants:
            return NotImplemented
        return (self.torsion, self.free_rank) == \
            (other.torsion, other.free_rank)

    def __hash__(self) -> int:
        return hash((self.torsion, self.free_rank))

    @property
    def finite(self) -> bool:
        return self.free_rank == 0


def _exponent_vector(w: Word, num_gens: int) -> list:
    v = [0] * num_gens
    for x in w:
        v[x >> 1] += -1 if x & 1 else 1
    return v


# cells of the largest dense matrix a Smith normal form is run over, its
# rows x columns input or its columns x columns transform V: the
# transform of a rank-2 kernel of index 2048 has 2,049^2, and the cap is
# about 64 MB of list slots
MAX_SMITH_CELLS = 1 << 23


class SmithFormTooLarge(ValueError):
    """An SNF's dense matrices would exceed MAX_SMITH_CELLS."""


def check_smith_size(ncols: int, nrows: int, what: str) -> None:
    """Raise SmithFormTooLarge, naming ``what``, if an SNF of nrows x
    ncols would build more than MAX_SMITH_CELLS cells in its input or
    its transform."""
    cells = ncols * max(ncols, nrows)
    if cells > MAX_SMITH_CELLS:
        raise SmithFormTooLarge(
            f"{what} need {cells} matrix cells (cap {MAX_SMITH_CELLS})")


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    """Invariant factors of G^ab from the relator exponent matrix, and
    the quotient spec of its torsion part, both from one SNF.

    The projection G -> G^ab -> torsion summand is a homomorphism; in the
    Smith basis the i-th generator's coordinates are row i of V (e_i * V)
    restricted to the torsion positions. A presentation whose matrices
    would exceed MAX_SMITH_CELLS raises SmithFormTooLarge before any is
    built.
    """
    check_smith_size(p.rank, len(p.relators), f"abelian invariants of rank "
                     f"{p.rank} with {len(p.relators)} relators")
    rows = [_exponent_vector(r, p.rank) for r in p.relators]
    S, V = smith_normal_form(rows, ncols=p.rank)
    diag = snf_diagonal(S, p.rank)
    positions = [j for j, d in enumerate(diag) if d > 1]
    moduli = [diag[j] for j in positions]
    quotient = {
        "kind": "abelian",
        "moduli": moduli,
        "images": [[V[i][j] % diag[j] for j in positions]
                   for i in range(p.rank)],
    }
    nonzero = sum(1 for d in diag if d != 0)
    return AbelianInvariants(tuple(moduli), p.rank - nonzero, quotient)


# --- quotient actions ------------------------------------------------------


def _spec_fields(spec: dict) -> Tuple[list, list]:
    """(moduli, images) of a quotient spec, every modulus and image entry
    exactly an int (a bool is no int); a permutation spec has no moduli.
    A missing or ill-typed field raises ValueError."""
    kind = spec.get("kind")
    if kind not in ("abelian", "permutation"):
        raise ValueError(f"unknown quotient kind {kind!r}")
    moduli = _json_field(spec, "moduli", list, int) if kind == "abelian" \
        else None
    images = _json_field(spec, "images", list, list)
    if any(type(a) is not int for v in images for a in v):
        raise ValueError("quotient images must hold only integers")
    return moduli, images


def spec_size(spec: dict) -> int:
    """Element count of a quotient spec, read without building it."""
    moduli, images = _spec_fields(spec)
    if moduli is not None:
        return math.prod(moduli)
    return len(images[0]) if images else 1


class QuotientAction(Action):
    """A finite quotient of the presented group, given concretely enough
    to trace: spec kind "abelian" carries invariant-factor moduli and a
    coordinate vector per generator; kind "permutation" carries each
    generator's image, which is its plain-letter column. Element 0 is the
    identity either way, and the columns ARE the coset table of the
    kernel. A spec whose images do not reach every point from 0 is no
    such table, and raises ValueError."""

    def __init__(self, spec: dict, rank: int):
        moduli, images = _spec_fields(spec)
        cols = []
        if moduli is not None:
            if any(d < 2 for d in moduli):
                raise ValueError("abelian moduli must all be >= 2")
            if len(images) != rank or any(len(v) != len(moduli) for v in images):
                raise ValueError("need one coordinate vector per generator")
            # element index = position in lexicographic order of the
            # coordinate tuples
            elements = list(itertools.product(*(range(d) for d in moduli)))
            index = {e: c for c, e in enumerate(elements)}
            size = len(elements)
            for img in images:
                for step in (img, [-b for b in img]):
                    cols.append([index[tuple(
                        (a + b) % d for a, b, d in zip(e, step, moduli))]
                        for e in elements])
        else:
            if len(images) != rank:
                raise ValueError("need one permutation per generator")
            size = len(images[0]) if images else 1
            if size < 1:
                raise ValueError("a permutation action needs a point")
            for perm in images:
                if sorted(perm) != list(range(size)):
                    raise ValueError("generator image is not a permutation")
                # the inverse lists the points in the order of their images
                cols += (perm, sorted(range(size), key=perm.__getitem__))
        super().__init__(cols, size)


def permutation_quotient(cols: list) -> dict:
    """Quotient spec from a closed regular table's columns."""
    return {"kind": "permutation", "images": [list(col) for col in cols[0::2]]}


# --- infinite-order certificates -------------------------------------------

CERTIFICATE_SCHEMA = "burnside/order-certificate/2"

# the largest quotient a certifier is built for, unless budgets say otherwise
DEFAULT_MAX_KERNEL_INDEX = 2048


class NotAQuotient(ValueError):
    """The spec's action does not satisfy every relator."""


class Kernel:
    """The kernel H of a quotient action of the presented group, with its
    Schreier generators.

    H has one Schreier generator per edge (c, x), x a plain letter, off
    the breadth-first tree of the action's transversal, whose edge into
    point d is the last letter of reps[d]. ``gens[x >> 1][c]`` numbers
    the edge (c, x), by c and then x, and is None on a tree edge. A
    relator's row at a point counts the generators that its trace from
    there crosses, each with its sign; free reduction changes no count.
    A relator u^k (u its primitive root) goes k/l times round the cycle
    of u through the point, l the cycle's length, so all points of a
    cycle share one row, and the relator closes there only if l divides
    k. A spec that is no transitive action raises ValueError."""

    def __init__(self, p: Presentation, quotient_spec: dict):
        self.presentation = p
        self.quotient_spec = quotient_spec
        self.action = action = QuotientAction(quotient_spec, p.rank)
        cols, size = action.cols, action.size
        self.gens = gens = [[0] * size for _ in range(p.rank)]
        for d in range(1, size):
            x = action.reps[d][-1]
            # the tree edge into d, read along its plain letter
            gens[x >> 1][d if x & 1 else cols[x ^ 1][d]] = None
        n = 0
        for c in range(size):
            for col in gens:
                if col[c] is not None:
                    col[c] = n
                    n += 1
        self.num_gens = n

    def cycle(self, w: Word, c: int) -> Tuple[list, dict]:
        """(points, v): trace w from point c again and again until the
        walk returns to c; points lists where each trace starts, c first,
        and v maps each Schreier generator to the times it is crossed
        forwards less the times backwards, where that is not 0."""
        cols, gens = self.action.cols, self.gens
        v: dict = {}
        points, start = [], c
        while True:
            points.append(c)
            for x in w:
                d = cols[x][c]
                g = gens[x >> 1][d if x & 1 else c]
                if g is not None:
                    v[g] = v.get(g, 0) + (-1 if x & 1 else 1)
                c = d
            if c == start:
                return points, {g: a for g, a in v.items() if a}

    def power_vector(self, w: Word) -> Tuple[int, dict]:
        """(s, v): s is the order of w's image in the quotient, the
        number of traces of w from point 0 until the walk returns there,
        so w^s lies in H; v counts the Schreier generators in w^s, as in
        ``cycle``."""
        points, v = self.cycle(w, 0)
        return len(points), v

    def relator_cycles(self, r: Word):
        """Yield (points, row) for each cycle of r's primitive root u,
        r = u^k, by lowest point, which comes first: row is the relation
        row of r at every one of the points, as its nonzero counts. A
        cycle whose length does not divide k raises NotAQuotient at its
        lowest point."""
        u, k = primitive_root(r)
        seen = bytearray(self.action.size)
        for c in range(self.action.size):
            if seen[c]:
                continue
            points, row = self.cycle(u, c)
            turns, rest = divmod(k, len(points))
            if rest:
                raise NotAQuotient(
                    f"relator {format_word(r, self.presentation.rank)} "
                    f"does not close at point {c}")
            for d in points:
                seen[d] = 1
            yield points, row if turns == 1 else {
                g: turns * a for g, a in row.items()}


def _dot(f: Sequence[int], v: dict) -> int:
    """f.v for v a map from Schreier generators to nonzero counts."""
    return sum(f[g] * a for g, a in v.items())


def _json_field(data: dict, key: str, kind: type,
                item: Optional[type] = None):
    """data[key], which must be exactly a ``kind`` (a bool is no int),
    holding only ``item``s if given."""
    value = data.get(key)
    if type(value) is not kind or \
            item is not None and any(type(v) is not item for v in value):
        raise ValueError(f"certificate field {key!r} is missing or ill-typed")
    return value


class Certificate(Record):
    """w has infinite order: ``homomorphism`` (f) vanishes on every
    relation row of the quotient's kernel, and ``value`` = f.v is not 0,
    where v counts the Schreier generators in w^power."""

    def __init__(self, presentation: Presentation, word: Word, power: int,
                 quotient: dict, kernel_index: int, homomorphism: tuple,
                 value: int):
        self.presentation = presentation
        self.word = word
        self.power = power
        self.quotient = quotient
        self.kernel_index = kernel_index
        self.homomorphism = homomorphism
        self.value = value

    def to_json_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "order": ORDER_ID,
            "presentation": {
                "rank": self.presentation.rank,
                "relators": [
                    format_word(r, self.presentation.rank)
                    for r in self.presentation.relators
                ],
            },
            "word": format_word(self.word, self.presentation.rank),
            "power": self.power,
            "quotient": self.quotient,
            "kernel_index": self.kernel_index,
            "homomorphism": list(self.homomorphism),
            "value": self.value,
        }

    @classmethod
    def from_json_dict(cls, data) -> "Certificate":
        """Parse the JSON form; another schema, or a missing or ill-typed
        field, raises ValueError. The quotient spec itself is checked on
        replay."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != CERTIFICATE_SCHEMA:
            raise ValueError(f"not an order certificate of schema "
                             f"{CERTIFICATE_SCHEMA}: {schema!r}")
        pres = _json_field(data, "presentation", dict)
        rank = _json_field(pres, "rank", int)
        relators = _json_field(pres, "relators", list, str)
        return cls(
            presentation=Presentation(
                rank, tuple(parse_word(t, rank) for t in relators)),
            word=parse_word(_json_field(data, "word", str), rank),
            power=_json_field(data, "power", int),
            quotient=_json_field(data, "quotient", dict),
            kernel_index=_json_field(data, "kernel_index", int),
            homomorphism=tuple(_json_field(data, "homomorphism", list, int)),
            value=_json_field(data, "value", int),
        )


class KernelCertifier(Kernel):
    """A kernel that finds its homomorphisms to Z, reusable across words.

    One SNF of the relation matrix M, S = U.M.V, is built once per stage
    quotient, over one dense row per relator cycle, by lowest point and
    then relator: each column j of V whose column of S is zero has
    M.V[:, j] = 0, and these columns span every homomorphism from the
    kernel to Z, so a per-candidate check is a few dot products. An SNF
    over MAX_SMITH_CELLS raises SmithFormTooLarge before any row is dense.
    """

    def __init__(self, p: Presentation, quotient_spec: dict):
        super().__init__(p, quotient_spec)
        n = self.num_gens
        # a cycle's lowest point is its own, so no two keys tie
        cycles = sorted((points[0], j, row) for j, r in enumerate(p.relators)
                        for points, row in self.relator_cycles(r))
        check_smith_size(n, len(cycles), f"a kernel of index "
                         f"{self.action.size} with {n} Schreier generators "
                         f"and {len(cycles)} relator cycles")
        S, V = smith_normal_form([[row.get(g, 0) for g in range(n)]
                                  for _, _, row in cycles], ncols=n)
        self.homomorphisms = [tuple(row[j] for row in V) for j in range(n)
                              if j >= len(S) or S[j][j] == 0]

    @property
    def kernel_free_rank(self) -> int:
        return len(self.homomorphisms)

    def certify(self, w: Word) -> Optional[Certificate]:
        """Certificate that w has infinite order, or None if this
        quotient's kernel cannot see it: w^s then lies in the rational
        span of the relation rows."""
        w = free_reduce(w)
        if not w or not self.homomorphisms:
            return None
        s, v = self.power_vector(w)
        for f in self.homomorphisms:
            value = _dot(f, v)
            if value:
                return Certificate(
                    presentation=self.presentation,
                    word=w,
                    power=s,
                    quotient=self.quotient_spec,
                    kernel_index=self.action.size,
                    homomorphism=f,
                    value=value,
                )
        return None


class Ladder:
    """The certifier ladder of one presentation: named quotient specs,
    each rung's certifier built on first use and kept.

    Iterating yields (name, certifier) pairs in rung order and builds a
    rung only when the iteration reaches it, so a search that stops at
    rung k never builds the rungs above k. A rung whose SNF would exceed
    MAX_SMITH_CELLS is left out when it is reached, names included."""

    def __init__(self, p: Presentation, rungs: Sequence[Tuple[str, dict]]):
        self.presentation = p
        self._rungs = list(rungs)  # a spec gives way to its certifier

    @property
    def names(self) -> list:
        return [name for name, _ in self._rungs]

    def __iter__(self):
        k = 0
        while k < len(self._rungs):
            name, spec = self._rungs[k]
            if isinstance(spec, dict):
                try:
                    self._rungs[k] = name, KernelCertifier(self.presentation,
                                                           spec)
                except SmithFormTooLarge:
                    del self._rungs[k]
                    continue
            yield self._rungs[k]
            k += 1


def ladder(p: Presentation, ab: AbelianInvariants, max_kernel_index: int,
           extra: Sequence[Tuple[str, dict]] = ()) -> Ladder:
    """The certifier ladder of p: one rung for the torsion quotient of
    G^ab (``ab`` holds its spec), then one per (name, spec) of ``extra``,
    in order, and last, when G^ab has both torsion and a free part, the
    trivial quotient: its kernel is G itself, which certifies every word
    with an image of infinite order in G^ab even when the torsion rung is
    left out. A spec of more than ``max_kernel_index`` elements is left
    out before it is built; the others are built on first use, and left
    out then if their SNF would exceed MAX_SMITH_CELLS."""
    rungs = [("abelian-torsion", ab.quotient), *extra]
    if ab.free_rank and ab.torsion:
        rungs.append(("trivial", {"kind": "abelian", "moduli": [],
                                  "images": [[] for _ in range(p.rank)]}))
    return Ladder(p, [rung for rung in rungs
                      if spec_size(rung[1]) <= max_kernel_index])


def verify_certificate(cert: Certificate,
                       max_kernel_index: int = DEFAULT_MAX_KERNEL_INDEX):
    """Independent replay of a certificate; returns (ok, reason).

    The kernel is rebuilt from the quotient spec and presentation, and
    each relator cycle's row, which the certifier's SNF read too, is
    checked against f as it is counted. Every relator must close, f must
    have one entry per Schreier generator and vanish on every row (a
    miss is named by relator and lowest point), the power must be the
    image order of the word, and f.v must equal the claimed value, which
    is not 0. No SNF runs and no relation matrix is held. The
    claimed index is checked against ``max_kernel_index`` and the spec's
    element count first, so an oversized quotient is never built.
    """
    if cert.kernel_index > max_kernel_index:
        return False, (f"kernel index {cert.kernel_index} exceeds the "
                       f"bound {max_kernel_index}")
    try:
        if spec_size(cert.quotient) != cert.kernel_index:
            return False, "kernel index mismatch"
        k = Kernel(cert.presentation, cert.quotient)
    except (KeyError, TypeError, ValueError) as e:
        return False, f"bad quotient spec: {e}"
    f, relators = cert.homomorphism, cert.presentation.relators
    fits = len(f) == k.num_gens  # a misfit is reported after the closure
    try:  # the first row f misses, by lowest point and then relator
        missed = min(((points[0], j) for j, r in enumerate(relators)
                      for points, row in k.relator_cycles(r)
                      if fits and _dot(f, row)), default=None)
    except NotAQuotient as e:
        return False, f"quotient does not satisfy the relators: {e}"
    w = free_reduce(cert.word)
    if not w:
        return False, "empty word cannot have infinite order"
    if len(f) != k.num_gens:
        return False, (f"homomorphism has {len(f)} entries, not one per "
                       f"Schreier generator ({k.num_gens})")
    if missed is not None:
        c, j = missed
        return False, (f"homomorphism is not 0 on relator "
                       f"{format_word(relators[j], cert.presentation.rank)} "
                       f"at point {c}")
    s, v = k.power_vector(w)
    if s != cert.power:
        return False, f"power mismatch: image order is {s}, not {cert.power}"
    value = _dot(f, v)
    if value != cert.value:
        return False, f"value mismatch: f.v is {value}, not {cert.value}"
    if value == 0:
        return False, "value is zero"
    return True, "ok"
