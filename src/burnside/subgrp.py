"""Finite-index subgroup machinery: Schreier transversals, Reidemeister
rewriting, integer Smith normal form, abelian invariants, and the
infinite-order certificates built from all of that.

The certificate construction: given a finite quotient Q of the presented
group G (either the torsion part of the abelianization, or a concrete
permutation realization), the kernel H has index |Q| and its coset table
is just Q's own Cayley action. Rewriting w^s (s = order of the image of
w in Q, so w^s lands in H) into Schreier generators and reading its
coordinates in the Smith basis of H's abelianized relation matrix gives
a sound infiniteness test: a nonzero coordinate in a free direction
means w^s has infinite order in H^ab, hence w has infinite order in G.
Everything in the certificate is plain integers, so a third party can
replay it with any coset-table and SNF implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cosets import transversal_words
from .presentation import Presentation
from .words import (
    ORDER_ID,
    Word,
    format_word,
    free_reduce,
    invert,
    parse_word,
    power,
)


# --- Schreier / Reidemeister ---------------------------------------------


@dataclass
class SchreierData:
    rank: int
    rows: list
    reps: list
    gen_of_edge: Dict[Tuple[int, int], int]
    gens: list
    num_gens: int


def schreier_data(rows: list, rank: int) -> SchreierData:
    """Transversal plus Schreier generators for the subgroup a closed
    table describes (coset 0 is the subgroup): one generator per
    non-tree edge (c, x) with x a plain letter, numbered by c, then x."""
    n = len(rows)
    reps = transversal_words(rows, rank)
    # the breadth-first tree edge into coset d is the last letter of reps[d]
    tree = set()
    for d in range(1, n):
        x = reps[d][-1]
        tree.add((rows[d][x ^ 1], x))
        tree.add((d, x ^ 1))
    gen_of_edge: Dict[Tuple[int, int], int] = {}
    gens: List[Word] = []
    for c in range(n):
        for g in range(0, 2 * rank, 2):
            if (c, g) not in tree:
                d = rows[c][g]
                word = free_reduce(reps[c] + (g,) + invert(reps[d]))
                gen_of_edge[(c, g)] = len(gens)
                gens.append(word)
    return SchreierData(rank, rows, reps, gen_of_edge, gens, len(gens))


class NotInSubgroup(ValueError):
    pass


def rewrite_in_subgroup(sd: SchreierData, w: Word, start: int = 0) -> Word:
    """Rewrite an ambient word into Schreier-generator letters.

    With start = c this rewrites rep[c] * w * rep[c.w]^-1; the trace must
    return to ``start`` (i.e. the conjugated word lies in the subgroup).
    Letters in the result use the same packed encoding, over the
    Schreier alphabet.
    """
    c = start
    out = []
    for x in w:
        if x & 1:
            d = sd.rows[c][x]
            gid = sd.gen_of_edge.get((d, x ^ 1))
            if gid is not None:
                out.append(2 * gid + 1)
            c = d
        else:
            gid = sd.gen_of_edge.get((c, x))
            if gid is not None:
                out.append(2 * gid)
            c = sd.rows[c][x]
    if c != start:
        raise NotInSubgroup(f"trace ends at coset {c}, not {start}")
    return free_reduce(out)


def _exponent_vector(w: Word, num_gens: int) -> list:
    v = [0] * num_gens
    for x in w:
        v[x >> 1] += -1 if x & 1 else 1
    return v


def subgroup_relation_matrix(p: Presentation, sd: SchreierData):
    """Abelianized Reidemeister relations: one row per (coset, relator).

    Returns (rows, num_gens). Free reduction is irrelevant after
    abelianization, so the raw letter counts are used.
    """
    rows = []
    for c in range(len(sd.rows)):
        for r in p.relators:
            word = rewrite_in_subgroup(sd, r, start=c)
            rows.append(_exponent_vector(word, sd.num_gens))
    return rows, sd.num_gens


# --- integer matrices / Smith normal form ---------------------------------


def mat_identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec_left(v: Sequence[int], M: list) -> list:
    """Row vector times matrix."""
    if not M:
        return []
    cols = len(M[0])
    out = [0] * cols
    for k, a in enumerate(v):
        if a:
            Mk = M[k]
            for j in range(cols):
                out[j] += a * Mk[j]
    return out


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


@dataclass(frozen=True)
class AbelianInvariants:
    torsion: tuple  # invariant factors > 1, divisibility chain order
    free_rank: int
    # quotient spec of the torsion part of G^ab (trivial if none)
    quotient: dict = field(compare=False, repr=False)

    @property
    def finite(self) -> bool:
        return self.free_rank == 0


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    """Invariant factors of G^ab from the relator exponent matrix, and
    the quotient spec of its torsion part, both from one SNF.

    The projection G -> G^ab -> torsion summand is a homomorphism; in the
    Smith basis the i-th generator's coordinates are row i of V (e_i * V)
    restricted to the torsion positions.
    """
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


def spec_size(spec: dict) -> int:
    """Element count of a quotient spec, read without building it."""
    if spec["kind"] == "abelian":
        return math.prod(int(d) for d in spec["moduli"]) if spec["moduli"] else 1
    return len(spec["images"][0]) if spec["images"] else 1


class QuotientAction:
    """A finite quotient of the presented group, given concretely enough
    to trace: spec kind "abelian" carries invariant-factor moduli and a
    coordinate vector per generator; kind "permutation" carries the rows
    of a regular permutation action (a closed coset table over the
    trivial subgroup). Element 0 is the identity either way, and the
    rows ARE the coset table of the kernel. A spec whose images do not
    reach every point from 0 is no such table, and raises ValueError."""

    def __init__(self, spec: dict, rank: int):
        self.spec = spec
        self.rank = rank
        kind = spec["kind"]
        if kind == "abelian":
            moduli = [int(d) for d in spec["moduli"]]
            if any(d < 2 for d in moduli):
                raise ValueError("abelian moduli must all be >= 2")
            images = [list(map(int, v)) for v in spec["images"]]
            if len(images) != rank or any(len(v) != len(moduli) for v in images):
                raise ValueError("need one coordinate vector per generator")
            # element index = position in lexicographic order of the
            # coordinate tuples
            elements = list(itertools.product(*(range(d) for d in moduli)))
            index = {e: c for c, e in enumerate(elements)}
            self.size = len(elements)
            self.rows = [
                [index[tuple((a + sign * b) % d
                             for a, b, d in zip(e, img, moduli))]
                 for img in images for sign in (1, -1)]
                for e in elements]
        elif kind == "permutation":
            images = [list(map(int, perm)) for perm in spec["images"]]
            if len(images) != rank:
                raise ValueError("need one permutation per generator")
            size = len(images[0]) if images else 1
            if size < 1:
                raise ValueError("a permutation action needs a point")
            for perm in images:
                if sorted(perm) != list(range(size)):
                    raise ValueError("generator image is not a permutation")
            # the inverse lists the points in the order of their images
            inverses = [sorted(range(size), key=perm.__getitem__)
                        for perm in images]
            self.size = size
            self.rows = [[g[c] for perm, inv in zip(images, inverses)
                          for g in (perm, inv)] for c in range(size)]
        else:
            raise ValueError(f"unknown quotient kind {kind!r}")
        # the rows are a coset table only if the images generate a
        # transitive action: every point reached from 0
        reached = [False] * self.size
        reached[0] = True
        queue = [0]
        for c in queue:  # grows while it is read
            for d in self.rows[c]:
                if not reached[d]:
                    reached[d] = True
                    queue.append(d)
        if len(queue) != self.size:
            raise ValueError("the action is not transitive: "
                             f"{len(queue)} of {self.size} points "
                             "reached from 0")

    def trace(self, c: int, w: Word) -> int:
        for x in w:
            c = self.rows[c][x]
        return c

    def satisfies(self, relators) -> bool:
        return all(self.trace(0, r) == 0 for r in relators)

    def order_of_image(self, w: Word) -> int:
        c = self.trace(0, w)
        d = 1
        while c != 0:
            c = self.trace(c, w)
            d += 1
        return d


def permutation_quotient(rows: list, rank: int) -> dict:
    """Quotient spec from a closed regular table (realization rows)."""
    images = []
    for i in range(rank):
        images.append([rows[c][2 * i] for c in range(len(rows))])
    return {"kind": "permutation", "images": images}


# --- infinite-order certificates -------------------------------------------

CERTIFICATE_SCHEMA = "burnside/order-certificate/1"

# the largest quotient a certifier is built for, unless budgets say otherwise
DEFAULT_MAX_KERNEL_INDEX = 2048


def _json_field(data: dict, key: str, kind: type,
                item: Optional[type] = None):
    """data[key], which must be exactly a ``kind`` (a bool is no int),
    holding only ``item``s if given."""
    value = data.get(key)
    if type(value) is not kind or \
            item is not None and any(type(v) is not item for v in value):
        raise ValueError(f"certificate field {key!r} is missing or ill-typed")
    return value


@dataclass
class Certificate:
    presentation: Presentation
    word: Word
    power: int
    quotient: dict
    kernel_index: int
    num_schreier_gens: int
    free_positions: tuple
    witness_position: int
    witness_coordinate: int

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
            "num_schreier_generators": self.num_schreier_gens,
            "free_positions": list(self.free_positions),
            "witness_position": self.witness_position,
            "witness_coordinate": self.witness_coordinate,
        }

    @classmethod
    def from_json_dict(cls, data) -> "Certificate":
        """Parse the JSON form; a missing or ill-typed field raises
        ValueError. The quotient spec itself is checked on replay."""
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != CERTIFICATE_SCHEMA:
            raise ValueError(f"not an order certificate: {schema!r}")
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
            num_schreier_gens=_json_field(data, "num_schreier_generators",
                                          int),
            free_positions=tuple(_json_field(data, "free_positions", list,
                                             int)),
            witness_position=_json_field(data, "witness_position", int),
            witness_coordinate=_json_field(data, "witness_coordinate", int),
        )


class NotAQuotient(ValueError):
    """The spec's action does not satisfy every relator."""


class KernelCertifier:
    """Per-(presentation, quotient) machinery, reusable across words.

    Building the Schreier data, relation matrix and its SNF once per
    stage quotient is what makes per-candidate certificate checks cheap.
    """

    def __init__(self, p: Presentation, quotient_spec: dict):
        self.presentation = p
        self.quotient_spec = quotient_spec
        self.action = QuotientAction(quotient_spec, p.rank)
        if not self.action.satisfies(p.relators):
            raise NotAQuotient("spec is not a quotient of the presentation")
        self.sd = schreier_data(self.action.rows, p.rank)
        matrix, num_gens = subgroup_relation_matrix(p, self.sd)
        S, self.V = smith_normal_form(matrix, ncols=num_gens)
        diag = snf_diagonal(S, num_gens)
        self.num_gens = num_gens
        self.free_positions = tuple(
            j for j in range(num_gens) if j >= len(diag) or diag[j] == 0
        )

    @property
    def kernel_free_rank(self) -> int:
        return len(self.free_positions)

    def coordinates(self, w: Word) -> Tuple[int, list]:
        """(s, c): s is the order of w's image in the quotient, so w^s
        lies in the kernel, and c holds the coordinates of w^s in the
        Smith basis of the kernel's abelianization."""
        s = self.action.order_of_image(w)
        rewritten = rewrite_in_subgroup(self.sd, power(w, s), start=0)
        return s, mat_vec_left(_exponent_vector(rewritten, self.num_gens),
                               self.V)

    def certify(self, w: Word) -> Optional[Certificate]:
        """Certificate that w has infinite order, or None if this
        quotient's kernel cannot see it."""
        w = free_reduce(w)
        if not w or not self.free_positions:
            return None
        s, coords = self.coordinates(w)
        for j in self.free_positions:
            if coords[j]:
                return Certificate(
                    presentation=self.presentation,
                    word=w,
                    power=s,
                    quotient=self.quotient_spec,
                    kernel_index=self.action.size,
                    num_schreier_gens=self.num_gens,
                    free_positions=self.free_positions,
                    witness_position=j,
                    witness_coordinate=coords[j],
                )
        return None


class Ladder:
    """The certifier ladder of one presentation: named quotient specs,
    each rung's KernelCertifier built on first use and kept.

    Iterating yields (name, certifier) pairs in rung order and builds a
    rung only when the iteration reaches it, so a search that stops at
    rung k never builds the rungs above k."""

    def __init__(self, p: Presentation, rungs: Sequence[Tuple[str, dict]]):
        self.presentation = p
        self.names = [name for name, _ in rungs]
        self._specs = [spec for _, spec in rungs]
        self._built: Dict[int, KernelCertifier] = {}

    def __iter__(self):
        for k, name in enumerate(self.names):
            if k not in self._built:
                self._built[k] = KernelCertifier(self.presentation,
                                                 self._specs[k])
            yield name, self._built[k]


def ladder(p: Presentation, ab: AbelianInvariants, max_kernel_index: int,
           extra: Sequence[Tuple[str, dict]] = ()) -> Ladder:
    """The certifier ladder of p: one rung for the torsion quotient of
    G^ab (``ab`` holds its spec), then one per (name, spec) of ``extra``,
    in order. A spec of more than ``max_kernel_index`` elements is left
    out before it is built; the others are built on first use."""
    rungs = [("abelian-torsion", ab.quotient), *extra]
    return Ladder(p, [(name, spec) for name, spec in rungs
                      if spec_size(spec) <= max_kernel_index])


def infinite_order_certificate(p: Presentation, w: Word,
                               quotient_spec: dict) -> Optional[Certificate]:
    return KernelCertifier(p, quotient_spec).certify(w)


def verify_certificate(cert: Certificate,
                       max_kernel_index: int = DEFAULT_MAX_KERNEL_INDEX):
    """Independent replay of a certificate; returns (ok, reason).

    A fresh KernelCertifier rebuilds everything from the quotient spec
    and presentation (quotient validity, Schreier generators, a fresh
    SNF); then the power, the free directions and the witness coordinate
    must match the claims. The claimed index is checked against
    ``max_kernel_index`` and the spec's element count first, so an
    oversized quotient is never built.
    """
    if cert.kernel_index > max_kernel_index:
        return False, (f"kernel index {cert.kernel_index} exceeds the "
                       f"bound {max_kernel_index}")
    try:
        if spec_size(cert.quotient) != cert.kernel_index:
            return False, "kernel index mismatch"
        certifier = KernelCertifier(cert.presentation, cert.quotient)
    except NotAQuotient:
        return False, "quotient does not satisfy the relators"
    except (KeyError, TypeError, ValueError) as e:
        return False, f"bad quotient spec: {e}"
    w = free_reduce(cert.word)
    if not w:
        return False, "empty word cannot have infinite order"
    s, coords = certifier.coordinates(w)
    if s != cert.power:
        return False, f"power mismatch: image order is {s}, not {cert.power}"
    if certifier.num_gens != cert.num_schreier_gens:
        return False, "schreier generator count mismatch"
    if certifier.free_positions != tuple(cert.free_positions):
        return False, "free position mismatch"
    j = cert.witness_position
    if j not in certifier.free_positions:
        return False, "witness position is not a free direction"
    if coords[j] != cert.witness_coordinate:
        return False, "witness coordinate mismatch"
    if coords[j] == 0:
        return False, "witness coordinate is zero"
    return True, "ok"
