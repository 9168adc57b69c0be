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

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cosets import transversal_words
from .presentation import Presentation, format_presentation, parse_presentation
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

    @property
    def finite(self) -> bool:
        return self.free_rank == 0

    @property
    def torsion_order(self) -> int:
        return math.prod(self.torsion) if self.torsion else 1


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    """Invariant factors of G^ab from the relator exponent matrix."""
    rows = [_exponent_vector(r, p.rank) for r in p.relators]
    S, _ = smith_normal_form(rows, ncols=p.rank)
    diag = snf_diagonal(S, p.rank)
    torsion = tuple(d for d in diag if d > 1)
    nonzero = sum(1 for d in diag if d != 0)
    return AbelianInvariants(torsion, p.rank - nonzero)


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
    rows ARE the coset table of the kernel."""

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
            size = math.prod(moduli) if moduli else 1
            strides = []
            acc = 1
            for d in reversed(moduli):
                strides.append(acc)
                acc *= d
            strides.reverse()

            def encode(tup):
                return sum(v * s for v, s in zip(tup, strides))

            elements = [()]
            if moduli:
                elements = [[]]
                for d in moduli:
                    elements = [e + [v] for e in elements for v in range(d)]
            rows = []
            for e in elements:
                row = []
                for i in range(rank):
                    img = images[i]
                    fwd = [(a + b) % d for a, b, d in zip(e, img, moduli)] if moduli else []
                    bwd = [(a - b) % d for a, b, d in zip(e, img, moduli)] if moduli else []
                    row.append(encode(fwd))
                    row.append(encode(bwd))
                rows.append(row)
            self.size = size
            self.rows = rows
        elif kind == "permutation":
            images = [list(map(int, perm)) for perm in spec["images"]]
            if len(images) != rank:
                raise ValueError("need one permutation per generator")
            size = len(images[0]) if images else 1
            for perm in images:
                if sorted(perm) != list(range(size)):
                    raise ValueError("generator image is not a permutation")
            inverses = []
            for perm in images:
                inv = [0] * size
                for i, v in enumerate(perm):
                    inv[v] = i
                inverses.append(inv)
            rows = []
            for c in range(size):
                row = []
                for i in range(rank):
                    row.append(images[i][c])
                    row.append(inverses[i][c])
                rows.append(row)
            self.size = size
            self.rows = rows
        else:
            raise ValueError(f"unknown quotient kind {kind!r}")

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


def abelian_torsion_quotient(p: Presentation) -> dict:
    """Quotient spec for the torsion part of G^ab (trivial if none).

    The projection G -> G^ab -> torsion summand is a homomorphism; in the
    Smith basis the i-th generator's coordinates are row i of V restricted
    to the torsion positions.
    """
    rows = [_exponent_vector(r, p.rank) for r in p.relators]
    S, V = smith_normal_form(rows, ncols=p.rank)
    diag = snf_diagonal(S, p.rank)
    positions = [j for j, d in enumerate(diag) if d > 1]
    moduli = [diag[j] for j in positions]
    images = []
    for i in range(p.rank):
        # e_i * V is just row i of V
        images.append([V[i][j] % diag[j] for j in positions])
    return {"kind": "abelian", "moduli": moduli, "images": images}


def permutation_quotient(rows: list, rank: int) -> dict:
    """Quotient spec from a closed regular table (realization rows)."""
    images = []
    for i in range(rank):
        images.append([rows[c][2 * i] for c in range(len(rows))])
    return {"kind": "permutation", "images": images}


# --- infinite-order certificates -------------------------------------------

CERTIFICATE_SCHEMA = "burnside/order-certificate/1"


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
    def from_json_dict(cls, data: dict) -> "Certificate":
        if data.get("schema") != CERTIFICATE_SCHEMA:
            raise ValueError(f"not an order certificate: {data.get('schema')!r}")
        rank = int(data["presentation"]["rank"])
        p = Presentation(
            rank,
            tuple(parse_word(t, rank) for t in data["presentation"]["relators"]),
        )
        return cls(
            presentation=p,
            word=parse_word(data["word"], rank),
            power=int(data["power"]),
            quotient=data["quotient"],
            kernel_index=int(data["kernel_index"]),
            num_schreier_gens=int(data["num_schreier_generators"]),
            free_positions=tuple(data["free_positions"]),
            witness_position=int(data["witness_position"]),
            witness_coordinate=int(data["witness_coordinate"]),
        )


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
            raise ValueError("spec is not a quotient of the presentation")
        self.sd = schreier_data(self.action.rows, p.rank)
        matrix, num_gens = subgroup_relation_matrix(p, self.sd)
        S, V = smith_normal_form(matrix, ncols=num_gens)
        diag = snf_diagonal(S, num_gens)
        self.V = V
        self.diag = diag
        self.num_gens = num_gens
        self.free_positions = tuple(
            j for j in range(num_gens) if j >= len(diag) or diag[j] == 0
        )

    @property
    def kernel_free_rank(self) -> int:
        return len(self.free_positions)

    def certify(self, w: Word) -> Optional[Certificate]:
        """Certificate that w has infinite order, or None if this
        quotient's kernel cannot see it."""
        w = free_reduce(w)
        if not w or not self.free_positions:
            return None
        s = self.action.order_of_image(w)
        rewritten = rewrite_in_subgroup(self.sd, power(w, s), start=0)
        vec = _exponent_vector(rewritten, self.num_gens)
        coords = mat_vec_left(vec, self.V)
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


def infinite_order_certificate(p: Presentation, w: Word,
                               quotient_spec: dict) -> Optional[Certificate]:
    return KernelCertifier(p, quotient_spec).certify(w)


def verify_certificate(cert: Certificate):
    """Independent replay of a certificate; returns (ok, reason).

    Everything is recomputed from the quotient spec and presentation:
    quotient validity, minimality of the power, the Schreier rewrite,
    a fresh SNF, and the witness coordinate.
    """
    p = cert.presentation
    # sized before it is built: the spec may name far more elements
    # than the claimed index
    try:
        if spec_size(cert.quotient) != cert.kernel_index:
            return False, "kernel index mismatch"
        action = QuotientAction(cert.quotient, p.rank)
    except (KeyError, TypeError, ValueError) as e:
        return False, f"bad quotient spec: {e}"
    if not action.satisfies(p.relators):
        return False, "quotient does not satisfy the relators"
    w = free_reduce(cert.word)
    if not w:
        return False, "empty word cannot have infinite order"
    s = action.order_of_image(w)
    if s != cert.power:
        return False, f"power mismatch: image order is {s}, not {cert.power}"
    sd = schreier_data(action.rows, p.rank)
    if sd.num_gens != cert.num_schreier_gens:
        return False, "schreier generator count mismatch"
    matrix, num_gens = subgroup_relation_matrix(p, sd)
    S, V = smith_normal_form(matrix, ncols=num_gens)
    diag = snf_diagonal(S, num_gens)
    free_positions = tuple(
        j for j in range(num_gens) if j >= len(diag) or diag[j] == 0
    )
    if free_positions != tuple(cert.free_positions):
        return False, "free position mismatch"
    j = cert.witness_position
    if j not in free_positions:
        return False, "witness position is not a free direction"
    try:
        rewritten = rewrite_in_subgroup(sd, power(w, s), start=0)
    except NotInSubgroup as e:
        return False, f"w^s is not in the kernel: {e}"
    coords = mat_vec_left(_exponent_vector(rewritten, num_gens), V)
    if coords[j] != cert.witness_coordinate:
        return False, "witness coordinate mismatch"
    if coords[j] == 0:
        return False, "witness coordinate is zero"
    return True, "ok"
