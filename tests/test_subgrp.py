"""Schreier subgroup data, Smith normal form, order certificates."""

import itertools
import json
import random
import time
import tracemalloc

import pytest

from burnside import cosets, subgrp
from burnside.cosets import enumerate_cosets
from burnside.presentation import parse_presentation
from burnside.subgrp import (
    Certificate,
    DEFAULT_MAX_KERNEL_INDEX,
    Kernel,
    KernelCertifier,
    NotAQuotient,
    QuotientAction,
    SmithFormTooLarge,
    abelian_invariants,
    ladder,
    permutation_quotient,
    smith_normal_form,
    snf_diagonal,
    verify_certificate,
)
from burnside.words import format_word, parse_word, power, primitive_root
from support import (
    CERT_TYPES,
    JSON_JUNK,
    PointRowCertifier,
    check_smith_form,
    count_cycle_letters,
    determinant,
    determinantal_divisors,
    in_rational_row_space,
    quotient_rows,
    replaced,
    row_exponent_vector,
    row_schreier_data,
)


def P(text):
    return parse_presentation(text)


def dense(v, n):
    """A map from Schreier generators to counts as a vector of length n."""
    return [v.get(g, 0) for g in range(n)]


def cycle_rows(k):
    """A kernel's relation rows, one per relator cycle, as vectors."""
    return [dense(row, k.num_gens) for r in k.presentation.relators
            for _, row in k.relator_cycles(r)]


DINF = "gens 2\nrel aa\nrel bb\n"
TRIANGLE = "gens 2\nrel aaa\nrel bbb\nrel ababab\n"
KLEIN = "gens 2\nrel aa\nrel bb\nrel abab\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
D6 = "gens 2\nrel aaaaaa\nrel bb\nrel abab\n"  # dihedral, order 12


# --- Schreier data ---------------------------------------------------------


def test_schreier_rank_index_2():
    # kernel of F2 -> Z2 (both generators nontrivial)
    free2 = P("gens 2\n")
    gens = [parse_word(w, 2) for w in ("aa", "bb", "ab")]
    t = enumerate_cosets(free2, gens, 100)
    assert t.closed and t.num_cosets == 2
    k = Kernel(free2, permutation_quotient(t.cols))
    # Nielsen-Schreier: rank = index*(m-1) + 1; the tree edge (0, a) has
    # no number, and bA, aa, ab are numbered by point, then letter
    assert k.num_gens == 3
    assert k.gens == [[None, 1], [0, 2]]
    # a goes round the 2-cycle (0 1) and crosses aa, generator 1
    points, v = k.cycle(parse_word("a", 2), 0)
    assert (points, dense(v, 3)) == ([0, 1], [0, 1, 0])
    s, v = k.power_vector(parse_word("a", 2))
    assert (s, dense(v, 3)) == (2, [0, 1, 0])


def test_schreier_rank_index_3():
    free2 = P("gens 2\n")
    gens = [parse_word(w, 2) for w in ("aaa", "b", "abA", "aabAA")]
    t = enumerate_cosets(free2, gens, 100)
    assert t.closed and t.num_cosets == 3
    k = Kernel(free2, permutation_quotient(t.cols))
    assert k.num_gens == 4
    assert sum(g is None for col in k.gens for g in col) == 2


# --- Smith normal form -----------------------------------------------------


def test_snf_hand_values():
    S, V = smith_normal_form([[2, 0], [0, 3]])
    assert snf_diagonal(S) == [1, 6]
    S, _ = smith_normal_form([[3, 0], [0, 3]])
    assert snf_diagonal(S) == [3, 3]
    S, _ = smith_normal_form([[2, 4], [4, 2]])
    assert snf_diagonal(S) == [2, 6]
    S, _ = smith_normal_form([[0, 0], [0, 0]])
    assert snf_diagonal(S) == [0, 0]


def test_snf_empty_matrix():
    S, V = smith_normal_form([], ncols=3)
    assert S == []
    assert V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 0], [0, 1]]) == 1
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_determinantal_divisors():
    assert determinantal_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert determinantal_divisors([[2, 4], [4, 2]]) == [2, 12]
    assert determinantal_divisors([[0, 0], [0, 0]]) == [0, 0]
    assert determinantal_divisors([[2, 4, 6]]) == [2]
    assert determinantal_divisors([[1, 2], [2, 4], [3, 6]]) == [1, 0]


def test_snf_random_property():
    rng = random.Random(1789)
    for _ in range(300):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        S, V = smith_normal_form(M)
        check_smith_form(M, S, V, nc)


# --- abelian invariants ----------------------------------------------------


def test_abelian_invariants():
    ab = abelian_invariants(P(KLEIN))
    assert ab.torsion == (2, 2) and ab.free_rank == 0
    assert ab.finite
    ab = abelian_invariants(P("gens 2\n"))
    assert ab.torsion == () and ab.free_rank == 2
    assert not ab.finite
    # Z2 x Z3 collapses to a single invariant factor
    ab = abelian_invariants(P("gens 2\nrel aa\nrel bbb\nrel abAB\n"))
    assert ab.torsion == (6,) and ab.free_rank == 0
    ab = abelian_invariants(P(B23))
    assert ab.torsion == (3, 3) and ab.free_rank == 0
    # infinite dihedral abelianizes to Z2 x Z2, no free part
    ab = abelian_invariants(P(DINF))
    assert ab.torsion == (2, 2) and ab.free_rank == 0


def test_abelian_invariants_carry_the_torsion_quotient():
    # Z2 x Z3 x Z: the quotient is Z6 and ignores the free part
    p = P("gens 3\nrel aa\nrel bbb\nrel abAB\nrel acAC\nrel bcBC\n")
    ab = abelian_invariants(p)
    assert ab.torsion == (6,) and ab.free_rank == 1
    assert ab.quotient["kind"] == "abelian" and ab.quotient["moduli"] == [6]
    kc = KernelCertifier(p, ab.quotient)
    assert kc.action.size == 6
    assert [kc.action.element_order(parse_word(w, 3))
            for w in ("a", "b", "ab", "c")] == [2, 3, 6, 1]
    # the spec is not part of the invariants' value
    assert ab == replaced(ab, quotient={})
    assert abelian_invariants(P(KLEIN)).quotient == {
        "kind": "abelian", "moduli": [2, 2], "images": [[1, 0], [0, 1]]}


def test_abelian_invariants_refuse_matrices_over_the_cap(monkeypatch):
    # the exponent matrix is relators x rank and its transform rank x rank
    monkeypatch.setattr(subgrp, "MAX_SMITH_CELLS", 6)
    ab = abelian_invariants(P("gens 2\nrel aa\nrel bb\nrel abAB\n"))
    assert ab.torsion == (2, 2)  # 6 cells: at the cap
    with pytest.raises(ValueError, match="rank 2 with 4 relators need 8"):
        abelian_invariants(P("gens 2\nrel aa\nrel bb\nrel ab\nrel aB\n"))
    with pytest.raises(ValueError, match="rank 3 with 0 relators need 9"):
        abelian_invariants(P("gens 3\n"))
    monkeypatch.undo()
    # a rank of 50,000,000 is refused before any row is built
    with pytest.raises(ValueError, match="rank 50000000 with 1 relators"):
        abelian_invariants(P("gens 50000000\nrel x1\n"))


# --- kernel certificates ---------------------------------------------------


def certify(text, word):
    """The torsion rung's certificate for word in the presented group."""
    p = P(text)
    kc = KernelCertifier(p, abelian_invariants(p).quotient)
    return kc.certify(parse_word(word, p.rank))


def test_dinf_kernel_sees_translation():
    p = P(DINF)
    kc = KernelCertifier(p, abelian_invariants(p).quotient)
    assert kc.kernel_free_rank == 1
    assert kc.action.size == 4
    cert = kc.certify(parse_word("ab", 2))
    assert cert is not None and cert.power == 2
    ok, reason = verify_certificate(cert)
    assert ok, reason
    # torsion elements are not certifiable
    assert kc.certify(parse_word("a", 2)) is None
    assert kc.certify(()) is None


def test_triangle_kernel_rank_two():
    p = P(TRIANGLE)
    kc = KernelCertifier(p, abelian_invariants(p).quotient)
    assert kc.kernel_free_rank == 2
    assert kc.action.size == 9
    # ab has order 3 here, so no certificate can exist for it
    assert kc.certify(parse_word("ab", 2)) is None
    cert = kc.certify(parse_word("aB", 2))
    assert cert is not None and cert.power == 3
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_finite_group_certifies_nothing():
    assert certify(KLEIN, "ab") is None
    assert certify(B23, "ab") is None


def test_certificate_json_roundtrip():
    cert = certify(DINF, "ab")
    blob = json.dumps(cert.to_json_dict())
    back = Certificate.from_json_dict(json.loads(blob))
    ok, reason = verify_certificate(back)
    assert ok, reason
    assert back == cert


def test_certificate_tampering_is_caught():
    # the homomorphism and its value: test_homomorphism_tampering_is_rejected
    cert = certify(DINF, "ab")
    bad = replaced(cert, power=cert.power * 2)
    ok, _ = verify_certificate(bad)
    assert not ok
    bad = replaced(cert, kernel_index=cert.kernel_index + 1)
    ok, reason = verify_certificate(bad)
    assert not ok and "index" in reason
    bad = replaced(cert, word=parse_word("a", 2))
    ok, _ = verify_certificate(bad)
    assert not ok


def _break_a_row(cert):
    # move f's first nonzero entry by one; on both certificates below
    # some relation row holds that Schreier generator
    f = list(cert.homomorphism)
    j = next(j for j, a in enumerate(f) if a)
    f[j] += 1
    return replaced(cert, homomorphism=tuple(f))


@pytest.mark.parametrize("tamper, reason", [
    (_break_a_row, "homomorphism is not 0 on relator "),
    (lambda c: replaced(c, value=c.value + 1),
     "value mismatch: f.v is "),
    (lambda c: replaced(c, value=c.value - 1),
     "value mismatch: f.v is "),
    (lambda c: replaced(c, homomorphism=c.homomorphism[1:]),
     "homomorphism has "),
    (lambda c: replaced(c, homomorphism=c.homomorphism * 2),
     "homomorphism has "),
    (lambda c: replaced(
        c, homomorphism=(0,) * len(c.homomorphism), value=0),
     "value is zero"),
])
@pytest.mark.parametrize("text, word", [(DINF, "ab"), (TRIANGLE, "aB")])
def test_homomorphism_tampering_is_rejected(text, word, tamper, reason):
    cert = certify(text, word)
    assert verify_certificate(cert) == (True, "ok")
    ok, why = verify_certificate(tamper(cert))
    assert not ok and why.startswith(reason), why


def test_replay_runs_no_smith_normal_form(monkeypatch):
    # the replay checks M.f = 0 and f.v != 0 by dot products alone
    certs = [certify(DINF, "ab"), certify(TRIANGLE, "aB"),
             certify(TRIANGLE, "abAB")]
    assert None not in certs

    def no_snf(*args, **kwargs):
        raise AssertionError("the replay reached a Smith normal form")

    monkeypatch.setattr(subgrp, "smith_normal_form", no_snf)
    for cert in certs:
        assert verify_certificate(cert) == (True, "ok")
        assert verify_certificate(Certificate.from_json_dict(
            cert.to_json_dict())) == (True, "ok")


def test_retired_certificate_schema_is_rejected_by_name():
    old = {**certify(DINF, "ab").to_json_dict(),
           "schema": "burnside/order-certificate/1"}
    with pytest.raises(ValueError, match="burnside/order-certificate/1"):
        Certificate.from_json_dict(old)


def test_oversized_quotient_is_rejected_before_it_is_built():
    # 10^12 elements would exhaust memory; the claimed index is checked first
    cert = certify(DINF, "ab")
    huge = {"kind": "abelian", "moduli": [10**6, 10**6],
            "images": [[1, 0], [0, 1]]}
    bad = replaced(cert, quotient=huge)
    assert verify_certificate(bad) == (False, "kernel index mismatch")


# S3 acting on 3 points, over <a, b | a>: a fixes point 0 but moves the
# other two, so the relator a closes at 0 and nowhere else
S3_POINTS = {"kind": "permutation", "images": [[0, 2, 1], [1, 0, 2]]}


def test_quotient_spec_must_hold():
    p = P(DINF)
    wrong = abelian_invariants(P(TRIANGLE)).quotient
    with pytest.raises(ValueError):
        KernelCertifier(p, wrong)
    # every relator must close at every point, not only at point 0
    p = P("gens 2\nrel a\n")
    with pytest.raises(NotAQuotient, match="relator a does not close at "
                                           "point 1"):
        KernelCertifier(p, S3_POINTS)
    cert = Certificate(presentation=p, word=parse_word("b", 2), power=2,
                       quotient=S3_POINTS, kernel_index=3,
                       homomorphism=(1,), value=1)
    assert verify_certificate(cert) == (
        False, "quotient does not satisfy the relators: relator a does "
               "not close at point 1")


# <a | a^2> acts on two points with a fixing both: not transitive
NON_TRANSITIVE = [{"kind": "permutation", "images": [[0, 1]]},
                  {"kind": "abelian", "moduli": [2], "images": [[0]]}]


@pytest.mark.parametrize("spec", NON_TRANSITIVE)
def test_non_transitive_quotient_is_a_bad_spec(spec):
    p = P("gens 1\nrel aa\n")
    with pytest.raises(ValueError, match="not transitive"):
        QuotientAction(spec, 1)
    cert = Certificate(presentation=p, word=parse_word("a", 1), power=1,
                       quotient=spec, kernel_index=2, homomorphism=(1,),
                       value=1)
    ok, reason = verify_certificate(cert)
    assert not ok
    assert reason.startswith("bad quotient spec: the action is not "
                             "transitive")


def test_permutation_quotient_needs_a_point():
    # a claimed kernel index of 0 matches an empty permutation's size
    spec = {"kind": "permutation", "images": [[]]}
    with pytest.raises(ValueError, match="needs a point"):
        QuotientAction(spec, 1)
    cert = Certificate(presentation=P("gens 1\nrel aa\n"),
                       word=parse_word("a", 1), power=1, quotient=spec,
                       kernel_index=0, homomorphism=(1,), value=1)
    assert verify_certificate(cert) == (
        False, "bad quotient spec: a permutation action needs a point")


@pytest.mark.parametrize("field, value, reason", [
    ("moduli", [2.5, 2.5], "certificate field 'moduli' is missing or "
                           "ill-typed"),
    ("moduli", ["2", "2"], "certificate field 'moduli' is missing or "
                           "ill-typed"),
    ("images", [[True, False], [False, True]],
     "quotient images must hold only integers")])
def test_an_abelian_spec_holds_exact_integers(field, value, reason):
    # int() once read 2.5 and "2" as 2, and True as 1, so these replayed
    cert = certify(DINF, "ab")
    assert json.dumps(cert.quotient[field]) != json.dumps(value)
    assert verify_certificate(cert) == (True, "ok")
    bad = replaced(cert, quotient={**cert.quotient, field: value})
    assert verify_certificate(bad) == (False, f"bad quotient spec: {reason}")


def test_a_permutation_spec_holds_exact_integers():
    spec = {"kind": "permutation", "images": [[1.0, 0.0]]}
    with pytest.raises(ValueError, match="only integers"):
        QuotientAction(spec, 1)
    cert = Certificate(presentation=P("gens 1\nrel aa\n"),
                       word=parse_word("a", 1), power=2, quotient=spec,
                       kernel_index=2, homomorphism=(), value=1)
    assert verify_certificate(cert) == (
        False, "bad quotient spec: quotient images must hold only integers")


def test_certificate_replay_is_bounded():
    cert = certify(DINF, "ab")
    huge = {"kind": "abelian", "moduli": [10**6, 10**6],
            "images": [[1, 0], [0, 1]]}
    bad = replaced(cert, quotient=huge, kernel_index=10**12)
    t0 = time.monotonic()
    assert verify_certificate(bad) == (
        False, f"kernel index {10**12} exceeds the bound "
               f"{DEFAULT_MAX_KERNEL_INDEX}")
    assert time.monotonic() - t0 < 1
    assert verify_certificate(cert, max_kernel_index=3) == (
        False, "kernel index 4 exceeds the bound 3")
    assert verify_certificate(cert, max_kernel_index=4) == (True, "ok")


def test_a_replay_holds_no_relation_matrix():
    # an index-2048 certificate over seven relators: a dense relation
    # matrix is 2,048 x 7 rows of 2,049 integers, over 200 MB, but the
    # replay counts and checks one row at a time
    rels = ["a" * 64, "b" * 32, "abAB", "aabAAB", "abbABB", "aabbAABB",
            "aaabAAAB"]
    p = P("gens 2\n" + "".join(f"rel {r}\n" for r in rels))
    spec = {"kind": "abelian", "moduli": [64, 32],
            "images": [[1, 0], [0, 1]]}
    cert = Certificate(presentation=p, word=parse_word("a", 2), power=64,
                       quotient=spec, kernel_index=2048,
                       homomorphism=(0,) * 2049, value=0)
    tracemalloc.start()
    try:
        assert verify_certificate(cert) == (False, "value is zero")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_coordinates_back_the_certificate():
    # v holds the coordinates of w^s over the Schreier generators, and
    # the certificate's value is f.v
    p = P(TRIANGLE)
    kc = KernelCertifier(p, abelian_invariants(p).quotient)
    w = parse_word("aB", 2)
    cert = kc.certify(w)
    s, v = kc.power_vector(w)
    v = dense(v, kc.num_gens)
    assert s == cert.power == 3
    assert len(cert.homomorphism) == kc.num_gens
    assert sum(a * b for a, b in zip(cert.homomorphism, v)) == cert.value != 0
    # every free homomorphism vanishes on every relation row
    assert all(sum(a * b for a, b in zip(f, row)) == 0
               for f in kc.homomorphisms for row in cycle_rows(kc))
    # (ab)^3 is a relator, so no homomorphism sees it
    s, v = kc.power_vector(parse_word("ab", 2))
    v = dense(v, kc.num_gens)
    assert s == 3 and all(sum(a * b for a, b in zip(f, v)) == 0
                          for f in kc.homomorphisms)


def _small_stages(rng, count):
    """(presentation, quotient spec) pairs: random two-generator stages,
    each relator a square or cube of a short word, with a torsion rung or
    a closed regular action of at most 64 elements."""
    out = []
    while len(out) < count:
        rels = ["".join(rng.choice("abAB") for _ in range(rng.randint(1, 3)))
                * rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
        rels = [r for r in rels if parse_word(r, 2)]
        text = "gens 2\n" + "".join(f"rel {r}\n" for r in rels)
        p = P(text)
        spec = abelian_invariants(p).quotient
        if rng.random() < 0.5:
            # a finite quotient: add a power relator per generator
            t = enumerate_cosets(P(text + f"rel {'a' * rng.randint(2, 4)}\n"
                                   f"rel {'b' * rng.randint(2, 3)}\n"),
                                 (), 200)
            if t.closed and t.num_cosets <= 64:
                spec = permutation_quotient(t.cols)
        if subgrp.spec_size(spec) <= 64:
            out.append((p, spec))
    return out


def test_certify_matches_the_rational_row_space():
    # reference: w is certified exactly when the kernel vector of w^s
    # lies outside the rational row space of the relation rows
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for p, spec in _small_stages(rng, 40):
        kc = KernelCertifier(p, spec)
        for _ in range(6):
            w = parse_word("".join(rng.choice("abAB")
                                   for _ in range(rng.randint(1, 5))), 2)
            _, v = kc.power_vector(w)
            outside = not in_rational_row_space(cycle_rows(kc),
                                                dense(v, kc.num_gens))
            cert = kc.certify(w)
            assert (cert is not None) == outside, (str(p), spec, w)
            seen[outside] += 1
            if cert is not None:
                assert verify_certificate(cert) == (True, "ok")
    assert min(seen.values()) > 10, seen


# <a, b | a^3, (ab)^4> on 7 points: a = (0 1 3), and ab = (1 2)(3 4 5 6)
# fixes 0, so the cycles of ab have lengths 1, 2 and 4
A_3_CYCLE = [1, 3, 2, 0, 4, 5, 6]
AB_CYCLES = [0, 2, 1, 4, 5, 6, 3]
SEVEN_POINTS = {"kind": "permutation", "images": [
    A_3_CYCLE, [AB_CYCLES[A_3_CYCLE.index(d)] for d in range(7)]]}


def test_kernel_matches_the_row_layout():
    # the action's columns, Schreier data, relation rows and certificates
    # against the row-layout reference, on both spec kinds: seeded stages,
    # then B(2,3) and D(6) as quotients of groups they satisfy, then an
    # action on which ab, the root of (ab)^4, has cycles of three lengths
    rng = random.Random(5)
    stages = _small_stages(rng, 30) + [
        (P(TRIANGLE), abelian_invariants(P(B23)).quotient),
        (P(TRIANGLE), permutation_quotient(
            enumerate_cosets(P(B23), (), 5000).cols)),
        (P("gens 2\nrel bb\nrel abab\n"), permutation_quotient(
            enumerate_cosets(P(D6), (), 5000).cols)),
        (P("gens 2\nrel aaa\nrel abababab\n"), SEVEN_POINTS)]
    assert {spec["kind"] for _, spec in stages} == {"abelian", "permutation"}
    certified = 0
    for p, spec in stages:
        kc = KernelCertifier(p, spec)
        rows = quotient_rows(spec, p.rank)
        assert [list(row) for row in zip(*kc.action.cols)] == rows
        reps, gen_of_edge = row_schreier_data(rows, p.rank)
        assert kc.action.reps == reps
        assert {(c, 2 * i): g for i, col in enumerate(kc.gens)
                for c, g in enumerate(col) if g is not None} == gen_of_edge
        assert kc.num_gens == len(gen_of_edge)
        for r in p.relators:
            cycles = list(kc.relator_cycles(r))
            assert sorted(c for points, _ in cycles for c in points) == \
                list(range(len(rows)))
            for points, row in cycles:
                for c in points:
                    assert dense(row, kc.num_gens) == \
                        row_exponent_vector(rows, gen_of_edge, r, c)
        for _ in range(4):
            w = parse_word("".join(rng.choice("abAB")
                                   for _ in range(rng.randint(1, 5))), 2)
            s = 1
            while row_exponent_vector(rows, gen_of_edge, power(w, s)) is None:
                s += 1
            v = row_exponent_vector(rows, gen_of_edge, power(w, s))
            got_s, got_v = kc.power_vector(w)
            assert (got_s, dense(got_v, kc.num_gens)) == (s, v)
            values = [sum(a * b for a, b in zip(f, v))
                      for f in kc.homomorphisms]
            want = next(((s, f, value) for f, value
                         in zip(kc.homomorphisms, values) if value), None)
            cert = kc.certify(w)
            assert want == (cert and (cert.power, cert.homomorphism,
                                      cert.value))
            certified += want is not None
    assert certified > 10


def test_certificates_match_the_point_row_reference_at_free_rank_one():
    # one row per relator cycle spans what the (point, relator) rows did,
    # so the free rank never moves; where it is 1 the homomorphism, and
    # so every certificate, is the reference's byte for byte
    rng = random.Random(11)
    rank_one = 0
    for p, spec in _small_stages(rng, 60):
        kc, ref = KernelCertifier(p, spec), PointRowCertifier(p, spec)
        assert kc.kernel_free_rank == len(ref.homomorphisms)
        if kc.kernel_free_rank != 1:
            continue
        rank_one += 1
        assert kc.homomorphisms == ref.homomorphisms
        for _ in range(4):
            w = parse_word("".join(rng.choice("abAB")
                                   for _ in range(rng.randint(1, 5))), 2)
            cert = kc.certify(w)
            assert (cert and (cert.power, cert.homomorphism, cert.value)) \
                == ref.certify(w)
    assert rank_one > 10, rank_one


def test_a_missed_row_is_named_by_its_relator_and_lowest_point():
    # the first row, in the reference's (point, relator) order, that a
    # broken f does not vanish on is the row of a relator at the lowest
    # point of its cycle
    for text, word in [(DINF, "ab"), (TRIANGLE, "aB")]:
        cert = _break_a_row(certify(text, word))
        p = cert.presentation
        ref = PointRowCertifier(p, cert.quotient)
        i = next(i for i, row in enumerate(ref.relations)
                 if sum(a * b for a, b in zip(cert.homomorphism, row)))
        c, j = divmod(i, len(p.relators))
        assert verify_certificate(cert) == (
            False, f"homomorphism is not 0 on relator "
                   f"{format_word(p.relators[j], p.rank)} at point {c}")


def test_a_cycle_row_holds_only_the_counts_its_walk_crosses():
    # a row keeps only nonzero counts, at most one per letter of the walk
    # round its cycle: the cycle's length times its root's letters. That
    # walk may cross more generators than the root has letters: on the 7
    # points, the root ab crosses 3 round its 2-cycle and 4 round its
    # 4-cycle
    stages = _small_stages(random.Random(5), 30) + [
        (P("gens 2\nrel aaa\nrel abababab\n"), SEVEN_POINTS)]
    sizes = []
    for p, spec in stages:
        k = Kernel(p, spec)
        for r in p.relators:
            u, _ = primitive_root(r)
            for points, row in k.relator_cycles(r):
                assert 0 not in row.values()
                assert len(row) <= len(points) * len(u)
                sizes.append((len(row), len(u)))
    assert any(entries > letters for entries, letters in sizes)


def test_a_kernel_build_searches_its_action_once(monkeypatch):
    # the transitivity check's transversal is the Schreier transversal
    sizes = []
    search = cosets.transversal

    def counted(cols, size):
        sizes.append(size)
        return search(cols, size)

    monkeypatch.setattr(cosets, "transversal", counted)
    p = P(TRIANGLE)
    subgrp.Kernel(p, abelian_invariants(p).quotient)
    assert sizes == [9]


def test_ladder_leaves_out_rungs_over_the_bound():
    p = P(DINF)
    ab = abelian_invariants(p)
    # the regular action of S3 = <a, b | a^2, b^2, (ab)^3>
    s3 = permutation_quotient(
        enumerate_cosets(P(DINF + "rel ababab\n"), (), 100).cols)
    assert [name for name, _ in ladder(p, ab, 3)] == []
    rungs = ladder(p, ab, 5, extra=[("s3", s3)])
    assert [(name, kc.action.size) for name, kc in rungs] == [
        ("abelian-torsion", 4)]
    rungs = ladder(p, ab, 6, extra=[("s3", s3)])
    assert [(name, kc.action.size) for name, kc in rungs] == [
        ("abelian-torsion", 4), ("s3", 6)]
    # an oversized spec is never built, so its faults never surface; an
    # in-bound one's surface when its rung is first used
    wrong = {"kind": "permutation", "images": [[0, 0, 0]] * 2}
    assert list(ladder(p, ab, 2, extra=[("wrong", wrong)])) == []
    rungs = ladder(p, ab, 4, extra=[("wrong", wrong)])
    assert rungs.names == ["abelian-torsion", "wrong"]
    with pytest.raises(ValueError):
        list(rungs)


def test_a_rung_over_the_smith_cap_is_left_out(monkeypatch):
    # the torsion rung of <a, b | a^2, b^2> has 5 Schreier generators and
    # 4 relator cycles, so its SNF needs 25 cells; S3's regular action
    # has 7 and 6, so 49. Over the cap, a rung raises before its SNF and
    # the ladder leaves it out, names included
    p = P(DINF)
    s3 = permutation_quotient(
        enumerate_cosets(P(DINF + "rel ababab\n"), (), 100).cols)
    snf_calls = []
    snf = subgrp.smith_normal_form

    def counted(M, ncols=None):
        snf_calls.append(len(M))
        return snf(M, ncols)

    monkeypatch.setattr(subgrp, "smith_normal_form", counted)
    monkeypatch.setattr(subgrp, "MAX_SMITH_CELLS", 25)
    with pytest.raises(SmithFormTooLarge, match="index 6 with 7 Schreier "
                       "generators and 6 relator cycles need 49 matrix"):
        KernelCertifier(p, s3)
    assert snf_calls == []
    rungs = ladder(p, abelian_invariants(p), DEFAULT_MAX_KERNEL_INDEX,
                   extra=[("s3", s3), ("s3-again", s3)])
    assert rungs.names == ["abelian-torsion", "s3", "s3-again"]
    assert [(name, kc.action.size) for name, kc in rungs] == [
        ("abelian-torsion", 4)]
    assert rungs.names == ["abelian-torsion"]
    assert [name for name, _ in rungs] == ["abelian-torsion"]
    monkeypatch.setattr(subgrp, "MAX_SMITH_CELLS", 24)
    assert list(ladder(p, abelian_invariants(p), 4)) == []


def test_the_smith_cap_holds_a_rank_two_rung_at_the_default_index():
    # a rank-2 kernel of index 2048 has 2048 * (2 - 1) + 1 = 2,049
    # Schreier generators, whose transform alone is 4,198,401 cells
    n = DEFAULT_MAX_KERNEL_INDEX * (2 - 1) + 1
    subgrp.check_smith_size(n, n, "a rank-2 kernel")
    with pytest.raises(SmithFormTooLarge):
        subgrp.check_smith_size(n, subgrp.MAX_SMITH_CELLS // n + 1, "rows")


def test_a_cyclic_torsion_rung_traces_each_relator_once_round(monkeypatch):
    # <a | a^12, a^18> is cyclic of order 6, and a goes once round the
    # torsion quotient's one 6-cycle for each relator: 12 letters, where
    # tracing each whole relator from each of the 6 points took 180, and
    # the SNF reads one row per relator, where it read one per point too
    p = P("gens 1\nrel " + "a" * 12 + "\nrel " + "a" * 18 + "\n")
    ab = abelian_invariants(p)
    traced = count_cycle_letters(monkeypatch)
    snf_inputs = []
    snf = subgrp.smith_normal_form

    def recorded(M, ncols=None):
        snf_inputs.append([list(row) for row in M])
        return snf(M, ncols)

    monkeypatch.setattr(subgrp, "smith_normal_form", recorded)
    rungs = list(ladder(p, ab, DEFAULT_MAX_KERNEL_INDEX))
    assert [name for name, _ in rungs] == ["abelian-torsion"]
    (_, rung), = rungs
    assert sum(letters for _, letters in traced) == 12
    assert snf_inputs == [[[2], [3]]]
    assert rung.kernel_free_rank == 0
    for text in ("a", "aa", "aaa", "A", "aaaaaa"):
        assert rung.certify(parse_word(text, 1)) is None
    assert rung.action.element_order(parse_word("aa", 1)) == 3


def test_a_relator_may_fail_only_on_a_later_cycle():
    # (ab)^2 closes on the cycles of ab of lengths 1 and 2, not on the
    # 4-cycle (3 4 5 6)
    p = P("gens 2\nrel abab\n")
    k = Kernel(p, SEVEN_POINTS)
    cycles = k.relator_cycles(p.relators[0])
    assert [points for points, _ in itertools.islice(cycles, 2)] == [
        [0], [1, 2]]
    with pytest.raises(NotAQuotient, match="relator abab does not close "
                                           "at point 3"):
        next(cycles)
    with pytest.raises(NotAQuotient, match="at point 3"):
        KernelCertifier(p, SEVEN_POINTS)
    cert = Certificate(presentation=p, word=parse_word("a", 2), power=3,
                       quotient=SEVEN_POINTS, kernel_index=7,
                       homomorphism=(), value=1)
    assert verify_certificate(cert) == (
        False, "quotient does not satisfy the relators: relator abab does "
               "not close at point 3")


@pytest.mark.parametrize("key", sorted(CERT_TYPES))
def test_certificate_json_fields_are_required_and_typed(key):
    good = certify(DINF, "ab").to_json_dict()
    assert Certificate.from_json_dict(good).to_json_dict() == good
    missing = {k: v for k, v in good.items() if k != key}
    with pytest.raises(ValueError):
        Certificate.from_json_dict(missing)
    for junk in JSON_JUNK:
        if type(junk) is not CERT_TYPES[key]:
            with pytest.raises(ValueError):
                Certificate.from_json_dict({**good, key: junk})
    if CERT_TYPES[key] is list:  # a list of anything but ints
        with pytest.raises(ValueError):
            Certificate.from_json_dict({**good, key: [1, True]})
