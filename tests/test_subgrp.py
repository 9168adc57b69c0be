"""Schreier subgroup data, Smith normal form, order certificates."""

import dataclasses
import json
import random
import time

import pytest

from burnside.cosets import enumerate_cosets
from burnside.presentation import parse_presentation
from burnside.subgrp import (
    Certificate,
    DEFAULT_MAX_KERNEL_INDEX,
    KernelCertifier,
    NotInSubgroup,
    QuotientAction,
    abelian_invariants,
    infinite_order_certificate,
    ladder,
    permutation_quotient,
    rewrite_in_subgroup,
    schreier_data,
    smith_normal_form,
    snf_diagonal,
    verify_certificate,
)
from burnside.words import format_word, parse_word
from support import (
    CERT_TYPES,
    JSON_JUNK,
    check_smith_form,
    determinant,
    determinantal_divisors,
)


def P(text):
    return parse_presentation(text)


DINF = "gens 2\nrel aa\nrel bb\n"
TRIANGLE = "gens 2\nrel aaa\nrel bbb\nrel ababab\n"
KLEIN = "gens 2\nrel aa\nrel bb\nrel abab\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"


# --- Schreier data ---------------------------------------------------------


def test_schreier_rank_index_2():
    # kernel of F2 -> Z2 (both generators nontrivial)
    free2 = P("gens 2\n")
    gens = [parse_word(w, 2) for w in ("aa", "bb", "ab")]
    t = enumerate_cosets(free2, gens, 100)
    assert t.closed and t.num_cosets == 2
    sd = schreier_data(t.rows, 2)
    # Nielsen-Schreier: rank = index*(m-1) + 1
    assert sd.num_gens == 3
    assert sorted(format_word(g, 2) for g in sd.gens) == ["aa", "ab", "bA"]


def test_schreier_rank_index_3():
    free2 = P("gens 2\n")
    gens = [parse_word(w, 2) for w in ("aaa", "b", "abA", "aabAA")]
    t = enumerate_cosets(free2, gens, 100)
    assert t.closed and t.num_cosets == 3
    sd = schreier_data(t.rows, 2)
    assert sd.num_gens == 4


def test_rewrite_rejects_nonmember():
    free2 = P("gens 2\n")
    gens = [parse_word(w, 2) for w in ("aa", "bb", "ab")]
    t = enumerate_cosets(free2, gens, 100)
    sd = schreier_data(t.rows, 2)
    with pytest.raises(NotInSubgroup):
        rewrite_in_subgroup(sd, parse_word("a", 2))
    # membership rewrite roundtrips through the generators
    w = parse_word("aabb", 2)
    assert rewrite_in_subgroup(sd, w)  # nonempty, no exception


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
    assert ab.finite and ab.torsion_order == 4
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
    assert [kc.action.order_of_image(parse_word(w, 3))
            for w in ("a", "b", "ab", "c")] == [2, 3, 6, 1]
    # the spec is not part of the invariants' value
    assert ab == dataclasses.replace(ab, quotient={})
    assert abelian_invariants(P(KLEIN)).quotient == {
        "kind": "abelian", "moduli": [2, 2], "images": [[1, 0], [0, 1]]}


# --- kernel certificates ---------------------------------------------------


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
    p = P(KLEIN)
    assert infinite_order_certificate(
        p, parse_word("ab", 2), abelian_invariants(p).quotient) is None
    p27 = P(B23)
    assert infinite_order_certificate(
        p27, parse_word("ab", 2), abelian_invariants(p27).quotient) is None


def test_certificate_json_roundtrip():
    p = P(DINF)
    cert = infinite_order_certificate(p, parse_word("ab", 2),
                                      abelian_invariants(p).quotient)
    blob = json.dumps(cert.to_json_dict())
    back = Certificate.from_json_dict(json.loads(blob))
    ok, reason = verify_certificate(back)
    assert ok, reason
    assert back.word == cert.word and back.power == cert.power


def test_certificate_tampering_is_caught():
    p = P(DINF)
    cert = infinite_order_certificate(p, parse_word("ab", 2),
                                      abelian_invariants(p).quotient)
    bad = dataclasses.replace(cert, witness_coordinate=cert.witness_coordinate + 1)
    ok, reason = verify_certificate(bad)
    assert not ok and reason
    bad = dataclasses.replace(cert, power=cert.power * 2)
    ok, _ = verify_certificate(bad)
    assert not ok
    bad = dataclasses.replace(cert, kernel_index=cert.kernel_index + 1)
    ok, reason = verify_certificate(bad)
    assert not ok and "index" in reason
    bad = dataclasses.replace(cert, word=parse_word("a", 2))
    ok, _ = verify_certificate(bad)
    assert not ok
    bad = dataclasses.replace(cert, witness_position=cert.num_schreier_gens + 5)
    ok, _ = verify_certificate(bad)
    assert not ok


def test_oversized_quotient_is_rejected_before_it_is_built():
    # 10^12 elements would exhaust memory; the claimed index is checked first
    p = P(DINF)
    cert = infinite_order_certificate(p, parse_word("ab", 2),
                                      abelian_invariants(p).quotient)
    huge = {"kind": "abelian", "moduli": [10**6, 10**6],
            "images": [[1, 0], [0, 1]]}
    bad = dataclasses.replace(cert, quotient=huge)
    assert verify_certificate(bad) == (False, "kernel index mismatch")


def test_quotient_spec_must_hold():
    p = P(DINF)
    wrong = abelian_invariants(P(TRIANGLE)).quotient
    with pytest.raises(ValueError):
        KernelCertifier(p, wrong)


# <a | a^2> acts on two points with a fixing both: not transitive
NON_TRANSITIVE = [{"kind": "permutation", "images": [[0, 1]]},
                  {"kind": "abelian", "moduli": [2], "images": [[0]]}]


@pytest.mark.parametrize("spec", NON_TRANSITIVE)
def test_non_transitive_quotient_is_a_bad_spec(spec):
    p = P("gens 1\nrel aa\n")
    with pytest.raises(ValueError, match="not transitive"):
        QuotientAction(spec, 1)
    cert = Certificate(presentation=p, word=parse_word("a", 1), power=1,
                       quotient=spec, kernel_index=2, num_schreier_gens=1,
                       free_positions=(0,), witness_position=0,
                       witness_coordinate=1)
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
                       kernel_index=0, num_schreier_gens=1,
                       free_positions=(0,), witness_position=0,
                       witness_coordinate=1)
    assert verify_certificate(cert) == (
        False, "bad quotient spec: a permutation action needs a point")


def test_certificate_replay_is_bounded():
    p = P(DINF)
    cert = infinite_order_certificate(p, parse_word("ab", 2),
                                      abelian_invariants(p).quotient)
    huge = {"kind": "abelian", "moduli": [10**6, 10**6],
            "images": [[1, 0], [0, 1]]}
    bad = dataclasses.replace(cert, quotient=huge, kernel_index=10**12)
    t0 = time.monotonic()
    assert verify_certificate(bad) == (
        False, f"kernel index {10**12} exceeds the bound "
               f"{DEFAULT_MAX_KERNEL_INDEX}")
    assert time.monotonic() - t0 < 1
    assert verify_certificate(cert, max_kernel_index=3) == (
        False, "kernel index 4 exceeds the bound 3")
    assert verify_certificate(cert, max_kernel_index=4) == (True, "ok")


def test_coordinates_back_the_certificate():
    p = P(TRIANGLE)
    kc = KernelCertifier(p, abelian_invariants(p).quotient)
    w = parse_word("aB", 2)
    cert = kc.certify(w)
    s, coords = kc.coordinates(w)
    assert s == cert.power == 3
    assert coords[cert.witness_position] == cert.witness_coordinate != 0
    # (ab)^3 is a relator, so it is 0 in every free direction
    s, coords = kc.coordinates(parse_word("ab", 2))
    assert s == 3 and all(coords[j] == 0 for j in kc.free_positions)


def test_ladder_leaves_out_rungs_over_the_bound():
    p = P(DINF)
    ab = abelian_invariants(p)
    # the regular action of S3 = <a, b | a^2, b^2, (ab)^3>
    s3 = permutation_quotient(
        enumerate_cosets(P(DINF + "rel ababab\n"), (), 100).rows, 2)
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


@pytest.mark.parametrize("key", sorted(CERT_TYPES))
def test_certificate_json_fields_are_required_and_typed(key):
    p = P(DINF)
    good = infinite_order_certificate(p, parse_word("ab", 2),
                                      abelian_invariants(p).quotient
                                      ).to_json_dict()
    assert Certificate.from_json_dict(good).to_json_dict() == good
    missing = {k: v for k, v in good.items() if k != key}
    with pytest.raises(ValueError):
        Certificate.from_json_dict(missing)
    for junk in JSON_JUNK:
        if type(junk) is not CERT_TYPES[key]:
            with pytest.raises(ValueError):
                Certificate.from_json_dict({**good, key: junk})
