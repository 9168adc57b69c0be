"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Each test is a single pass/fail line for one numbered criterion. The
slow stretch check (criterion 9) carries the `slow` marker so it can be
deselected; everything else gates.
"""

import hashlib
import itertools
import json
import math
import random
import time

import pytest

from burnside import cli, cosets, dihedral, rewrite, tower
from burnside.presentation import TowerStatus, parse_presentation
from burnside.subgrp import smith_normal_form
from burnside.words import parse_word, reduced_words
from support import check_smith_form, is_abelian, multiplication_table

KLEIN = "gens 2\nrel aa\nrel bb\nrel abab\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"

# fourth powers that present the exponent-4 group on two generators;
# derived by closing the enumeration from a redundant generating set of
# relators and greedily pruning while the order stays 4096
B24_WORDS = ["a", "b", "ab", "aB", "aab", "abb", "aabb", "abaB", "abAb"]
B24 = "gens 2\n" + "".join(f"rel {w * 4}\n" for w in B24_WORDS)


# sha256 of report_to_json(build_report(...)) at default budgets: the
# audited (2,2), (2,3), (1,5), (1,2^48) and (2,2^48) reports, the (2,4)
# checkpoint report, the same report audited, and the (2,4) report resumed
# from the max_candidates=2 checkpoint. Any change to a report byte
# outside `execution` moves a digest; a deliberate one updates it here,
# with a CHANGES.md line.
REPORT_SHA256 = {
    (2, 2): "a0484b6d6d30d8a7b538ae4c88ebf0a27a4f9c012d99d07cbef89e11cba36679",
    (2, 3): "3778d0a47a41bfc0b947b842874969d886edaa01d87801d4e8c22d4f34132822",
    (1, 5): "99129e2045b4b85573d5b7c957e143b2be433336889e127ec208ee492724971d",
    (1, 2**48):
        "fbe26d1983280595241dbf31479bbaabc0f55c275de832f321e11467f9b9a800",
    (2, 2**48):
        "74145539a770a8830361442c300f521c5fbad9302237e6b14c8b8ae047a37859",
    (2, 4): "1a28b6bbd1dec64ac0b37ff8468bebd371670224c04a1307b0d8a26cd45aca1f",
    "(2,4) audited":
        "d7a106391e955060877d866863f96d5e11bd4530b363e3b851d4cee391ad3930",
    "(2,4) resumed":
        "4839a0d30bacd866f59dbc524ac1ed86bf80cdf7075a861743f028f32b184348",
}

# sha256 of `burnside --format json order` outside `execution`
# (json.dumps with sorted keys), with its exit code, for words of two
# stages the quotients prove infinite: the n=3 rank-4 stage, and the n=4
# rank-5 stage, where aabb is an Unknown that lists its attempts
TRIANGLE = "gens 2\nrel aaa\nrel bbb\nrel ababab\n"
FOURTH_POWERS = "gens 2\nrel aaaa\nrel bbbb\nrel abababab\nrel aBaBaBaB\n"
ORDER_SHA256 = {
    (TRIANGLE, "ab"): (0, "7d081cd0d22c34aa62314ba685d38548"
                          "e3d8efc834f0a6337fad87f682cd3c62"),
    (TRIANGLE, "aB"): (0, "7476bf33c0a5a8a48df6661882e3d9ab"
                          "2312411cbe9eeab113b529ec9d659ef1"),
    (TRIANGLE, "aabb"): (0, "6a33dde4f247f1ea249aba6ccf1caa4d"
                            "6e7caf51f873851199fb35c955d8dce8"),
    (FOURTH_POWERS, "aabb"): (2, "58257ec45e91eeffe7090ed4c2aa7bba"
                                 "7cf70feb326915af82523ee2784b5756"),
}


def report_sha256(report: dict) -> str:
    return hashlib.sha256(tower.report_to_json(report).encode()).hexdigest()


def run_cli_json(argv, capsys):
    code = cli.main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_tower_n2(capsys):
    t0 = time.monotonic()
    code, rep = run_cli_json(["tower", "-m", "2", "-n", "2"], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    assert rep["status"] == "terminated-equals-burnside"
    assert rep["periods"] == ["a", "b", "ab"]
    assert rep["result"]["order"] == 4
    assert rep["result"]["exponent"] == 2
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_02_tower_n3(capsys):
    t0 = time.monotonic()
    code, rep = run_cli_json(["tower", "-m", "2", "-n", "3"], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    assert rep["status"] == "terminated-equals-burnside"
    assert rep["periods"] == ["a", "b", "ab", "aB"]
    assert rep["result"]["order"] == 27
    assert rep["result"]["exponent"] == 3
    orders = rep["verification"]["period_orders"]
    assert orders["status"] == "ok"
    assert [row["order"] for row in orders["periods"]] == [3, 3, 3, 3]
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_03_independence_both_towers():
    budgets = tower.Budgets()
    for n in (2, 3):
        res = tower.run_tower(2, n)
        rep = tower.verify_independence(res, budgets)
        assert rep["status"] == "ok", (n, rep)
        assert rep["unresolved"] == 0
        for entry in rep["relators"]:
            assert entry["independent"] is True, (n, entry)


def test_criterion_04_audit_all_stages():
    budgets = tower.Budgets()
    for n in (2, 3):
        res = tower.run_tower(2, n)
        audit = tower.audit_tower(res, budgets)
        assert audit["agreement"] == "100%", (n, audit["disagreements"])


def test_criterion_05_knuth_bendix_normal_forms():
    for text, want in ((KLEIN, 4), (B23, 27)):
        p = parse_presentation(text)
        system = rewrite.complete_presentation(p)
        assert system.confluent
        count, stabilized = rewrite.count_normal_forms(system, 24)
        assert stabilized and count == want
        # normal-form equality must match coset-table equality for every
        # word of length <= 6: same NF <=> same coset
        r = cosets.realize(cosets.enumerate_cosets(p, (), 5000))
        nf_to_coset = {}
        coset_to_nf = {}
        words = [()]
        stream = reduced_words(2)
        while True:
            w = next(stream)
            if len(w) > 6:
                break
            words.append(w)
        for w in words:
            nf = system.reduce(w)
            c = r.eval_word(w)
            assert nf_to_coset.setdefault(nf, c) == c, (w, nf)
            assert coset_to_nf.setdefault(c, nf) == nf, (w, nf)


def test_criterion_06_snf_random_matrices():
    rng = random.Random(20260819)
    t0 = time.monotonic()
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        S, V = smith_normal_form(M)
        check_smith_form(M, S, V, nc)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def _all_subgroups(table):
    """Every subgroup, as a frozenset of elements: cyclic subgroups
    closed under pairwise joins until a fixpoint."""
    subs = {frozenset(table.closure([g])) for g in range(table.order)}
    subs.add(frozenset([0]))
    while True:
        new = set()
        for a, b in itertools.combinations(subs, 2):
            j = frozenset(table.closure(list(a | b)))
            if j not in subs:
                new.add(j)
        if not new:
            return subs
        subs |= new


def _subgroup_census(table):
    """Split the subgroups of `table` into the orders of the cyclic ones
    and (order, exponent, abelian) of the non-cyclic ones, both sorted."""
    cyclic, noncyclic = [], []
    for sub in _all_subgroups(table):
        st = dihedral.subgroup_table(table, sorted(sub))
        if any(st.element_order(g) == st.order for g in range(st.order)):
            cyclic.append(st.order)
        else:
            noncyclic.append((st.order, st.exponent(), is_abelian(st)))
    return sorted(cyclic), sorted(noncyclic)


def test_criterion_07a_order_27_subgroups_cyclic():
    """The subgroups of the realized order-27 group, against the claim
    that every subgroup is cyclic.

    That claim belongs to the asymptotic odd-exponent regime and cannot
    hold at n=3: criterion 02 pins the group at order 27 and exponent 3,
    and no group whose exponent is below its order is cyclic. This test
    records exactly how n=3 departs from the claim, as
    test_center_is_small_but_nontrivial does for the center. Of the 19
    subgroups, the trivial one and all 13 of order 3 are cyclic; the
    four maximal subgroups (order 9, exponent 3, abelian) are elementary
    abelian 3x3; the whole group is neither cyclic nor abelian.
    """
    res = tower.run_tower(2, 3)
    table = dihedral.FiniteGroupTable(multiplication_table(res.realization),
                                      name="exponent-3 group", verify=True)
    assert table.order == 27
    cyclic, noncyclic = _subgroup_census(table)
    assert len(cyclic) + len(noncyclic) == 19
    assert cyclic == [1] + [3] * 13
    assert noncyclic == [(9, 3, True)] * 4 + [(27, 3, False)], (
        "the non-cyclic subgroups should be the four elementary abelian "
        "3x3 maximal subgroups and the non-abelian whole group"
    )


def test_criterion_07b_sampled_exponent2_subgroups_embed():
    res = tower.run_tower(2, 2)
    table = dihedral.FiniteGroupTable(multiplication_table(res.realization),
                                      name="exponent-2 group", verify=True)
    spec = dihedral.DihedralProductSpec(2)
    subs = dihedral.sample_subgroups(table, 8, seed=2026)
    assert subs
    for elems in subs:
        st = dihedral.subgroup_table(table, elems)
        r = dihedral.embed_search(st, spec, r_max=4)
        assert r.status == "embedding", (elems, r.status, r.reason)


def test_criterion_07c_quaternion_refuted():
    r = dihedral.embed_search(dihedral.build_quaternion(),
                              dihedral.DihedralProductSpec(4), r_max=3)
    assert r.status == "not_found_exhausted", r.status
    assert r.images is None


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (1, 5), (1, 2**48),
                                  (2, 2**48)])
def test_audited_report_bytes_are_pinned(m, n):
    b = tower.Budgets()
    res = tower.run_tower(m, n, b)
    rep = tower.build_report(res, b, audit=tower.audit_tower(res, b))
    assert report_sha256(rep) == REPORT_SHA256[m, n]


def test_resumed_report_bytes_are_pinned():
    cp = tower.run_tower(2, 4, tower.Budgets(max_candidates=2)).checkpoint
    assert (cp["periods"], cp["cursor"]) == (["a"], "A")
    b = tower.Budgets()
    res = tower.run_tower(2, 4, b, resume=cp)
    assert report_sha256(tower.build_report(res, b)) == \
        REPORT_SHA256["(2,4) resumed"]


@pytest.mark.parametrize("text, word", list(ORDER_SHA256))
def test_order_report_bytes_are_pinned(text, word, tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, rep = run_cli_json(["order", str(f), word], capsys)
    del rep["execution"]
    digest = hashlib.sha256(
        json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == ORDER_SHA256[text, word]


def test_criterion_08_center_is_small_n_divergence():
    res = tower.run_tower(2, 3)
    rep = tower.center_report(res)
    assert rep["order"] == 3
    assert rep["note"] == tower.CENTER_DIVERGENCE_NOTE


@pytest.mark.slow
def test_criterion_09_stretch_n4(tmp_path):
    # tower: terminate at 4096 or checkpoint a resumable inconclusive state
    res = tower.run_tower(2, 4)
    # today's checkpoint report, checkpoint included, byte for byte, and
    # the same report audited
    b = tower.Budgets()
    assert report_sha256(tower.build_report(res, b)) == REPORT_SHA256[2, 4]
    assert report_sha256(tower.build_report(
        res, b, audit=tower.audit_tower(res, b))) == \
        REPORT_SHA256["(2,4) audited"]
    if res.status is TowerStatus.TERMINATED_EQUALS_BURNSIDE:
        assert res.order == 4096
        check = tower.verify_period_orders(res)
        assert check["status"] == "ok"
        assert all(row["order"] == 4 for row in check["periods"])
    else:
        assert res.status is TowerStatus.ORACLE_INCONCLUSIVE
        cp = res.checkpoint
        assert cp is not None and cp["schema"] == tower.CHECKPOINT_SCHEMA
        # the checkpoint must round-trip through JSON and resume cleanly
        blob = json.loads(json.dumps(cp))
        resumed = tower.run_tower(2, 4, resume=blob)
        assert resumed.periods[:len(res.periods)] == res.periods

    # direct cross-check: the fourth-power presentation closes at 4096
    p = parse_presentation(B24)
    t = cosets.enumerate_cosets(p, (), cosets.DEFAULT_MAX_COSETS)
    assert t.closed and t.num_cosets == 4096
    r = cosets.realize(t)
    assert r.exponent() == 4
    # the cyclic-subgroup fill agrees with one trace per element
    assert r.element_orders == [r.element_order(w) for w in r.reps]


def test_criterion_10_determinism_across_runs(capsys, tmp_path):
    def canon(rep):
        del rep["execution"]
        return json.dumps(rep, sort_keys=True)

    for n in ("2", "3"):
        outs = []
        for _ in range(2):
            code, rep = run_cli_json(["tower", "-m", "2", "-n", n], capsys)
            assert code == 0
            outs.append(canon(rep))
        assert outs[0] == outs[1], f"n={n} reports differ across runs"

    # the single-process commands must reproduce themselves exactly too
    f = tmp_path / "g.txt"
    f.write_text(B23)
    for argv in (["coset", str(f)], ["kb", str(f)], ["abelian", str(f)],
                 ["order", str(f), "ab"]):
        a = canon(run_cli_json(argv, capsys)[1])
        b = canon(run_cli_json(argv, capsys)[1])
        assert a == b, f"{argv} not reproducible"
