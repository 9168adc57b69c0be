"""Dihedral product targets and the embedding search."""

import hashlib
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from burnside import dihedral as dh
from burnside import tower
from support import (exponent, is_abelian, level_generating_tuple,
                     multiplication_table, table_csv)


def ambient_of(spec, copies):
    """D(n) x D(2^k)^copies as embed_search builds it: the list of the
    spec's factor tables."""
    lead, copy = spec.factor_tables()
    return [lead] + [copy] * copies


def coordinate_mul(factors, g, h):
    """Product of two elements of the direct product of factors, each a
    tuple of coordinates."""
    return tuple(f.rows[a][b] for f, a, b in zip(factors, g, h))


def coordinate_order(factors, g):
    return math.lcm(*(f.element_order(a) for f, a in zip(factors, g)))


def test_dihedral_small():
    k4 = dh.build_dihedral(2)
    assert k4.order == 4
    assert is_abelian(k4)
    assert exponent(k4) == 2
    d6 = dh.build_dihedral(3)
    assert d6.order == 6
    assert not is_abelian(d6)
    assert exponent(d6) == 6
    d8 = dh.build_dihedral(4)
    assert d8.order == 8
    assert set(d8.order_spectrum()) == {1, 2, 4}
    assert exponent(d8) == 4


def test_cyclic_and_quaternion():
    assert exponent(dh.build_cyclic(5)) == 5
    q8 = dh.build_quaternion()
    assert q8.order == 8
    assert exponent(q8) == 4
    # exactly one involution: the reason Q8 avoids dihedral products
    assert q8.order_spectrum()[2] == 1
    assert q8.order_spectrum()[4] == 6


def test_table_verification_catches_garbage():
    with pytest.raises(dh.TableError):
        dh.FiniteGroupTable([[0, 1], [1, 1]], verify=True)  # not a bijection
    with pytest.raises(dh.TableError, match="associativity"):
        # row/column permutation ok but not associative: a loop of order 5
        dh.FiniteGroupTable(
            [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]], verify=True)


def test_an_empty_table_is_refused():
    # from_csv refuses an order below 1 first, so the CLI never gets here
    with pytest.raises(dh.TableError, match="empty table"):
        dh.FiniteGroupTable([], verify=True)


def reduced_latin_squares(n):
    """Every n x n Latin square over 0..n-1 whose row 0 and column 0 are
    0..n-1 in order: the multiplication tables of loops with identity 0."""
    rows = [list(range(n))] + [[g] + [-1] * (n - 1) for g in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in rows]
            return
        g, h = divmod(cell, n)
        if g == 0 or h == 0:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in rows[g][:h] and all(rows[i][h] != v for i in range(g)):
                rows[g][h] = v
                yield from fill(cell + 1)
        rows[g][h] = -1

    return fill(0)


def brute_force_associative(rows):
    n = len(rows)
    return all(rows[rows[g][h]][k] == rows[g][rows[h][k]]
               for g in range(n) for h in range(n) for k in range(n))


@pytest.mark.parametrize("n", [5, 6])
def test_lights_test_agrees_with_every_triple(n):
    # over all loops of order n (every loop of order 4 or less is a
    # group), checking the generating set accepts and refuses exactly the
    # tables the n^3 triples do
    verdicts = Counter()
    for rows in reduced_latin_squares(n):
        want = brute_force_associative(rows)
        try:
            dh.FiniteGroupTable(rows, verify=True)
            got = True
        except dh.TableError as e:
            assert "associativity" in str(e)
            got = False
        assert got == want, rows
        verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def test_order_256_table_loads_quickly():
    # D128 is exactly at the cell cap; Light's test checks (g s) k = g (s k)
    # for its two greedy generators only, not all 256^3 triples
    text = table_csv(dh.build_dihedral(128))
    t0 = time.monotonic()
    back = dh.FiniteGroupTable.from_csv(text)
    assert time.monotonic() - t0 < 0.5
    assert back.order == 256 and back._spanning_set() == [1, 2]


def test_csv_roundtrip(tmp_path):
    d8 = dh.build_dihedral(4)
    text = table_csv(d8)
    back = dh.FiniteGroupTable.from_csv(text)
    assert back.rows == d8.rows
    assert back.order == 8


def test_direct_product_pins():
    c2 = dh.build_cyclic(2)
    klein = dh.direct_product([c2, c2])
    assert klein.order == 4 and exponent(klein) == 2
    p = dh.direct_product([dh.build_dihedral(2), dh.build_dihedral(2)])
    assert p.order == 16 and exponent(p) == 2
    p = dh.direct_product([dh.build_dihedral(4), dh.build_dihedral(4)])
    assert p.order == 64 and exponent(p) == 4


def test_direct_product_cell_budget():
    # order 512 squared exceeds the 2^16-cell cap
    with pytest.raises(dh.TableError):
        dh.direct_product([dh.build_dihedral(4)] * 3)


def test_dihedral_table_cell_cap():
    # order 256 fills the 2^16-cell cap exactly; order 258 is refused
    assert dh.build_dihedral(128).order == 256
    with pytest.raises(dh.TableError, match="D129"):
        dh.build_dihedral(129)


def test_product_exponent_is_lcm():
    rng = random.Random(7)
    pool = [dh.build_cyclic(k) for k in (2, 3, 4, 5, 6)]
    pool += [dh.build_dihedral(h) for h in (2, 3, 4)]
    for _ in range(20):
        parts = rng.sample(pool, 2)
        try:
            prod = dh.direct_product(parts)
        except dh.TableError:
            continue
        want = math.lcm(*(exponent(t) for t in parts))
        assert exponent(prod) == want


def test_product_spectrum_agrees_with_table():
    # the spectrum embed_search reads equals the materialized table's and
    # a count over coordinate tuples
    for factors in ([dh.build_dihedral(4), dh.build_dihedral(2)],
                    [dh.build_cyclic(3), dh.build_quaternion()],
                    [dh.build_dihedral(3)], [dh.build_cyclic(2)] * 3):
        table = dh.direct_product(factors)
        coords = itertools.product(*(range(f.order) for f in factors))
        counted = Counter(coordinate_order(factors, g) for g in coords)
        assert dh._product_spectrum(factors) == table.order_spectrum() \
            == counted


def test_minimal_generating_tuple():
    assert dh.minimal_generating_tuple(dh.build_cyclic(4)) == [1]
    assert len(dh.minimal_generating_tuple(dh.build_dihedral(2))) == 2
    assert dh.minimal_generating_tuple(dh.build_cyclic(1)) == []


def test_spec_decomposition():
    s = dh.DihedralProductSpec(2)
    assert (s.k, s.n0) == (1, 1)
    s = dh.DihedralProductSpec(4)
    assert (s.k, s.n0) == (2, 1)
    s = dh.DihedralProductSpec(12)
    assert (s.k, s.n0) == (2, 3)
    assert [f.order for f in ambient_of(s, 2)] == [24, 8, 8]
    with pytest.raises(ValueError):
        dh.DihedralProductSpec(0)


def test_klein_embeds_identically():
    v4 = dh.FiniteGroupTable([[a ^ b for b in range(4)] for a in range(4)],
                             name="V4")
    r = dh.embed_search(v4, dh.DihedralProductSpec(2), r_max=0)
    assert r.status == "embedding"
    assert r.copies_tried == 0
    assert len(set(r.images)) == len(r.images)


def test_c4_embeds_in_d8():
    r = dh.embed_search(dh.build_cyclic(4), dh.DihedralProductSpec(4),
                        r_max=0)
    assert r.status == "embedding"


def test_structural_refutations():
    r = dh.embed_search(dh.build_cyclic(5), dh.DihedralProductSpec(4),
                        r_max=2)
    assert r.status == "refuted_structural"
    assert "order 5" in r.reason
    r = dh.embed_search(dh.build_cyclic(3), dh.DihedralProductSpec(2),
                        r_max=1)
    assert r.status == "refuted_structural"


def test_quaternion_never_fits():
    # a single involution cannot survive in a dihedral 2-group product
    r = dh.embed_search(dh.build_quaternion(), dh.DihedralProductSpec(4),
                        r_max=1)
    assert r.status == "not_found_exhausted"
    assert r.nodes > 0
    assert r.images is None


def test_found_embeddings_are_verified_injective_homs():
    # replay the embedding of C4 by hand through the factor tables
    spec = dh.DihedralProductSpec(4)
    r = dh.embed_search(dh.build_cyclic(4), spec, r_max=0)
    amb = ambient_of(spec, r.copies_tried)
    c4 = dh.build_cyclic(4)
    images = {g: tuple(img) for g, img in zip(r.generators, r.images)}
    # generator image has matching order
    for g, img in images.items():
        assert coordinate_order(amb, img) == c4.element_order(g)


def test_sampled_burnside_subgroups_embed():
    res = tower.run_tower(2, 2)
    table = dh.FiniteGroupTable(multiplication_table(res.realization),
                                name="exponent-2 group", verify=True)
    spec = dh.DihedralProductSpec(2)
    subs = dh.sample_subgroups(table, 6, seed=11)
    assert subs
    for elems in subs:
        st = dh.subgroup_table(table, elems)
        r = dh.embed_search(st, spec, r_max=4)
        assert r.status == "embedding", (elems, r.status, r.reason)


def test_subgroup_table_requires_closure():
    d8 = dh.build_dihedral(4)
    with pytest.raises(dh.TableError):
        dh.subgroup_table(d8, [0, 2])  # rotation r alone: r*r missing
    with pytest.raises(dh.TableError):
        dh.subgroup_table(d8, [1, 2])  # identity missing


# --- reference: the product-element backtracking search ----------------------
#
# embed_search used to backtrack over coordinate tuples of the ambient
# direct product. It is kept here, outside the module, as the
# reference the kernel search must agree with on status and least r.


def _elements_of_order(ambient, d):
    pools = [sorted(x for x in range(f.order) if d % f.element_order(x) == 0)
             for f in ambient]
    for combo in itertools.product(*pools):
        if coordinate_order(ambient, combo) == d:
            yield combo


def _close_partial(sub, gens, images, ambient):
    identity = (0,) * len(ambient)
    phi = {0: identity}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for s, img in zip(gens, images):
                h = sub.rows[g][s]
                cand = coordinate_mul(ambient, phi[g], img)
                known = phi.get(h)
                if known is None:
                    if h != 0 and cand == identity:
                        return None
                    phi[h] = cand
                    nxt.append(h)
                elif known != cand:
                    return None
        frontier = nxt
    return phi


def _coordinate_maps(phi, ambient):
    """phi (element -> coordinate tuple) as one image list per factor."""
    return [[phi[h][i] for h in range(len(phi))]
            for i in range(len(ambient))]


def backtracking_embed_search(sub, spec, r_max=4):
    """(status, copies_tried) of the old backtracking search."""
    gens = dh.minimal_generating_tuple(sub)
    if not gens:
        return "embedding", 0
    structural = 0
    for copies in range(0, r_max + 1):
        ambient = ambient_of(spec, copies)
        if dh._structural_obstruction(sub, ambient) is not None:
            structural += 1
            continue
        candidate_pool, square_index = [], []
        for g in gens:
            pool = sorted(_elements_of_order(ambient, sub.element_order(g)))
            candidate_pool.append(pool)
            by_square = {}
            for cand in pool:
                by_square.setdefault(coordinate_mul(ambient, cand, cand),
                                     []).append(cand)
            square_index.append(by_square)
        images = []

        def search(idx):
            if idx == len(gens):
                phi = _close_partial(sub, gens, images, ambient)
                return phi if phi is not None and len(phi) == sub.order \
                    else None
            partial = (_close_partial(sub, gens[:idx], images, ambient)
                       if idx else {0: (0,) * len(ambient)})
            if partial is None:
                return None
            forced = partial.get(sub.rows[gens[idx]][gens[idx]])
            source = (square_index[idx].get(forced, []) if forced is not None
                      else candidate_pool[idx])
            for cand in source:
                images.append(cand)
                found = search(idx + 1)
                if found is not None:
                    return found
                images.pop()
            return None

        phi = search(0)
        if phi is not None:
            assert dh._verify_embedding(sub, _coordinate_maps(phi, ambient),
                                        ambient)
            return "embedding", copies
    if structural == r_max + 1:
        return "refuted_structural", r_max
    return "not_found_exhausted", r_max


def _replay_witness(sub, spec, result):
    """Extend the reported generator images over sub through the ambient
    and replay the whole map with _verify_embedding."""
    ambient = ambient_of(spec, result.copies_tried)
    phi = _close_partial(sub, result.generators,
                         [tuple(img) for img in result.images], ambient)
    assert phi is not None and len(phi) == sub.order
    assert dh._verify_embedding(sub, _coordinate_maps(phi, ambient), ambient)


def _named_groups():
    c2 = dh.build_cyclic(2)
    return {
        "D2": dh.build_dihedral(2), "D3": dh.build_dihedral(3),
        "D4": dh.build_dihedral(4), "D6": dh.build_dihedral(6),
        "C4": dh.build_cyclic(4),
        "C4xC2": dh.direct_product([dh.build_cyclic(4), c2]),
        "C6xC2": dh.direct_product([dh.build_cyclic(6), c2]),
        "C2^3": dh.direct_product([c2, c2, c2]),
    }


def _b22_draws():
    # 07b's sampler asks for 8 subgroups of B(2,2); only 5 distinct exist
    res = tower.run_tower(2, 2)
    table = dh.FiniteGroupTable(multiplication_table(res.realization),
                                verify=True)
    return [dh.subgroup_table(table, e)
            for e in dh.sample_subgroups(table, 8, seed=2026)]


def _d4xd4_draws(seed):
    d4 = dh.build_dihedral(4)
    ambient = dh.direct_product([d4, d4])
    return [dh.subgroup_table(ambient, e)
            for e in dh.sample_subgroups(ambient, 8, seed=seed)]


def breadth_first_closure(table, gens):
    """<gens> by a breadth-first search over right multiplication."""
    seen, frontier = {0}, [0]
    while frontier:
        grown = []
        for g in frontier:
            for h in (table.rows[g][s] for s in gens):
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
        frontier = grown
    return sorted(seen)


def test_span_routine_matches_breadth_first_search():
    # closure and the greedy spanning set both fold Dimino's _join; each
    # must give what a breadth-first search gives
    rng = random.Random(7)
    tables = list(_named_groups().values()) + _d4xd4_draws(1)
    tables += [dh.build_quaternion(), dh.direct_product(
        [dh.build_dihedral(4), dh.build_dihedral(4)])]
    for table in tables:
        greedy = []
        for s in range(1, table.order):
            if s not in breadth_first_closure(table, greedy):
                greedy.append(s)
        assert table._spanning_set() == greedy, table.name
        for _ in range(20):
            gens = [rng.randrange(table.order)
                    for _ in range(rng.randint(0, 3))]
            assert table.closure(gens) == breadth_first_closure(table, gens)


def _assert_matches_reference(sub, spec, r_max):
    r = dh.embed_search(sub, spec, r_max=r_max)
    assert (r.status, r.copies_tried) == \
        backtracking_embed_search(sub, spec, r_max=r_max), sub.name
    if r.status == "embedding":
        _replay_witness(sub, spec, r)
    else:
        assert r.images is None
    return r


# n=3 and n=6 have an odd part, so the lead factor and the copies differ
# (D(1) is C2 at n=3); C2^3 and C6xC2 need two copies at n=3
@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", sorted(_named_groups()))
def test_kernel_search_matches_backtracking(name, n):
    _assert_matches_reference(_named_groups()[name],
                              dh.DihedralProductSpec(n), r_max=4)


def test_kernel_search_matches_backtracking_on_b22_draws():
    draws = _b22_draws()
    assert len(draws) == 5
    for sub in draws:
        r = _assert_matches_reference(sub, dh.DihedralProductSpec(2),
                                      r_max=4)
        assert r.status == "embedding"


@pytest.mark.parametrize("seed", [101, 102, 7, 0, 1, 2, 3])
def test_kernel_search_matches_backtracking_on_d4xd4_draws(seed):
    for sub in _d4xd4_draws(seed):
        r = _assert_matches_reference(sub, dh.DihedralProductSpec(4),
                                      r_max=3)
        assert r.status == "embedding"


# at n=3 and n=6 the lead factor and the copy differ, so do their kernel
# streams; an ambient smaller than the draw is skipped at low r
@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kernel_search_matches_backtracking_with_two_streams(seed, n):
    statuses = Counter()
    for sub in _d4xd4_draws(seed):
        r = _assert_matches_reference(sub, dh.DihedralProductSpec(n),
                                      r_max=4)
        statuses[r.status, r.copies_tried] += 1
    assert statuses["embedding", 0]
    assert statuses["refuted_structural", 4] or statuses["embedding", 1]


def test_an_ambient_with_too_few_elements_of_an_order_is_skipped():
    # C2^3 has order 8; D3 (order 6) cannot hold it, D3 x C2 can but does
    # not, D3 x C2 x C2 does
    spec = dh.DihedralProductSpec(3)
    r = dh.embed_search(_c2_power(3), spec, r_max=0)
    assert (r.status, r.nodes, r.generators) == \
        ("not_found_exhausted", 0, None)
    r = _assert_matches_reference(_c2_power(3), spec, r_max=4)
    assert (r.status, r.copies_tried) == ("embedding", 2)
    # Q8 has six elements of order 4 and D4 two, though both have order 8
    spec = dh.DihedralProductSpec(4)
    r = dh.embed_search(dh.build_quaternion(), spec, r_max=0)
    assert (r.status, r.nodes) == ("not_found_exhausted", 0)


@pytest.mark.parametrize("n", [2, 6])
def test_kernel_search_matches_backtracking_on_c2_4(n):
    # the pinned C2^4 cases
    r = _assert_matches_reference(_c2_power(4), dh.DihedralProductSpec(n),
                                  r_max=4)
    assert (r.status, r.copies_tried) == ("embedding", 1)


def _hom_candidates(sub, target):
    """The images tried while Hom(sub, target) streams to its end."""
    calls = []
    gens = dh.minimal_generating_tuple(sub)
    plans = dh._extension_plans(sub, gens)
    for _ in dh._kernels(sub, gens, plans, target, lambda: calls.append(1),
                         {}):
        pass
    return len(calls)


def test_the_search_stops_at_its_first_embedding():
    # C2^4 into D(6) x D(2): neither stream is read to its end; the lead
    # stream alone would take more images than the whole search takes
    spec = dh.DihedralProductSpec(6)
    r = _assert_matches_reference(_c2_power(4), spec, r_max=1)
    assert (r.status, r.copies_tried) == ("embedding", 1)
    assert r.nodes < _hom_candidates(_c2_power(4), spec.factor_tables()[0])
    # C4 into D(4) at r = 0: the first injective map ends the search
    r = dh.embed_search(dh.build_cyclic(4), dh.DihedralProductSpec(4),
                        r_max=0)
    assert r.status == "embedding" and r.nodes == 1


def test_quaternion_refuted_at_every_r():
    r = dh.embed_search(dh.build_quaternion(), dh.DihedralProductSpec(4),
                        r_max=3)
    assert (r.status, r.copies_tried) == ("not_found_exhausted", 3)
    assert r.nodes > 0
    assert r.images is None


def test_quaternion_budget_exceeded():
    r = dh.embed_search(dh.build_quaternion(), dh.DihedralProductSpec(4),
                        r_max=3, budget=1)
    assert r.status == "budget_exceeded"
    assert r.nodes == 2
    assert r.images is None


def test_embed_arguments_are_validated():
    c4, spec = dh.build_cyclic(4), dh.DihedralProductSpec(4)
    with pytest.raises(ValueError, match="r_max"):
        dh.embed_search(c4, spec, r_max=-1)
    with pytest.raises(ValueError, match="budget"):
        dh.embed_search(c4, spec, budget=0)


# --- outputs pinned across the search's rewrites -----------------------------
#
# sha256 of the sorted-key JSON list of EmbedResult.to_json_dict(), one per
# case, taken from the streamed search (embed-report/3): kernels met as
# they arrive, stopping at the first trivial meet. Only nodes and which
# embedding is reported may move when the search changes, and then under
# a new report schema: status and copies_tried must still equal
# backtracking_embed_search, and every embedding must replay.

PINNED_DIGESTS = {
    "q8": "e1abdebb26f9cdaa6878c3a51d3b955ca553e35913fc5c35ddb0ca4ccbcdc1ad",
    "d4xd4 seed 0":
        "577290199db8f85972f5b76e26ba9d75414ea81763dde97ce18be926f7c52ed2",
    "d4xd4 seed 1":
        "4d70973a2707c14ea1e572899d3e34c225306925747aa4d56868a19712a4cdbe",
    "d4xd4 seed 2":
        "7f85af79e18a3ac5482e6943ee93526ff05241be5a69584f7035783bded7b1e1",
    "d4xd4 seed 3":
        "c014813ef738125cb335ccd6ad015600db5bbc04d5f8db946c49405adc0a3c09",
    "c2^4 n=2":
        "b8b8ce8c87835b8f5194e215ea363683dbaf9a9865cf2266dff42e936598b97f",
    "c2^4 n=6":
        "5f70fd51d908d22a03cfeb0a5c1a2f29bd79bde6d208dd8a83f419d362caa5ed",
}


def _c2_power(k):
    return dh.direct_product([dh.build_cyclic(2)] * k)


def _pinned_cases():
    """case -> (subgroups, n, r_max)"""
    cases = {"q8": ([dh.build_quaternion()], 4, 3)}
    for seed in range(4):
        cases[f"d4xd4 seed {seed}"] = (_d4xd4_draws(seed), 4, 3)
    for n in (2, 6):
        cases[f"c2^4 n={n}"] = ([_c2_power(4)], n, 4)
    return cases


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_embed_results_match_pinned_digests(case):
    subs, n, r_max = _pinned_cases()[case]
    spec = dh.DihedralProductSpec(n)
    results = [dh.embed_search(sub, spec, r_max=r_max).to_json_dict()
               for sub in subs]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[case]


def brute_force_generating_tuple(table):
    """Every increasing tuple, size by size, closed from scratch."""
    if table.order == 1:
        return []
    for size in range(1, table.order.bit_length() + 1):
        for combo in itertools.combinations(range(1, table.order), size):
            if len(table.closure(combo)) == table.order:
                return list(combo)
    raise AssertionError("unreachable")


def _generating_tuple_groups():
    d4 = dh.build_dihedral(4)
    groups = [_c2_power(k) for k in (3, 4, 5)]
    groups += [dh.build_quaternion(), dh.build_dihedral(6),
               dh.build_dihedral(12), dh.build_cyclic(12),
               dh.direct_product([d4, d4]), dh.build_cyclic(1)]
    for seed in range(4):
        groups += _d4xd4_draws(seed)
    return groups


def test_generating_tuple_matches_brute_force():
    for table in _generating_tuple_groups():
        assert dh.minimal_generating_tuple(table) == \
            brute_force_generating_tuple(table), table.name


def test_generating_tuple_matches_brute_force_on_sampled_subgroups():
    d4 = dh.build_dihedral(4)
    ambient = dh.direct_product([d4, d4])
    subs = dh.sample_subgroups(ambient, 48, seed=5)
    assert len(subs) == 48
    for elems in subs:
        table = dh.subgroup_table(ambient, elems)
        assert dh.minimal_generating_tuple(table) == \
            brute_force_generating_tuple(table), elems


def _permutation_group(name, *gens):
    """The group the permutations gens generate, as a table with the
    identity first and the rest in the order they are reached."""
    identity = tuple(range(len(gens[0])))
    elements, index = [identity], {identity: 0}
    for g in elements:  # grows while it is read
        for s in gens:
            h = tuple(g[i] for i in s)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    return dh.FiniteGroupTable(
        [[index[tuple(g[i] for i in h)] for h in elements] for g in elements],
        name=name)


# non-nilpotent or mixed tables; on A4, S4 and A5 the elementary abelian
# bound is below the answer, so the search grows past its first size
def _mixed_groups():
    c2, c3, c6 = dh.build_cyclic(2), dh.build_cyclic(3), dh.build_cyclic(6)
    d3 = dh.build_dihedral(3)
    return {"D3^3": dh.direct_product([d3] * 3),
            "C6^3": dh.direct_product([c6] * 3),
            "D3xD3xC3": dh.direct_product([d3, d3, c3]),
            "D3xC2^3": dh.direct_product([d3, c2, c2, c2]),
            "A4": _permutation_group("A4", (1, 2, 0, 3), (0, 2, 3, 1)),
            "S4": _permutation_group("S4", (1, 0, 2, 3), (1, 2, 3, 0)),
            "A5": _permutation_group("A5", (1, 2, 0, 3, 4),
                                     (1, 2, 3, 4, 0))}


@pytest.mark.parametrize("name", sorted(_named_groups()) +
                         sorted(_mixed_groups()))
def test_generating_tuple_matches_the_level_search(name):
    table = {**_named_groups(), **_mixed_groups()}[name]
    assert dh.minimal_generating_tuple(table) == level_generating_tuple(table)


def test_generating_tuple_matches_the_level_search_on_d4xd4_draws():
    for seed in range(40):
        for table in _d4xd4_draws(seed):
            assert dh.minimal_generating_tuple(table) == \
                level_generating_tuple(table), seed


def test_the_size_bound_is_below_the_answer_on_mixed_groups():
    below = [name for name, table in _mixed_groups().items()
             if max(d for _, d, _ in dh._elementary_quotients(table))
             < len(dh.minimal_generating_tuple(table))]
    assert sorted(below) == ["A4", "A5", "S4"]


# the level search took about 0.4 s on C2^6, 12 s on C2^7 and 6 s on
# C3^5; C2^8 sits at the 256-element table cap
@pytest.mark.parametrize("base, k", [(2, 6), (2, 7), (2, 8), (3, 5)])
def test_generating_tuple_of_an_elementary_abelian_group_is_fast(base, k):
    table = dh.direct_product([dh.build_cyclic(base)] * k)
    t0 = time.monotonic()
    assert dh.minimal_generating_tuple(table) == [base ** i for i in range(k)]
    assert time.monotonic() - t0 < 1.0


def _bfs_close(sub, gens, images, target):
    """The frontier BFS the extension plans replace: the map gens ->
    images closed over <gens> (None outside it), or None on a clash."""
    phi = [None] * sub.order
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for s, x in zip(gens, images):
                h = sub.rows[g][s]
                cand = target.rows[phi[g]][x]
                if phi[h] is None:
                    phi[h] = cand
                    nxt.append(h)
                elif phi[h] != cand:
                    return None
        frontier = nxt
    return phi


def test_extension_plans_match_the_frontier_bfs():
    rng = random.Random(3)
    subs = _d4xd4_draws(0) + [_c2_power(4), dh.build_quaternion(),
                              dh.build_dihedral(6)]
    targets = [dh.build_dihedral(h) for h in (2, 3, 4, 6)]
    clashes = closed = 0
    for sub in subs:
        gens = dh.minimal_generating_tuple(sub)
        plans = dh._extension_plans(sub, gens)
        for k in range(len(gens) + 1):
            for target in targets:
                for _ in range(12):
                    images = tuple(rng.randrange(target.order)
                                   for _ in range(k))
                    want = _bfs_close(sub, gens[:k], images, target)
                    phi = [None] * sub.order
                    phi[0] = 0
                    ok = all(dh._extend(plans[j], images, phi, target.rows)
                             for j in range(k))
                    assert (phi if ok else None) == want
                    clashes += want is None
                    closed += want is not None
    assert clashes > 50 and closed > 50


def test_verify_embedding_rejects_broken_maps():
    spec = dh.DihedralProductSpec(4)
    sub = _c2_power(2)
    r = dh.embed_search(sub, spec, r_max=1)
    ambient = ambient_of(spec, r.copies_tried)
    phi = _close_partial(sub, r.generators, [tuple(img) for img in r.images],
                         ambient)
    maps = _coordinate_maps(phi, ambient)
    assert dh._verify_embedding(sub, maps, ambient)
    # still injective, but one image moved outside the embedded copy, so
    # the products through it fail
    lead = ambient[0]
    assert lead.order > sub.order
    broken = [list(m) for m in maps]
    broken[0][1] = next(x for x in range(lead.order) if x not in maps[0])
    assert len({tuple(m[h] for m in broken) for h in range(sub.order)}) \
        == sub.order
    assert not dh._verify_embedding(sub, broken, ambient)
    # multiplicative but not injective: the trivial map
    trivial = [[0] * sub.order for _ in ambient]
    assert not dh._verify_embedding(sub, trivial, ambient)
    # one coordinate too many
    assert not dh._verify_embedding(sub, maps + [[0] * sub.order], ambient)


def test_structural_check_precedes_the_generating_tuple():
    c3 = dh.build_cyclic(3)
    sub = dh.direct_product([c3] * 5)  # order 243
    t0 = time.monotonic()
    r = dh.embed_search(sub, dh.DihedralProductSpec(4), r_max=4)
    assert time.monotonic() - t0 < 1.0
    assert r.status == "refuted_structural"
    assert r.generators is None and r.nodes == 0


def test_csv_table_above_the_cell_cap_is_refused_before_its_rows():
    text = "order,300,name,C300\n"  # no rows: the header alone is refused
    with pytest.raises(dh.TableError, match="90000 cells"):
        dh.FiniteGroupTable.from_csv(text)
    with pytest.raises(dh.TableError, match=">= 1"):
        dh.FiniteGroupTable.from_csv("order,0\n")
