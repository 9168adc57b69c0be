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
from support import is_abelian, multiplication_table, table_csv


def test_dihedral_small():
    k4 = dh.build_dihedral(2)
    assert k4.order == 4
    assert is_abelian(k4)
    assert k4.exponent() == 2
    d6 = dh.build_dihedral(3)
    assert d6.order == 6
    assert not is_abelian(d6)
    assert d6.exponent() == 6
    d8 = dh.build_dihedral(4)
    assert d8.order == 8
    assert set(d8.order_spectrum()) == {1, 2, 4}
    assert d8.exponent() == 4


def test_cyclic_and_quaternion():
    assert dh.build_cyclic(5).exponent() == 5
    q8 = dh.build_quaternion()
    assert q8.order == 8
    assert q8.exponent() == 4
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
    assert klein.order == 4 and klein.exponent() == 2
    p = dh.direct_product([dh.build_dihedral(2), dh.build_dihedral(2)])
    assert p.order == 16 and p.exponent() == 2
    p = dh.direct_product([dh.build_dihedral(4), dh.build_dihedral(4)])
    assert p.order == 64 and p.exponent() == 4


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
        want = math.lcm(*(t.exponent() for t in parts))
        assert prod.exponent() == want


def test_lazy_product_agrees_with_table():
    factors = [dh.build_dihedral(4), dh.build_dihedral(2)]
    lazy = dh.LazyProduct(factors)
    table = dh.direct_product(factors)
    assert lazy.order == table.order
    assert lazy.exponent() == table.exponent()
    # identical order spectra, counted over coordinate tuples
    coords = itertools.product(*(range(f.order) for f in lazy.factors))
    assert Counter(map(lazy.element_order, coords)) == table.order_spectrum()
    assert lazy.element_order(lazy.identity) == 1
    # mul/inverse consistency on a few coordinates
    g = (2, 1)
    h = (3, 2)
    gh = lazy.mul(g, h)
    assert lazy.mul(lazy.inverse(g), gh) == h


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
    amb = s.ambient(2)
    assert amb.order == 24 * 8 * 8
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
    # replay the embedding of C4 by hand through the lazy ambient
    spec = dh.DihedralProductSpec(4)
    r = dh.embed_search(dh.build_cyclic(4), spec, r_max=0)
    amb = spec.ambient(r.copies_tried)
    c4 = dh.build_cyclic(4)
    images = {g: tuple(img) for g, img in zip(r.generators, r.images)}
    # generator image has matching order
    for g, img in images.items():
        assert amb.element_order(img) == c4.element_order(g)


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
# embed_search used to backtrack over LazyProduct coordinate tuples. It is
# kept here, unchanged apart from living outside the module, as the
# reference the kernel search must agree with on status and least r.


def _elements_of_order(ambient, d):
    pools = [sorted(x for x in range(f.order) if d % f.element_order(x) == 0)
             for f in ambient.factors]
    for combo in itertools.product(*pools):
        if ambient.element_order(combo) == d:
            yield combo


def _close_partial(sub, gens, images, ambient):
    phi = {0: ambient.identity}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for s, img in zip(gens, images):
                h = sub.rows[g][s]
                cand = ambient.mul(phi[g], img)
                known = phi.get(h)
                if known is None:
                    if h != 0 and cand == ambient.identity:
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
            for i in range(len(ambient.factors))]


def backtracking_embed_search(sub, spec, r_max=4):
    """(status, copies_tried) of the old backtracking search."""
    gens = dh.minimal_generating_tuple(sub)
    if not gens:
        return "embedding", 0
    structural = 0
    for copies in range(0, r_max + 1):
        ambient = spec.ambient(copies)
        if dh._structural_obstruction(sub, ambient) is not None:
            structural += 1
            continue
        candidate_pool, square_index = [], []
        for g in gens:
            pool = sorted(_elements_of_order(ambient, sub.element_order(g)))
            candidate_pool.append(pool)
            by_square = {}
            for cand in pool:
                by_square.setdefault(ambient.mul(cand, cand), []).append(cand)
            square_index.append(by_square)
        images = []

        def search(idx):
            if idx == len(gens):
                phi = _close_partial(sub, gens, images, ambient)
                return phi if phi is not None and len(phi) == sub.order \
                    else None
            partial = (_close_partial(sub, gens[:idx], images, ambient)
                       if idx else {0: ambient.identity})
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
    ambient = spec.ambient(result.copies_tried)
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


@pytest.mark.parametrize("seed", [101, 102, 7])
def test_kernel_search_matches_backtracking_on_d4xd4_draws(seed):
    for sub in _d4xd4_draws(seed):
        r = _assert_matches_reference(sub, dh.DihedralProductSpec(4),
                                      r_max=3)
        assert r.status == "embedding"


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
# case, taken from the frontier-BFS search with the combinations-based
# generating tuple. A faster search must reproduce every byte: status,
# copies_tried, nodes, generators, images and reason.

PINNED_DIGESTS = {
    "q8": "8b541aae48b5deb488d9c266c256b642bd6c3e5c517e8b0841964718a7ba0147",
    "d4xd4 seed 0":
        "0d82d5fa588c641bf46c7c523acea2b274e9f5a952b5f67c40dae541c794cecc",
    "d4xd4 seed 1":
        "085917b40d9d31ca60349fc8274185fe3d53eb3f5a1e63561bdf15f15cd95773",
    "d4xd4 seed 2":
        "eda07a038b634af1b8d164b97521302980ba89457a72c8fdc388cacc6b25a489",
    "d4xd4 seed 3":
        "6efb231b3f789f60c7f9b51805944ac1b5f5e0a9787f27e8fafc505687caab63",
    "c2^4 n=2":
        "d61fee300bf0ac5442ff8f89bca53e205968c4d3eb709d43a84204c7a2827a0d",
    "c2^4 n=6":
        "d2ed758977e245432f9599074f9d6b5aade5fe740d4c45777cdbab10c4ed7620",
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


def test_generating_tuple_of_c2_6_is_fast():
    table = _c2_power(6)
    t0 = time.monotonic()
    assert dh.minimal_generating_tuple(table) == [1, 2, 4, 8, 16, 32]
    assert time.monotonic() - t0 < 10.0


def _bfs_close(sub, gens, images, target):
    """The frontier BFS the compiled plans replace."""
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


def test_compiled_close_matches_the_frontier_bfs():
    rng = random.Random(3)
    subs = _d4xd4_draws(0) + [_c2_power(4), dh.build_quaternion(),
                              dh.build_dihedral(6)]
    targets = [dh.build_dihedral(h) for h in (2, 3, 4, 6)]
    clashes = closed = 0
    for sub in subs:
        gens = dh.minimal_generating_tuple(sub)
        for k in range(len(gens) + 1):
            plan = dh._closure_plan(sub, gens[:k])
            for target in targets:
                for _ in range(12):
                    images = tuple(rng.randrange(target.order)
                                   for _ in range(k))
                    want = _bfs_close(sub, gens[:k], images, target)
                    assert dh._close(plan, images, target) == want
                    clashes += want is None
                    closed += want is not None
    assert clashes > 50 and closed > 50


def test_verify_embedding_rejects_broken_maps():
    spec = dh.DihedralProductSpec(4)
    sub = _c2_power(2)
    r = dh.embed_search(sub, spec, r_max=1)
    ambient = spec.ambient(r.copies_tried)
    phi = _close_partial(sub, r.generators, [tuple(img) for img in r.images],
                         ambient)
    maps = _coordinate_maps(phi, ambient)
    assert dh._verify_embedding(sub, maps, ambient)
    # still injective, but one image moved outside the embedded copy, so
    # the products through it fail
    lead = ambient.factors[0]
    assert lead.order > sub.order
    broken = [list(m) for m in maps]
    broken[0][1] = next(x for x in range(lead.order) if x not in maps[0])
    assert len({tuple(m[h] for m in broken) for h in range(sub.order)}) \
        == sub.order
    assert not dh._verify_embedding(sub, broken, ambient)
    # multiplicative but not injective: the trivial map
    trivial = [[0] * sub.order for _ in ambient.factors]
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
