"""The benchmark's workloads: inputs, the operations of one pass, and the
hand-pinned answers each operation is checked against.

Every workload is a closed loop with one client: a pass runs its
operations one after another, each starting when the previous one has
finished, always with ``jobs=1``. The references below come from the
README table and from known group theory, never from a recorded run, and
they hold answers only: no counters (KB steps, search nodes), no
certificates, no witness images and no timings. A change that redefines
those counters still passes; a change that alters an answer fails.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

# The nine words whose fourth powers present B(2, 4); the presentation
# closes at 4096 cosets, the known order of B(2, 4).
B24_WORDS = ("a", "b", "ab", "aB", "aab", "abb", "aabb", "abaB", "abAb")

TERMINATED = "terminated-equals-burnside"
INCONCLUSIVE = "oracle-inconclusive"

# B(m, n) for the classical finite cases: periods, order and exponent as
# in the README table. B(2,2) is the Klein four-group and B(1,5) is C5,
# both abelian, so their centers are the whole group; B(2,3), of order 27
# and class 2, has a center of order 3.
CLASSICAL = (
    (2, 2, ["a", "b", "ab"], 4, 2, 4),
    (2, 3, ["a", "b", "ab", "aB"], 27, 3, 3),
    (1, 5, ["a"], 5, 5, 5),
)

# n = 4 stalls at rank 7 on the Unknown for aabb. The checkpoint cursor is
# the last word handled before aabb: with letters ordered a < A < b < B,
# the reduced words of length 4 go aaba, aabA, aabb, so it is aabA.
STRETCH_PERIODS = ["a", "b", "ab", "aB", "aab", "abb"]
STRETCH_CURSOR = "aabA"

# Asymptotic-regime exponent, run on one generator: the one period a is
# found, then a^(2^48) exceeds the relator materialization budget and the
# run checkpoints with no cursor. One generator keeps the rank-1 scan to
# two power traces (a and A) where two generators would run twelve; the
# code path is the same.
ASYMPTOTIC = (1, 2 ** 48)

DRAWS = 8  # seeded subgroups of D(4) x D(4) embedded after the refutation
R_MAX = 3


def tower_answer(result) -> dict:
    answer = {"status": result.status.value, "periods": result.period_texts()}
    if result.order is not None:
        answer.update(order=result.order, exponent=result.exponent)
    if result.checkpoint is not None:
        answer.update(checkpoint_periods=result.checkpoint["periods"],
                      checkpoint_cursor=result.checkpoint["cursor"])
    return answer


def report_answer(report: dict) -> dict:
    verification = report.get("verification", {})
    return {
        "period_orders": verification.get("period_orders", {}).get("status"),
        "independence": verification.get("independence", {}).get("status"),
        "center_order": verification.get("center", {}).get("order"),
        "audit": report.get("audit", {}).get("agreement"),
    }


def embed_answer(result) -> dict:
    return {"status": result.status, "found": result.images is not None,
            "within_one_copy": result.copies_tried <= 1}


# every subgroup of D(4) x D(4) embeds by coordinate inclusion, so the
# search needs at most one extra D(4) copy
EMBEDDED = {"status": "embedding", "found": True, "within_one_copy": True}


class Pass:
    """One pass of a workload: phase windows and answer checks."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.windows: list = []  # (phase, start, end)
        self.answers: list = []
        self.failures: list = []

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows.append((name, start, time.perf_counter()))

    def phases(self, probe) -> dict:
        """Each phase's time summed over its windows, at the probe's
        reference speed."""
        out: dict = {}
        for name, start, end in self.windows:
            out[name] = out.get(name, 0.0) + probe.scaled(start, end)
        return out

    def check(self, op: str, answer: dict):
        self.answers.append([op, answer])
        if answer != self.reference[op]:
            self.failures.append({"op": op, "got": answer,
                                  "want": self.reference[op]})

    def unchecked(self) -> list:
        done = {op for op, _ in self.answers}
        return [op for op in self.reference if op not in done]

    def digest(self) -> str:
        blob = json.dumps(self.answers, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# --- tower-classical ------------------------------------------------------


def classical_reference() -> dict:
    ref = {}
    for m, n, periods, order, exponent, center in CLASSICAL:
        ref[f"tower {m} {n}"] = {"status": TERMINATED, "periods": periods,
                                 "order": order, "exponent": exponent}
        ref[f"verify+audit {m} {n}"] = {"period_orders": "ok",
                                        "independence": "ok",
                                        "center_order": center,
                                        "audit": "100%"}
    ref["B(2,4) cross-check"] = {"status": "closed", "cosets": 4096,
                                 "exponent": 4}
    return ref


def classical_inputs(bs, seed):
    text = "gens 2\n" + "".join(f"rel {w * 4}\n" for w in B24_WORDS)
    return {"budgets": bs.tower.Budgets(),
            "b24": bs.presentation.parse_presentation(text)}


def tower_with_audit(bs, run: Pass, m, n, budgets):
    """What ``burnside tower --audit`` does: run, audit, report, serialize."""
    tower = bs.tower
    with run.phase("time_to_result_s"):
        result = tower.run_tower(m, n, budgets, jobs=1)
    run.check(f"tower {m} {n}", tower_answer(result))
    with run.phase("audit_s"):
        audit = tower.audit_tower(result, budgets)
        report = tower.build_report(result, budgets, audit=audit)
        tower.report_to_json(report)
    return report


def classical_pass(bs, inputs, run: Pass):
    budgets = inputs["budgets"]
    for m, n, *_ in CLASSICAL:
        report = tower_with_audit(bs, run, m, n, budgets)
        run.check(f"verify+audit {m} {n}", report_answer(report))
    cosets = bs.cosets
    with run.phase("crosscheck_s"):
        table = cosets.enumerate_cosets(inputs["b24"], (),
                                        cosets.DEFAULT_MAX_COSETS)
        exponent = cosets.realize(table).exponent() if table.closed else None
    run.check("B(2,4) cross-check", {"status": table.status,
                                     "cosets": table.num_cosets,
                                     "exponent": exponent})


# --- tower-stretch --------------------------------------------------------


def stretch_reference() -> dict:
    m, n = ASYMPTOTIC
    return {
        "tower 2 4": {"status": INCONCLUSIVE, "periods": STRETCH_PERIODS,
                      "checkpoint_periods": STRETCH_PERIODS,
                      "checkpoint_cursor": STRETCH_CURSOR,
                      "unknown_on": "aabb"},
        f"tower {m} {n}": {"status": INCONCLUSIVE, "periods": ["a"],
                           "checkpoint_periods": ["a"],
                           "checkpoint_cursor": None},
    }


def stretch_inputs(bs, seed):
    return {"budgets": bs.tower.Budgets()}


def stretch_pass(bs, inputs, run: Pass):
    tower = bs.tower
    budgets = inputs["budgets"]
    with run.phase("time_to_checkpoint_s"):
        result = tower.run_tower(2, 4, budgets, jobs=1)
        tower.report_to_json(tower.build_report(result, budgets))
    note = "oracle returned Unknown for "
    stall = [t[len(note):] for t in result.notes if t.startswith(note)]
    run.check("tower 2 4", dict(tower_answer(result),
                                unknown_on=stall[0] if stall else None))
    m, n = ASYMPTOTIC
    with run.phase("asymptotic_checkpoint_s"):
        result = tower.run_tower(m, n, budgets, jobs=1)
        tower.report_to_json(tower.build_report(result, budgets))
    run.check(f"tower {m} {n}", tower_answer(result))


# --- embed-q8 -------------------------------------------------------------


def embed_reference() -> dict:
    # Q8 has a unique involution and six elements of order 4; a dihedral
    # product has no such subgroup, so the exhaustive search finds nothing
    ref = {"Q8 into D(4) x D(4)^r, r <= 3": {"status": "not_found_exhausted",
                                             "found": False}}
    for i in range(DRAWS):
        ref[f"draw {i}"] = EMBEDDED
    return ref


def embed_inputs(bs, seed):
    dihedral = bs.dihedral
    d4 = dihedral.build_dihedral(4)
    ambient = dihedral.direct_product([d4, d4])
    draws = dihedral.sample_subgroups(ambient, DRAWS, seed=seed)
    return {
        "q8": dihedral.build_quaternion(),
        "spec": dihedral.DihedralProductSpec(4),
        "draws": [dihedral.subgroup_table(ambient, elems) for elems in draws],
    }


def embed_pass(bs, inputs, run: Pass):
    dihedral = bs.dihedral
    spec = inputs["spec"]
    with run.phase("refute_s"):
        result = dihedral.embed_search(inputs["q8"], spec, r_max=R_MAX)
    run.check("Q8 into D(4) x D(4)^r, r <= 3",
              {"status": result.status, "found": result.images is not None})
    for i, sub in enumerate(inputs["draws"]):
        with run.phase("draws_s"):
            result = dihedral.embed_search(sub, spec, r_max=R_MAX)
        run.check(f"draw {i}", embed_answer(result))


# --- smoke (self-test only) -----------------------------------------------


def smoke_reference() -> dict:
    classical = classical_reference()
    return {"tower 2 2": classical["tower 2 2"],
            "verify+audit 2 2": classical["verify+audit 2 2"],
            "C4 into D(4)": EMBEDDED}


def smoke_inputs(bs, seed):
    dihedral = bs.dihedral
    return {"budgets": bs.tower.Budgets(), "c4": dihedral.build_cyclic(4),
            "spec": dihedral.DihedralProductSpec(4)}


def smoke_pass(bs, inputs, run: Pass):
    report = tower_with_audit(bs, run, 2, 2, inputs["budgets"])
    run.check("verify+audit 2 2", report_answer(report))
    with run.phase("embed_s"):
        result = bs.dihedral.embed_search(inputs["c4"], inputs["spec"],
                                          r_max=R_MAX)
    run.check("C4 into D(4)", embed_answer(result))


class Workload:
    def __init__(self, name, inputs, run_pass, reference):
        self.name = name
        self.inputs = inputs
        self.run_pass = run_pass
        self.reference = reference


WORKLOADS = {
    w.name: w for w in (
        Workload("tower-classical", classical_inputs, classical_pass,
                 classical_reference()),
        Workload("tower-stretch", stretch_inputs, stretch_pass,
                 stretch_reference()),
        Workload("embed-q8", embed_inputs, embed_pass, embed_reference()),
        Workload("smoke", smoke_inputs, smoke_pass, smoke_reference()),
    )
}
