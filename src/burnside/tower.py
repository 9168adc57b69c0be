"""Inductive construction of B(m, n) by periods of increasing rank.

Each stage group is presented by the n-th powers of the periods found so
far. The next period is the shortlex-least word of infinite order in the
current stage; the scan walks candidates in shortlex order, skips (with
a logged reason) words that provably cannot be first — conjugates that
are not cyclically reduced, and proper powers, whose primitive root has
the same order and comes strictly earlier — and asks the oracle about
the rest. A rank closes in one of three ways:

* a candidate gets an Infinite verdict: that word is the next period;
* the stage itself is proved finite and realized: the tower terminates,
  and if the realized exponent divides n the result IS B(m, n) (the
  stage surjects onto B(m, n) and satisfies all its relations, and
  finite plus both surjections forces equality);
* budgets run out or the oracle answers Unknown: the run halts with a
  resumable checkpoint. Unknown is never rounded to a verdict.

The scan asks the oracle about one candidate at a time and stops at the
first Infinite or Unknown verdict, so ``max_candidates`` bounds the
oracle calls of a rank exactly.

A run owns one ``cosets.Prefetch`` and closes it, killing any helper
process, before it returns or raises. Its ``StageContext`` starts the
whole-stage enumeration there before it completes a stage that may
close; one that outgrows the first definitions goes on in a forked
helper process and overlaps the completion.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Optional, Sequence

from . import cosets, oracle, subgrp
from .oracle import Budgets
from .presentation import (
    Presentation,
    TowerStatus,
    power_relator,
    tower_presentation,
)
from .words import (
    ORDER_ID,
    Record,
    Word,
    cyclic_reduce,
    format_word,
    parse_word,
    primitive_root,
    reduced_words,
    shortlex_key,
)

PAPER_REGIME_EXPONENT = 2 ** 48

CHECKPOINT_SCHEMA = "burnside/tower-checkpoint/1"
REPORT_SCHEMA = "burnside/tower-report/4"
# checkpoints written before tower-report/3 also store this budget; the
# oracle reads the stage closure, which stage_max_cosets bounds, so a
# resumed run drops it
RETIRED_BUDGET = "oracle_max_cosets"


FILTERS = ("not-cyclically-reduced", "proper-power")


def candidate_filter_reason(w: Word) -> Optional[str]:
    """Why w cannot be the shortlex-least infinite-order word, or None.

    A non-cyclically-reduced w is conjugate to its strictly shorter core,
    which has the same order and was scanned earlier. A proper power u^k
    has infinite order iff u does, and u comes strictly earlier.
    """
    core, conj = cyclic_reduce(w)
    if conj:
        return "not-cyclically-reduced"
    _, k = primitive_root(w)
    if k > 1:
        return "proper-power"
    return None


class RankOutcome(Record):
    def __init__(self, kind: str, rank: int, stage_relators: list,
                 stage_probe: Optional[dict] = None,
                 period: Optional[Word] = None, examined: int = 0,
                 log: Optional[list] = None, cursor: Optional[Word] = None,
                 note: Optional[str] = None,
                 realization: Optional[cosets.FiniteRealization] = None,
                 closure: Optional[dict] = None,
                 unknown_evidence: Optional[dict] = None):
        self.kind = kind  # "period" | "closed" | "inconclusive"
        self.rank = rank
        self.stage_relators = stage_relators
        self.stage_probe = stage_probe
        self.period = period
        self.examined = examined
        self.log = [] if log is None else log
        self.cursor = cursor
        self.note = note
        self.realization = realization
        self.closure = closure
        self.unknown_evidence = unknown_evidence

    def to_dict(self, rank_sym: int) -> dict:
        d = {
            "rank": self.rank,
            "stage_relators": self.stage_relators,
            "kind": self.kind,
            "examined": self.examined,
            "log": self.log,
        }
        if self.stage_probe is not None:
            d["stage_probe"] = self.stage_probe
        if self.period is not None:
            d["period"] = format_word(self.period, rank_sym)
        if self.closure is not None:
            d["closure"] = self.closure
        if self.note is not None:
            d["note"] = self.note
        if self.unknown_evidence is not None:
            d["unknown_evidence"] = self.unknown_evidence
        return d


def _too_long(w: Word, n: int, budgets: Budgets) -> bool:
    return len(w) * n > budgets.max_relator_letters


def next_period(m: int, n: int, periods: Sequence[Word], budgets: Budgets,
                prefetch: cosets.Prefetch, cursor: Optional[Word] = None,
                prior_log: Optional[list] = None) -> RankOutcome:
    """Resolve one rank: find the next period or close the stage."""
    rank = len(periods) + 1
    for w in periods:
        if _too_long(w, n, budgets):
            return RankOutcome(
                kind="inconclusive", rank=rank, stage_relators=[],
                cursor=cursor,
                note=(f"relator {format_word(w, m)}^{n} exceeds the "
                      f"materialization budget ({budgets.max_relator_letters} letters)"),
            )
    p = tower_presentation(m, n, periods)
    stage_relators = [format_word(r, m) for r in p.relators]
    ctx = oracle.StageContext(p, budgets, prefetch)
    probe = ctx.infiniteness()
    closed = ctx.closure()  # None when the probe proved the stage infinite
    if closed is not None:
        realization, closure = closed
        return RankOutcome(
            kind="closed", rank=rank, stage_relators=stage_relators,
            realization=realization, closure=closure,
        )
    # a stage neither proved infinite nor closed leaves the scan below to
    # surface Unknown verdicts and halt honestly

    log: list = list(prior_log or ())
    examined = 0
    last_done: Optional[Word] = cursor

    for w in reduced_words(m, after=cursor):
        text = format_word(w, m)
        reason = candidate_filter_reason(w)
        if reason is not None:
            log.append({"word": text, "filtered": reason})
            last_done = w
            continue
        if examined >= budgets.max_candidates:
            return RankOutcome(
                kind="inconclusive", rank=rank, stage_relators=stage_relators,
                stage_probe=probe, examined=examined, log=log, cursor=last_done,
                note=f"candidate budget {budgets.max_candidates} exhausted",
            )
        v = oracle.element_order(ctx, w)
        if v.kind == "unknown":
            return RankOutcome(
                kind="inconclusive", rank=rank,
                stage_relators=stage_relators, stage_probe=probe,
                examined=examined, log=log, cursor=last_done,
                note=f"oracle returned Unknown for {text}",
                unknown_evidence=v.evidence,
            )
        examined += 1
        log.append(v.log_entry(text))
        last_done = w
        if v.kind == "infinite":
            return RankOutcome(
                kind="period", rank=rank, stage_relators=stage_relators,
                stage_probe=probe, period=w, examined=examined, log=log,
            )


def exponent_divides(r: cosets.FiniteRealization, n: int):
    """(True, None) if every element order divides n, else (False, w)
    with w the shortlex-least witness."""
    orders = r.element_orders
    bad = [r.reps[c] for c in range(r.order) if n % orders[c]]
    if not bad:
        return True, None
    return False, min(bad, key=shortlex_key)


class TowerResult(Record):
    def __init__(self, m: int, n: int, status: TowerStatus, periods: tuple,
                 ranks: List[RankOutcome],
                 realization: Optional[cosets.FiniteRealization] = None,
                 order: Optional[int] = None, exponent: Optional[int] = None,
                 exponent_witness: Optional[Word] = None,
                 notes: Optional[list] = None,
                 checkpoint: Optional[dict] = None):
        self.m = m
        self.n = n
        self.status = status
        self.periods = periods
        self.ranks = ranks
        self.realization = realization
        self.order = order
        self.exponent = exponent
        self.exponent_witness = exponent_witness
        self.notes = [] if notes is None else notes
        self.checkpoint = checkpoint

    def period_texts(self) -> list:
        return [format_word(w, self.m) for w in self.periods]


def run_tower(m: int, n: int, budgets: Optional[Budgets] = None,
              jobs: int = 1, resume: Optional[dict] = None) -> TowerResult:
    if m < 1:
        raise ValueError("need at least one generator")
    if n < 1:
        raise ValueError("exponent must be >= 1")
    # jobs=1 is still accepted because perfbench/workloads.py passes it
    if jobs != 1:
        raise ValueError("jobs must be 1: candidates are scanned in order")
    budgets = budgets or Budgets()
    notes: list = []
    if n >= PAPER_REGIME_EXPONENT:
        notes.append(
            f"exponent {n} is in the asymptotic regime; the construction "
            "is sound but no desk budget can realize these stages, so "
            "expect a checkpoint, not a result"
        )
    periods: List[Word] = []
    cursor: Optional[Word] = None
    prior_log: Optional[list] = None
    if resume is not None:
        saved = _check_checkpoint(resume, m, n)
        periods = [parse_word(t, m) for t in resume["periods"]]
        cursor = (parse_word(resume["cursor"], m)
                  if resume.get("cursor") else None)
        prior_log = resume.get("partial_log") or None
        notes.append(f"resumed at rank {len(periods) + 1}")
        # the run's own budgets win; each difference gets a note
        had = saved.to_dict() if saved else {}
        if RETIRED_BUDGET in resume.get("budgets", ()):
            notes.append(f"checkpoint budget {RETIRED_BUDGET} dropped: the "
                         "oracle reads the stage closure under "
                         "stage_max_cosets")
        for name, now in budgets.to_dict().items():
            if had.get(name, now) != now:
                notes.append(f"resumed with {name} {now} "
                             f"(checkpoint had {had[name]})")

    # one prefetch for the whole run; no helper it forks outlives it
    prefetch = cosets.Prefetch()
    try:
        return _climb(m, n, budgets, periods, cursor, prior_log, notes,
                      prefetch)
    finally:
        prefetch.close()


def _climb(m: int, n: int, budgets: Budgets, periods: List[Word],
           cursor: Optional[Word], prior_log: Optional[list], notes: list,
           prefetch: cosets.Prefetch) -> TowerResult:
    """Resolve ranks from len(periods) + 1 on until the tower stops."""
    ranks: List[RankOutcome] = []
    while True:
        outcome = next_period(m, n, periods, budgets, prefetch,
                              cursor=cursor, prior_log=prior_log)
        cursor = None
        prior_log = None
        ranks.append(outcome)
        if outcome.kind == "period":
            periods.append(outcome.period)
            if len(periods) >= budgets.max_ranks:
                checkpoint = _checkpoint(m, n, budgets, periods, None, None)
                notes.append(f"rank budget {budgets.max_ranks} reached")
                return TowerResult(m, n, TowerStatus.ORACLE_INCONCLUSIVE,
                                   tuple(periods), ranks, notes=notes,
                                   checkpoint=checkpoint)
            continue
        if outcome.kind == "closed":
            r = outcome.realization
            divides, witness = exponent_divides(r, n)
            exponent = r.exponent()
            status = (TowerStatus.TERMINATED_EQUALS_BURNSIDE if divides
                      else TowerStatus.STALLED_DIVERGENT)
            if not divides:
                order = r.element_orders[r.eval_word(witness)]
                notes.append(
                    f"element {format_word(witness, m)} has order "
                    f"{order}, which does not divide {n}"
                )
            return TowerResult(m, n, status, tuple(periods), ranks,
                               realization=r, order=r.order,
                               exponent=exponent, exponent_witness=witness,
                               notes=notes)
        # inconclusive
        checkpoint = _checkpoint(m, n, budgets, periods, outcome.cursor,
                                 outcome.log)
        if outcome.note:
            notes.append(outcome.note)
        return TowerResult(m, n, TowerStatus.ORACLE_INCONCLUSIVE,
                           tuple(periods), ranks, notes=notes,
                           checkpoint=checkpoint)


def _check_checkpoint(resume, m: int, n: int) -> Optional[Budgets]:
    """Reject a checkpoint run_tower cannot resume (m, n) from; return
    its validated budgets, or None when it stores none. A retired budget
    is dropped."""
    if not isinstance(resume, dict) or \
            resume.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError("not a tower checkpoint")
    for key in ("m", "n"):
        if type(resume.get(key)) is not int:
            raise ValueError(f"checkpoint field {key!r} must be an integer")
    if (resume["m"], resume["n"]) != (m, n):
        raise ValueError("checkpoint is for different (m, n)")
    periods = resume.get("periods")
    if not isinstance(periods, list) or \
            not all(isinstance(t, str) for t in periods):
        raise ValueError("checkpoint field 'periods' must be a list of words")
    if not isinstance(resume.get("cursor"), (str, type(None))):
        raise ValueError("checkpoint field 'cursor' must be a word or null")
    partial_log = resume.get("partial_log")
    if not isinstance(partial_log, (list, type(None))):
        raise ValueError("checkpoint field 'partial_log' must be a list")
    for i, entry in enumerate(partial_log or ()):
        try:
            _check_log_entry(entry, m)
        except ValueError as e:
            raise ValueError(
                f"checkpoint partial_log entry {i}: {e}") from None
    if "budgets" not in resume:
        return None
    stored = resume["budgets"]
    if isinstance(stored, dict):
        stored = {k: v for k, v in stored.items() if k != RETIRED_BUDGET}
    try:  # TypeError: not a mapping, or an unknown field
        return Budgets(**stored)
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint budgets: {e}") from None


def _check_log_entry(entry, m: int) -> None:
    """Reject a scan log entry the scan could not have written: it needs
    a word at rank m and a known filter, a Finite order or an Infinite
    certificate."""
    if not isinstance(entry, dict) or type(entry.get("word")) is not str:
        raise ValueError("must be an object with a 'word'")
    parse_word(entry["word"], m)
    verdict = entry.get("verdict")
    if "filtered" in entry:
        if entry["filtered"] not in FILTERS:
            raise ValueError(f"'filtered' must be one of {FILTERS}")
    elif verdict == "infinite":
        subgrp.Certificate.from_json_dict(entry.get("certificate"))
    elif verdict != "finite":
        raise ValueError("needs 'filtered', or a 'verdict' finite or infinite")
    elif type(entry.get("order")) is not int or entry["order"] < 1:
        raise ValueError("'order' must be an integer of at least 1")


def _checkpoint(m, n, budgets, periods, cursor, partial_log) -> dict:
    return {
        "schema": CHECKPOINT_SCHEMA,
        "order": ORDER_ID,
        "m": m,
        "n": n,
        "budgets": budgets.to_dict(),
        "periods": [format_word(w, m) for w in periods],
        "cursor": format_word(cursor, m) if cursor else None,
        "partial_log": partial_log or [],
    }


# --- verification suites ---------------------------------------------------


def verify_period_orders(result: TowerResult) -> dict:
    """Each period must have order exactly n in the realized group."""
    if result.realization is None:
        return {"status": "unavailable", "reason": "no realized group"}
    rows = []
    ok = True
    for w in result.periods:
        d = result.realization.element_order(w)
        rows.append({
            "period": format_word(w, result.m),
            "order": d,
            "expected": result.n,
            "ok": d == result.n,
        })
        ok = ok and d == result.n
    return {"status": "ok" if ok else "FAILED", "periods": rows}


def verify_independence(result: TowerResult, budgets: Budgets) -> dict:
    """Dropping any single defining relator must change the group.

    Evidence per relator: either some word (the dropped period first)
    picks up an infinite-order certificate in the dropped presentation
    while the full group is finite, or the dropped presentation closes at
    a different order. A closed enumeration at the SAME order means the
    relator was genuinely dependent, which is a failed verification, not
    an unresolved one.
    """
    if result.realization is None:
        return {"status": "unavailable", "reason": "no realized group"}
    m, n = result.m, result.n
    full_order = result.realization.order
    full_quotient = ("full-realization",
                     subgrp.permutation_quotient(result.realization.cols))
    entries = []
    unresolved = 0
    for i, period in enumerate(result.periods):
        dropped = Presentation(m, tuple(
            power_relator(w, n) for j, w in enumerate(result.periods)
            if j != i))
        entry = {
            "dropped_relator": format_word(power_relator(period, n), m),
            "dropped_period": format_word(period, m),
        }
        # certificates first: one proves the dropped group infinite, so
        # its enumeration could never have closed; a rung is built only
        # once a candidate has failed every rung below it. A kept period
        # has finite order there, so no rung can certify it
        certifiers = subgrp.ladder(dropped, subgrp.abelian_invariants(dropped),
                                   budgets.max_kernel_index,
                                   extra=[full_quotient])
        candidates = itertools.chain(
            [period], itertools.islice(reduced_words(m),
                                       budgets.independence_candidates))
        found = next(((w, name, cert) for w in candidates
                      for name, certifier in certifiers
                      if (cert := certifier.certify(w)) is not None),
                     None)
        if found:
            w, name, cert = found
            ok, reason = subgrp.verify_certificate(
                cert, budgets.max_kernel_index)
            entry["evidence"] = {
                "kind": "infinite-order-certificate",
                "witness": format_word(w, m),
                "quotient": name,
                "verified": ok,
                "verifier_reason": reason,
                "certificate": cert.to_json_dict(),
            }
            entry["independent"] = ok
        else:
            # a dependent relator leaves the order unchanged, so the
            # closure probe only needs headroom near the full order
            t = cosets.enumerate_cosets(dropped, (), cosets.near_order_limit(
                full_order, budgets.stage_max_cosets))
            if t.closed:
                entry["evidence"] = {
                    "kind": "closed-enumeration",
                    "dropped_order": t.num_cosets,
                    "full_order": full_order,
                }
                entry["independent"] = t.num_cosets != full_order
                if t.num_cosets == full_order:
                    entry["failure"] = ("dropped presentation has the "
                                        "same order")
            else:
                entry["evidence"] = {"kind": "none"}
                entry["independent"] = None
                unresolved += 1
        entries.append(entry)
    status = "ok"
    if unresolved:
        status = "unresolved"
    elif any(e["independent"] is False for e in entries):
        status = "FAILED"
    return {"status": status, "unresolved": unresolved, "relators": entries}


CENTER_DIVERGENCE_NOTE = (
    "small-n divergence: a nontrivial center is expected at desk "
    "exponents; centers go trivial only in the asymptotic regime"
)


def center_report(result: TowerResult) -> dict:
    if result.realization is None:
        return {"status": "unavailable", "reason": "no realized group"}
    words = cosets.center(result.realization)
    report = {
        "status": "ok",
        "order": len(words),
        "elements": [format_word(w, result.m) for w in words],
    }
    if len(words) > 1:
        report["note"] = CENTER_DIVERGENCE_NOTE
    return report


# --- audit (slow re-verification of every logged verdict) ------------------


def audit_tower(result: TowerResult, budgets: Budgets) -> dict:
    """Recompute every logged verdict in a fresh StageContext per rank.

    Finite(d): re-derive the word's order with the oracle in the fresh
    context, which must answer Finite(d): a word's verdict is the first
    pinned hit along the tiers, so the fresh context reaches the logged
    one, and a logged order that is a multiple of the true one is caught
    even when the tower did not terminate. The terminal realization, if
    any, must also give w the order d. Infinite: the serialized
    certificate must be for the logged word in this stage, which is
    checked before it is replayed, so a certificate for another stage
    builds no kernel. Filtered words: run the unfiltered oracle and
    require a Finite verdict.
    """
    checks = {"finite": 0, "infinite": 0, "filtered": 0}
    disagreements = []
    terminal = result.realization
    for outcome in result.ranks:
        # a rank that halted before its scan (say, on a relator over
        # max_relator_letters) logged nothing, so it has no stage to build
        if not outcome.log:
            continue
        p = tower_presentation(result.m, result.n,
                               result.periods[:outcome.rank - 1])
        ctx = oracle.StageContext(p, budgets)
        problems = []
        for entry in outcome.log:
            w = parse_word(entry["word"], result.m)
            if "filtered" in entry:
                checks["filtered"] += 1
                v = oracle.element_order(ctx, w)
                if v.kind != "finite":
                    problems.append((entry, f"filtered word got {v.kind}, "
                                     "expected finite"))
            elif entry["verdict"] == "finite":
                checks["finite"] += 1
                d = entry["order"]
                v = oracle.element_order(ctx, w)
                if not v.finite or v.order != d:
                    problems.append((entry, f"could not re-prove order {d}"))
                if terminal is not None and terminal.element_order(w) != d:
                    problems.append((entry, "terminal realization order "
                                     f"{terminal.element_order(w)} != {d}"))
            elif entry["verdict"] == "infinite":
                checks["infinite"] += 1
                cert = subgrp.Certificate.from_json_dict(entry["certificate"])
                if (cert.word, cert.presentation) != (w, p):
                    ok, reason = False, "it is for another word or stage"
                else:
                    ok, reason = subgrp.verify_certificate(
                        cert, budgets.max_kernel_index)
                if not ok:
                    problems.append(
                        (entry, f"certificate replay failed: {reason}"))
        disagreements.extend(
            {"word": entry["word"], "stage_rank": outcome.rank,
             "problem": problem} for entry, problem in problems)
    return {
        "checks": checks,
        "disagreements": disagreements,
        "agreement": "100%" if not disagreements else
                     f"{len(disagreements)} disagreement(s)",
    }


# --- report ----------------------------------------------------------------


def build_report(result: TowerResult, budgets: Budgets,
                 verifications: bool = True,
                 audit: Optional[dict] = None) -> dict:
    """The semantic part of a tower report (no execution block)."""
    report = {
        "schema": REPORT_SCHEMA,
        "config": {
            "m": result.m,
            "n": result.n,
            "order": ORDER_ID,
            "filters": list(FILTERS),
            "budgets": budgets.to_dict(),
        },
        "status": result.status.value,
        "periods": result.period_texts(),
        "ranks": [o.to_dict(result.m) for o in result.ranks],
        "notes": result.notes,
    }
    if result.realization is not None:
        report["result"] = {
            "order": result.order,
            "exponent": result.exponent,
            "exponent_divides_n": result.status
                                  is not TowerStatus.STALLED_DIVERGENT,
        }
        if verifications:
            report["verification"] = {
                "period_orders": verify_period_orders(result),
                "independence": verify_independence(result, budgets),
                "center": center_report(result),
            }
    if result.checkpoint is not None:
        report["checkpoint"] = result.checkpoint
    if audit is not None:
        report["audit"] = audit
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
