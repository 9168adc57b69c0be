"""Order-of-element oracle: a fixed cascade of sound strategies.

For a word w in a presented group the cascade tries, in order:

1. the stage's closure (``StageContext.closure``): a stage proved finite
   and realized answers exactly;
2. infinite-order certificates through the stage's quotient ladder (the
   torsion quotient of the abelianization), which answer at once when
   no rung's kernel has a free part;
3. a power trace w, w^2, ... looking for a reduction to the empty word,
   first along the capped tiers of a stage the quotients prove
   infinite, then by Knuth-Bendix within budget; a hit proves w^d = 1,
   and d is the exact order when the system is confluent or when some
   cached quotient already exhibits an element of order d underneath w;
4. Unknown, carrying the budgets that were exhausted.

The capped tiers come in a fixed order: the seed rules whose lhs fits
``CAPPED_MAX_LEN``, then one capped completion read at each of
``CAPPED_MARKS`` steps and at its end. The completion advances only when
no tier reached so far pinned a hit, and only then does the stage
complete in full. A certified word has no power that reduces to 1 and a
pinned hit is the exact order, so this sequence changes no verdict, and
a word's verdict is the first pinned hit along the tiers, whatever was
asked before it.

Every verdict carries machine-checkable evidence. Unknown is contagious
by design: callers must treat it as "stop", never as "probably finite".

The cascade asks a StageContext, which builds each per-presentation
artifact (closure, the completed rewriting system, abelian data,
certificate machinery) on first use and keeps it, so a scan over many
candidate words pays for them once and no caller prepares anything.

The context also owns stage closure. It decides once, under
``stage_max_cosets``, whether the stage is finite: a stage its memoized
infiniteness probe proves infinite never enumerates, and otherwise one
whole-stage coset enumeration, checked against the normal-form census,
realizes it or leaves it open. The tower and the oracle read the same
answer.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Tuple

from . import cosets, rewrite, subgrp
from .presentation import Presentation
from .words import Record, Word, free_reduce

# small orders of short words surface well within these budgets, and
# most of them at the first step mark
CAPPED_MAX_LEN = 16
CAPPED_MAX_STEPS = 100_000
CAPPED_MARKS = (1_000, 10_000)


class Budgets(Record):
    """Every knob that bounds work. All overridable via CLI flags or
    BURNSIDE_<NAME> environment variables (ints), for CI; a subcommand
    reads only the variables of the budgets it takes.

    Each field must be an int of at least 1; ``independence_candidates``
    may be 0. A bad value raises ValueError at construction.
    """

    def __init__(self, stage_max_cosets: int = 100_000,
                 kb_max_rules: int = rewrite.DEFAULT_MAX_RULES,
                 kb_max_len: int = rewrite.DEFAULT_MAX_LEN,
                 kb_max_steps: int = rewrite.DEFAULT_MAX_STEPS,
                 max_candidates: int = 10_000,
                 max_kernel_index: int = subgrp.DEFAULT_MAX_KERNEL_INDEX,
                 max_ranks: int = 64, max_relator_letters: int = 1_048_576,
                 independence_candidates: int = 64):
        # the parameters after self, in order: the fields
        for name, value in tuple(locals().items())[1:]:
            if type(value) is not int:
                raise ValueError(f"budget {name} must be an integer, "
                                 f"got {value!r}")
            floor = 0 if name == "independence_candidates" else 1
            if value < floor:
                raise ValueError(f"budget {name} must be at least {floor}, "
                                 f"got {value}")
            setattr(self, name, value)

    @classmethod
    def from_env(cls, names=None, **overrides) -> "Budgets":
        """Read BURNSIDE_<NAME> for each budget in names (all by default),
        then apply the overrides that are not None."""
        values = {}
        for name in names or cls().to_dict():
            var = f"BURNSIDE_{name.upper()}"
            text = os.environ.get(var)
            if text is not None:
                try:
                    values[name] = int(text)
                except ValueError:
                    raise ValueError(f"{var} must be an integer, "
                                     f"got {text!r}") from None
        values.update((k, v) for k, v in overrides.items() if v is not None)
        return cls(**values)

    def to_dict(self) -> dict:
        return dict(vars(self))


class OrderVerdict(Record):
    def __init__(self, kind: str, order: Optional[int] = None,
                 certificate: Optional[subgrp.Certificate] = None,
                 evidence: Optional[dict] = None):
        self.kind = kind  # "finite" | "infinite" | "unknown"
        self.order = order
        self.certificate = certificate
        self.evidence = {} if evidence is None else evidence

    @property
    def finite(self) -> bool:
        return self.kind == "finite"

    @property
    def infinite(self) -> bool:
        return self.kind == "infinite"

    def log_entry(self, word_text: str) -> dict:
        entry = {"word": word_text, "verdict": self.kind}
        if self.order is not None:
            entry["order"] = self.order
        if self.evidence:
            entry["strategy"] = self.evidence.get("strategy")
        if self.certificate is not None:
            entry["certificate"] = self.certificate.to_json_dict()
        return entry


class StageContext:
    """Cached artifacts for one presentation at fixed budgets."""

    _UNSET = object()

    def __init__(self, p: Presentation, budgets=None,
                 prefetch: Optional[cosets.Prefetch] = None):
        self.presentation = p
        self.budgets = budgets if budgets is not None else Budgets()
        self.prefetch = prefetch  # where the stage enumeration starts
        self._kb = None
        self._tiers: Optional[list] = None
        self._completion = None  # the capped completion, until it ends
        self._abelian = None
        self._certifiers: Optional[subgrp.Ladder] = None
        self._quotient_probe = self._UNSET
        self._infinite = self._UNSET
        self._closure = self._UNSET

    # -- cached artifacts --------------------------------------------------

    def kb(self) -> rewrite.RewritingSystem:
        if self._kb is None:
            self._kb = rewrite.complete_presentation(
                self.presentation,
                max_rules=self.budgets.kb_max_rules,
                max_len=self.budgets.kb_max_len,
                max_steps=self.budgets.kb_max_steps,
            )
        return self._kb

    def tiered(self) -> bool:
        """Whether the stage has capped tiers: the quotient probe proves
        it infinite, and the cap is below both KB budgets."""
        b = self.budgets
        return b.kb_max_len > CAPPED_MAX_LEN and \
            b.kb_max_steps > CAPPED_MAX_STEPS and \
            self.quotient_probe() is not None

    def capped_tiers(self):
        """Yield the capped tiers of a tiered stage (none otherwise) in
        their fixed order: tier 0, the seed rules whose lhs fits
        ``CAPPED_MAX_LEN``; then the one completion capped at
        ``CAPPED_MAX_LEN`` and ``CAPPED_MAX_STEPS``, read at each of
        ``CAPPED_MARKS`` and at its end. Each reached tier is kept, and
        the completion advances only when the caller reads past them. A
        confluent end hit no budget, so it is also ``kb()``."""
        if self._tiers is None:
            self._tiers = []
            if self.tiered():
                seed = rewrite.rules_from_presentation(self.presentation)
                self._tiers.append(rewrite.RewritingSystem(seed.rank, [
                    rule for rule in seed.rules
                    if len(rule[0]) <= CAPPED_MAX_LEN]))
                self._completion = rewrite.completion(
                    seed, CAPPED_MARKS, max_rules=self.budgets.kb_max_rules,
                    max_len=CAPPED_MAX_LEN, max_steps=CAPPED_MAX_STEPS)
        tiers = self._tiers
        i = 0
        while i < len(tiers) or self._completion is not None:
            if i == len(tiers):
                tier = next(self._completion)
                tiers.append(tier)
                if tier.confluent or tier.stats["budget_hit"]:  # the end
                    self._completion = None
                    if tier.confluent and self._kb is None:
                        self._kb = tier
            yield tiers[i]
            i += 1

    def abelian(self) -> subgrp.AbelianInvariants:
        if self._abelian is None:
            self._abelian = subgrp.abelian_invariants(self.presentation)
        return self._abelian

    def certifiers(self) -> subgrp.Ladder:
        if self._certifiers is None:
            self._certifiers = subgrp.ladder(
                self.presentation, self.abelian(),
                self.budgets.max_kernel_index)
        return self._certifiers

    # -- whole-group infiniteness probes ----------------------------------

    def quotient_probe(self) -> Optional[dict]:
        """Evidence from the quotients alone that the whole group is
        infinite, or None. Memoized; runs no completion.

        Probes, cheapest first: free rank of the abelianization; free
        rank of the abelianized kernel of a rung of the quotient ladder.
        Both are sound outright.
        """
        if self._quotient_probe is self._UNSET:
            self._quotient_probe = self._probe_quotients()
        return self._quotient_probe

    def _probe_quotients(self) -> Optional[dict]:
        ab = self.abelian()
        if ab.free_rank > 0:
            return {"probe": "abelianization-free-rank",
                    "free_rank": ab.free_rank}
        for name, certifier in self.certifiers():
            if certifier.kernel_free_rank > 0:
                return {"probe": "kernel-abelianization-free-rank",
                        "quotient": name,
                        "kernel_index": certifier.action.size,
                        "free_rank": certifier.kernel_free_rank}
        return None

    def infiniteness(self) -> Optional[dict]:
        """Evidence that the whole group is infinite, or None. Memoized.

        The quotient probe first; then, for a confluent rewriting system,
        a cycle in the normal-form automaton (exact in that case, and
        sound outright). A stage the quotient probe leaves open may
        close, so a prefetch first starts its enumeration, which then
        overlaps the completion.
        """
        if self._infinite is self._UNSET:
            evidence = self.quotient_probe()
            if evidence is None:
                if self.prefetch is not None:
                    self.prefetch.start(self.presentation,
                                        self.budgets.stage_max_cosets)
                sys = self.kb()
                if sys.confluent and rewrite.language_infinite(sys):
                    evidence = {
                        "probe": "normal-form-automaton-cycle",
                        "rules": len(sys.rules),
                    }
            self._infinite = evidence
        return self._infinite

    def closure(self) -> Optional[Tuple[cosets.FiniteRealization, dict]]:
        """Prove the whole stage finite and realize it: (realization,
        closure record), or None when the stage does not close. Memoized.

        A stage the infiniteness probe proves infinite never closes, so it
        is not enumerated. Otherwise a normal-form census fixes the order
        when it can, and then the one enumeration only needs headroom near
        it; a closed table must agree with the census, and an exhausted one
        leaves the census's own normal-form table to realize the stage.
        """
        if self._closure is self._UNSET:
            self._closure = (None if self.infiniteness() is not None
                             else self._close())
        return self._closure

    def _close(self) -> Optional[Tuple[cosets.FiniteRealization, dict]]:
        # the infiniteness probe found a confluent system's normal-form
        # language finite, so the census counts it
        sys = self.kb()
        order = rewrite.count_normal_forms(sys)[0] if sys.confluent else None
        limit = self.budgets.stage_max_cosets
        if order is not None:
            limit = min(limit, 20 * order + 1000)
        t = cosets.enumerate_cosets(self.presentation, (), limit,
                                    prefetch=self.prefetch)
        if t.closed:
            r = cosets.realize(t)
            if order is None:
                return r, {"order": r.order, "method": "coset-closure",
                           "cosets_defined": t.defined_total}
            if r.order != order:
                raise AssertionError(
                    f"normal-form census ({order}) disagrees with "
                    f"closed enumeration ({r.order})"
                )
            return r, {"order": order, "method": "kb-census",
                       "cross_check": "coset-closure",
                       "cosets_defined": t.defined_total}
        if order is None:
            return None
        return self._normal_form_realization(order), {
            "order": order, "method": "kb-census",
            "cross_check": f"enumeration exhausted at {limit}"}

    def _normal_form_realization(self, order: int) -> cosets.FiniteRealization:
        """Closed table over the trivial subgroup built from the normal
        forms of the confluent system, which has ``order`` of them. A
        shortlex normal form is a geodesic, so none is longer than
        ``order - 1``. The table gets the check of a closed enumeration."""
        system = self.kb()
        nfs = list(rewrite.normal_forms(system, order))
        if len(nfs) != order:
            raise AssertionError("normal-form table has wrong order")
        index = {w: i for i, w in enumerate(nfs)}
        cols = [[index[system.reduce(w + (x,))] for w in nfs]
                for x in range(self.presentation.num_symbols)]
        table = cosets.CosetTable(
            rank=self.presentation.rank, status="closed", num_cosets=order,
            defined_total=order, subgroup=(), cols=cols)
        cosets._validate_closed(self.presentation, table)
        return cosets.realize(table)


def element_order(ctx: StageContext, w: Word, n_hint: int = 1
                  ) -> OrderVerdict:
    """Run the cascade on one word of the context's stage. n_hint scales
    the power search."""
    w = free_reduce(tuple(w))
    skipped = []
    if not w:
        return OrderVerdict("finite", 1, evidence={"strategy": "trivial-word"})

    # strategy 1: the stage's closure, decided once per context
    closed = ctx.closure()
    if closed is not None:
        r, record = closed
        # a census whose enumeration exhausted realized the stage from
        # its normal-form table; every other closure closed a table
        closed_table = "coset-closure" in (record["method"],
                                           record.get("cross_check"))
        return OrderVerdict("finite", r.element_order(w), evidence={
            "strategy": "coset-closure" if closed_table else "kb-census",
            "group_order": r.order,
            "closure": record,
        })
    probe = ctx.infiniteness()
    if probe is not None:
        skipped.append({
            "strategy": "coset-closure",
            "reason": "stage proved infinite; enumeration cannot close",
            "probe": probe,
        })
    else:
        # a census order would have realized the stage, so the one
        # enumeration ran at the full stage budget
        skipped.append({
            "strategy": "coset-closure",
            "reason": "stage enumeration exhausted at "
                      f"{ctx.budgets.stage_max_cosets} cosets",
        })

    # strategy 2: certificates via the quotient ladder, which returns at
    # once when no rung's kernel is free; a certified word has no power
    # that reduces to 1, and a pinned hit is never certifiable, so the
    # order of strategies 2 and 3 changes no verdict
    verdict = _certify(ctx, w)
    # the power search is a bounded probe, not a proof of infiniteness,
    # so a hard cap is sound; without it asymptotic-regime exponents
    # would turn this strategy into an unbounded loop
    n_max = min(max(4 * n_hint, 4), 4096)
    # strategy 3: the power trace along the capped tiers (a word's
    # verdict is the first pinned hit along them), then the full system
    if verdict is None:
        for system in ctx.capped_tiers():
            verdict = _power_trace(ctx, system, w, n_max, [])
            if verdict is not None:
                break
    if verdict is None:
        verdict = _power_trace(ctx, ctx.kb(), w, n_max, skipped)
    if verdict is not None:
        return verdict
    skipped.append({
        "strategy": "kernel-certificate",
        "reason": "no quotient in the ladder separated the word",
        "quotients": list(ctx.certifiers().names),
    })
    return OrderVerdict("unknown", evidence={
        "strategy": "exhausted",
        "attempts": skipped,
    })


def _power_trace(ctx: StageContext, sys: rewrite.RewritingSystem, w: Word,
                 n_max: int, skipped: list) -> Optional[OrderVerdict]:
    """Strategy 3 on sys: a Finite verdict when w^d reduces to 1 and d is
    pinned as the order; else None, with the attempt added to skipped."""
    d = rewrite.finite_order_by_powers(sys, w, n_max)
    if d is None:
        skipped.append({
            "strategy": "kb-power",
            "reason": f"no power up to {n_max} reduced to 1",
            "confluent": sys.confluent,
        })
        return None
    if sys.confluent:
        return OrderVerdict("finite", d, evidence={
            "strategy": "kb-power",
            "exactness": "confluent-reduction",
            "rules": len(sys.rules),
        })
    # d is least: the trace reduces each w^e as sys.reduce(w * e) does
    # the hit proves w^d = 1; pin exactness before trusting d
    image_lcm = 1
    for name, certifier in ctx.certifiers():
        image_lcm = math.lcm(image_lcm, certifier.action.element_order(w))
    if image_lcm == d:
        return OrderVerdict("finite", d, evidence={
            "strategy": "kb-power",
            "exactness": "quotient-match",
            "quotient_order_lcm": image_lcm,
        })
    skipped.append({
        "strategy": "kb-power",
        "reason": f"w^{d} = 1 proved but minimality unconfirmed "
                  "(system not confluent)",
    })
    return None


def _certify(ctx: StageContext, w: Word) -> Optional[OrderVerdict]:
    """An Infinite verdict from the first rung that certifies w, or None."""
    for name, certifier in ctx.certifiers():
        cert = certifier.certify(w)
        if cert is not None:
            return OrderVerdict("infinite", None, certificate=cert, evidence={
                "strategy": "kernel-certificate",
                "quotient": name,
                "kernel_index": cert.kernel_index,
            })
    return None
