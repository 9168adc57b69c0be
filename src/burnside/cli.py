"""Command-line surface.

Every subcommand reads file-based inputs, embeds its full semantic
config in the report it writes, and keeps everything machine-checkable:
JSON reports have versioned schemas, and an `execution` block isolates
the nondeterministic facts (timestamp, wall time) so two runs of the
same config are byte-identical everywhere else.

Exit codes: 0 definitive result, 2 inconclusive or budget-limited,
1 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone

from . import cosets, dihedral, oracle, rewrite, subgrp, tower
from .presentation import (
    PresentationSyntaxError,
    TowerStatus,
    load_presentation,
)
from .words import ORDER_ID, WordSyntaxError, format_word, parse_word

EXIT_DEFINITIVE = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


class _CliError(Exception):
    pass


def _execution_block(started: float) -> dict:
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }


def _emit(report: dict, text_summary: str, args) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(text_summary)
        if args.output:
            sys.stdout.write(f"report written to {args.output}\n")


# the budget flags a subcommand reads; each flag's dest is its field name
TOWER_BUDGETS = ("stage_max_cosets", "kb_max_rules", "kb_max_len",
                 "kb_max_steps", "max_candidates", "max_kernel_index")
ORDER_BUDGETS = tuple(b for b in TOWER_BUDGETS if b != "max_candidates")
KB_BUDGETS = ("kb_max_rules", "kb_max_len", "kb_max_steps")


def _budget_args(sub, names):
    for name in names:
        sub.add_argument(
            "--" + name.replace("_", "-"), type=int, default=None,
            help="coset definition budget for whole-stage closure"
            if name == "stage_max_cosets" else None)


def _budgets_from(args, names=None) -> oracle.Budgets:
    # flags over the BURNSIDE_* variables of names (tower reads them all)
    return oracle.Budgets.from_env(
        names, **{name: getattr(args, name, None) for name in TOWER_BUDGETS})


# --- tower -------------------------------------------------------------------


def cmd_tower(args) -> int:
    started = time.monotonic()
    budgets = _budgets_from(args)
    resume = None
    if args.resume:
        with open(args.resume) as fh:
            resume = json.load(fh)
    result = tower.run_tower(args.m, args.n, budgets, resume=resume)
    audit = None
    if args.audit:
        audit = tower.audit_tower(result, budgets)
    report = tower.build_report(result, budgets, audit=audit)
    report["execution"] = _execution_block(started)

    if result.checkpoint is not None and args.checkpoint:
        with open(args.checkpoint, "w") as fh:
            json.dump(result.checkpoint, fh, indent=2, sort_keys=True)

    lines = [
        f"tower m={args.m} n={args.n}: {result.status.value}",
        "periods: " + (", ".join(result.period_texts()) or "(none)"),
    ]
    if result.order is not None:
        lines.append(f"order {result.order}, exponent {result.exponent}")
    for note in result.notes:
        lines.append(f"note: {note}")
    if audit is not None:
        lines.append(f"audit: {audit['agreement']} "
                     f"({sum(audit['checks'].values())} checks)")
    if result.checkpoint is not None and args.checkpoint:
        lines.append(f"checkpoint written to {args.checkpoint}")
    _emit(report, "\n".join(lines) + "\n", args)

    if audit is not None and audit["disagreements"]:
        return EXIT_ERROR
    if result.status is TowerStatus.ORACLE_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_DEFINITIVE


# --- coset -------------------------------------------------------------------


def cmd_coset(args) -> int:
    started = time.monotonic()
    p = load_presentation(args.presentation)
    subgroup = []
    if args.subgroup:
        for text in args.subgroup.split(","):
            w = parse_word(text.strip(), p.rank)
            if not w:
                raise _CliError("subgroup generators must be nonempty")
            subgroup.append(w)
    budget = (cosets.DEFAULT_MAX_COSETS if args.max_cosets is None
              else args.max_cosets)
    table = cosets.enumerate_cosets(p, subgroup, budget)
    report = {
        "schema": "burnside/coset-report/1",
        "config": {
            "presentation": str(p),
            "subgroup": [format_word(w, p.rank) for w in subgroup],
            "max_cosets": budget,
            "order": ORDER_ID,
        },
        "status": table.status,
        "num_cosets": table.num_cosets,
        "defined_total": table.defined_total,
        "execution": _execution_block(started),
    }
    if table.closed and args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write(cosets.export_csv(table))
    if table.closed:
        what = "index" if subgroup else "order"
        summary = f"closed: {what} {table.num_cosets} " \
                  f"({table.defined_total} cosets defined)\n"
    else:
        # a run ends short of its budget only at the table's cell cap
        limit = (f"budget {budget}" if table.defined_total == budget else
                 f"the cap of {cosets.MAX_COSET_CELLS} table cells")
        summary = f"exhausted at {limit} " \
                  f"({table.defined_total} cosets defined)\n"
    if table.closed and args.table_out:
        summary += f"table written to {args.table_out}\n"
    _emit(report, summary, args)
    return EXIT_DEFINITIVE if table.closed else EXIT_INCONCLUSIVE


# --- order -------------------------------------------------------------------


def cmd_order(args) -> int:
    started = time.monotonic()
    p = load_presentation(args.presentation)
    w = parse_word(args.word, p.rank)
    if not w:
        raise _CliError("word must be nonempty (it reduced to the identity)")
    budgets = _budgets_from(args, ORDER_BUDGETS)
    verdict = oracle.element_order(oracle.StageContext(p, budgets), w)
    report = {
        "schema": "burnside/order-report/3",
        "config": {
            "presentation": str(p),
            "word": format_word(w, p.rank),
            "budgets": budgets.to_dict(),
            "order": ORDER_ID,
        },
        "verdict": verdict.log_entry(format_word(w, p.rank)),
        "execution": _execution_block(started),
    }
    if verdict.kind == "infinite":
        ok, reason = subgrp.verify_certificate(verdict.certificate,
                                               budgets.max_kernel_index)
        if not ok:
            raise _CliError(f"certificate replay failed: {reason}")
        if args.certificate:
            with open(args.certificate, "w") as fh:
                json.dump(verdict.certificate.to_json_dict(), fh, indent=2,
                          sort_keys=True)
    if verdict.kind == "finite":
        summary = f"finite: order {verdict.order}\n"
    elif verdict.kind == "infinite":
        summary = "infinite order (certificate verified)\n"
        if args.certificate:
            summary += f"certificate written to {args.certificate}\n"
    else:
        summary = "unknown: budgets exhausted without a verdict\n"
    _emit(report, summary, args)
    return EXIT_DEFINITIVE if verdict.kind != "unknown" else EXIT_INCONCLUSIVE


# --- kb ----------------------------------------------------------------------


def cmd_kb(args) -> int:
    started = time.monotonic()
    if args.count_max_len < 0:
        raise _CliError("--count-max-len must be at least 0")
    p = load_presentation(args.presentation)
    # the count is under 2 * (2 * rank)^len; Python writes at most 4,300 digits
    if args.count_max_len * math.log10(2 * p.rank) >= 4299:
        raise _CliError(f"--count-max-len {args.count_max_len} is too long "
                        f"for rank {p.rank}: the count could not be written")
    budgets = _budgets_from(args, KB_BUDGETS)
    system = rewrite.complete_presentation(
        p, max_rules=budgets.kb_max_rules, max_len=budgets.kb_max_len,
        max_steps=budgets.kb_max_steps)
    report = {
        "schema": "burnside/kb-report/2",
        "config": {
            "presentation": str(p),
            "max_rules": budgets.kb_max_rules,
            "max_len": budgets.kb_max_len,
            "max_steps": budgets.kb_max_steps,
            "order": ORDER_ID,
        },
        "confluent": system.confluent,
        "num_rules": len(system.rules),
        "execution": _execution_block(started),
    }
    summary = (f"{'confluent' if system.confluent else 'budget-exhausted'}: "
               f"{len(system.rules)} rules\n")
    if system.confluent and rewrite.language_infinite(system):
        count, _ = rewrite.count_normal_forms(system, args.count_max_len)
        report["normal_forms_up_to_len"] = {
            "max_len": args.count_max_len, "count": count}
        report["group_infinite"] = True
        summary += (f"normal forms up to length {args.count_max_len}: "
                    f"{count}; language infinite\n")
    elif system.confluent:
        count, _ = rewrite.count_normal_forms(system)
        report["normal_forms"] = count
        report["group_order"] = count
        summary += f"normal forms: {count} (group order {count})\n"
    _emit(report, summary, args)
    return EXIT_DEFINITIVE if system.confluent else EXIT_INCONCLUSIVE


# --- abelian -------------------------------------------------------------------


def cmd_abelian(args) -> int:
    started = time.monotonic()
    p = load_presentation(args.presentation)
    inv = subgrp.abelian_invariants(p)
    report = {
        "schema": "burnside/abelian-report/1",
        "config": {"presentation": str(p), "order": ORDER_ID},
        "torsion": list(inv.torsion),
        "free_rank": inv.free_rank,
        "execution": _execution_block(started),
    }
    parts = [f"Z/{d}" for d in inv.torsion] + ["Z"] * inv.free_rank
    summary = ("abelianization: " + (" + ".join(parts) if parts else "trivial")
               + f" (torsion {list(inv.torsion)}, free rank {inv.free_rank})\n")
    _emit(report, summary, args)
    return EXIT_DEFINITIVE


# --- embed ---------------------------------------------------------------------


def cmd_embed(args) -> int:
    started = time.monotonic()
    with open(args.table) as fh:
        sub = dihedral.FiniteGroupTable.from_csv(fh.read())
    spec = dihedral.DihedralProductSpec(args.n)
    result = dihedral.embed_search(sub, spec, r_max=args.r_max,
                                   budget=args.budget)
    report = {
        "schema": "burnside/embed-report/3",
        "config": {
            "table": args.table,
            "subgroup_order": sub.order,
            "n": args.n,
            "k": spec.k,
            "r_max": args.r_max,
            "budget": args.budget,
        },
        "result": result.to_json_dict(),
        "execution": _execution_block(started),
    }
    if result.status == "embedding":
        summary = (f"embedding found into {result.ambient} "
                   f"({result.nodes} nodes)\n")
    elif result.status == "budget_exceeded":
        summary = f"budget exceeded after {result.nodes} nodes\n"
    else:
        summary = f"no embedding: {result.status} ({result.reason})\n"
    _emit(report, summary, args)
    return (EXIT_INCONCLUSIVE if result.status == "budget_exceeded"
            else EXIT_DEFINITIVE)


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="burnside",
                     description="periodic group engine: inductive "
                                 "construction, order oracles, and "
                                 "finite-structure verification")
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="stdout format (default text)")
    parser.add_argument("--output", help="write the JSON report here")
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("tower", parents=[], help="build B(m, n) by periods")
    t.add_argument("-m", type=int, required=True, help="number of generators")
    t.add_argument("-n", type=int, required=True, help="exponent")
    t.add_argument("--audit", action="store_true",
                   help="re-verify every logged verdict with fresh machinery")
    t.add_argument("--resume", help="tower checkpoint JSON to resume from")
    t.add_argument("--checkpoint", help="where to write a checkpoint if "
                                        "the run is inconclusive")
    _budget_args(t, TOWER_BUDGETS)
    t.set_defaults(func=cmd_tower)

    c = subs.add_parser("coset", help="coset enumeration over a subgroup")
    c.add_argument("presentation", help="presentation file")
    c.add_argument("--subgroup", help="comma-separated subgroup generators")
    c.add_argument("--max-cosets", type=int, default=None)
    c.add_argument("--table-out", help="write the closed table as CSV")
    c.set_defaults(func=cmd_coset)

    o = subs.add_parser("order", help="order of an element")
    o.add_argument("presentation", help="presentation file")
    o.add_argument("word", help="the element, e.g. abA or x1x2X1")
    o.add_argument("--certificate", help="write an infinite-order "
                                         "certificate here when one exists")
    _budget_args(o, ORDER_BUDGETS)
    o.set_defaults(func=cmd_order)

    k = subs.add_parser("kb", help="Knuth-Bendix completion")
    k.add_argument("presentation", help="presentation file")
    k.add_argument("--count-max-len", type=int, default=24,
                   help="census cutoff for the normal-form count of an "
                        "infinite language (a finite one is counted whole)")
    _budget_args(k, KB_BUDGETS)
    k.set_defaults(func=cmd_kb)

    a = subs.add_parser("abelian", help="abelian invariants")
    a.add_argument("presentation", help="presentation file")
    a.set_defaults(func=cmd_abelian)

    e = subs.add_parser("embed", help="embedding search into dihedral products")
    e.add_argument("table", help="subgroup multiplication table CSV")
    e.add_argument("-n", type=int, required=True,
                   help="ambient exponent (fixes the dihedral factors)")
    e.add_argument("--r-max", type=int, default=4)
    e.add_argument("--budget", type=int, default=5_000_000)
    e.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, WordSyntaxError, PresentationSyntaxError,
            dihedral.TableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
