"""Per-layer tracing from outside the engine.

Each traced function is replaced, for the traced passes only, by a
wrapper set on its module or class attribute. The engine calls these
functions through that attribute (``kernels.reduce_word``,
``oracle.element_order``, module globals such as ``next_period``), so
every call records a span: name, start, end and parent span. Counts are
read from arguments and return values. Spans stay in memory and are
written out when the run ends.

A function that no longer exists is reported as absent instead of
crashing the run. A function that exists but records no call on a
workload that must exercise it fails the run: that is what a
``from x import f`` binding that goes around the wrapper looks like.
"""

from __future__ import annotations

import functools
import importlib
import time


class Stat:
    __slots__ = ("calls", "busy", "self_", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0  # ns
        self.self_ = 0  # ns, busy minus time covered by child spans
        self.counts: dict = {}

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value


# --- counters: (tracer, stat, args, kwargs, result) -> None ----------------


def _reduce_word(tr, st, args, kwargs, out):
    st.add("letters_in", len(args[1]))
    st.add("letters_out", len(out))


def _build_index(tr, st, args, kwargs, out):
    st.add("rules_indexed", len(args[0]))


def _knuth_bendix(tr, st, args, kwargs, out):
    stats = out.stats
    st.add("rules_generated", stats.get("rules_generated", 0))
    st.add("rules_active", stats.get("rules_active", len(out.rules)))
    st.add("steps", stats.get("steps", 0))
    st.add("budget_hits", 1 if stats.get("budget_hit") else 0)
    st.add("confluent", 1 if out.confluent else 0)


def _finite_order_by_powers(tr, st, args, kwargs, out):
    n_max = args[2] if len(args) > 2 else kwargs["n_max"]
    st.add("powers_tried", n_max if out is None else out)
    st.add("hits", 0 if out is None else 1)


def _enumerate_cosets(tr, st, args, kwargs, out):
    st.add("cosets_defined", out.defined_total)
    st.add("closed", 1 if out.closed else 0)
    st.add("live", out.num_cosets)


def _kernel_certifier(tr, st, args, kwargs, out):
    certifier = args[0]
    st.add("kernel_index", certifier.action.size)
    st.add("schreier_gens", certifier.num_gens)


def _certify(tr, st, args, kwargs, out):
    st.add("hits", 0 if out is None else 1)


def _smith_normal_form(tr, st, args, kwargs, out):
    matrix = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    st.add("cells", len(matrix) * ncols)


def _verify_certificate(tr, st, args, kwargs, out):
    st.add("ok", 1 if out[0] else 0)


def _element_order(tr, st, args, kwargs, out):
    st.add(f"verdict.{out.kind}")
    st.add(f"strategy.{out.evidence.get('strategy')}")
    if tr.inside("tower.next_period"):
        st.add("under_next_period")


def _next_period(tr, st, args, kwargs, out):
    st.add("examined", out.examined)
    st.add("filtered", sum(1 for e in out.log if "filtered" in e))
    # verdicts the scan used: each examined word, plus the Unknown that
    # stopped the rank
    st.add("verdicts_used",
           out.examined + (1 if out.unknown_evidence is not None else 0))


def _embed_search(tr, st, args, kwargs, out):
    st.add("nodes", out.nodes)
    st.add(f"status.{out.status}")


# name -> (module, attribute path, counter)
TARGETS = {
    "kernels.reduce_word": ("burnside.kernels", "reduce_word", _reduce_word),
    "kernels.build_index": ("burnside.kernels", "build_index", _build_index),
    "rewrite.knuth_bendix": ("burnside.rewrite", "knuth_bendix",
                             _knuth_bendix),
    "rewrite.finite_order_by_powers": ("burnside.rewrite",
                                       "finite_order_by_powers",
                                       _finite_order_by_powers),
    "rewrite.count_normal_forms": ("burnside.rewrite", "count_normal_forms",
                                   None),
    "rewrite.language_infinite": ("burnside.rewrite", "language_infinite",
                                  None),
    "cosets.enumerate_cosets": ("burnside.cosets", "enumerate_cosets",
                                _enumerate_cosets),
    "cosets.realize": ("burnside.cosets", "realize", None),
    "subgrp.KernelCertifier": ("burnside.subgrp", "KernelCertifier.__init__",
                               _kernel_certifier),
    "subgrp.KernelCertifier.certify": ("burnside.subgrp",
                                       "KernelCertifier.certify", _certify),
    "subgrp.smith_normal_form": ("burnside.subgrp", "smith_normal_form",
                                 _smith_normal_form),
    "subgrp.verify_certificate": ("burnside.subgrp", "verify_certificate",
                                  _verify_certificate),
    "subgrp.abelian_invariants": ("burnside.subgrp", "abelian_invariants",
                                  None),
    "oracle.element_order": ("burnside.oracle", "element_order",
                             _element_order),
    "oracle.StageContext.infiniteness": ("burnside.oracle",
                                         "StageContext.infiniteness", None),
    "oracle.StageContext.prepare_for_scan": ("burnside.oracle",
                                             "StageContext.prepare_for_scan",
                                             None),
    "tower.next_period": ("burnside.tower", "next_period", _next_period),
    "tower.candidate_filter_reason": ("burnside.tower",
                                      "candidate_filter_reason", None),
    "tower.verify_independence": ("burnside.tower", "verify_independence",
                                  None),
    "tower.audit_tower": ("burnside.tower", "audit_tower", None),
    "dihedral.embed_search": ("burnside.dihedral", "embed_search",
                              _embed_search),
    "dihedral.FiniteGroupTable": ("burnside.dihedral",
                                  "FiniteGroupTable.__init__", None),
    "dihedral.minimal_generating_tuple": ("burnside.dihedral",
                                          "minimal_generating_tuple", None),
}

_TOWER_LAYERS = [
    "kernels.reduce_word", "kernels.build_index", "rewrite.knuth_bendix",
    "rewrite.finite_order_by_powers", "cosets.enumerate_cosets",
    "subgrp.KernelCertifier", "subgrp.KernelCertifier.certify",
    "subgrp.smith_normal_form",
    "subgrp.abelian_invariants", "oracle.element_order",
    "oracle.StageContext.infiniteness",
    "oracle.StageContext.prepare_for_scan", "tower.next_period",
    "tower.candidate_filter_reason",
]
# only a stage that KB completes (the closing stage, the audit's fresh
# stages) reaches the normal-form census; the n = 4 stages never do
_CLOSING_LAYERS = [
    "rewrite.count_normal_forms", "rewrite.language_infinite",
    "cosets.realize",
    "subgrp.verify_certificate", "tower.verify_independence",
    "tower.audit_tower",
]
_EMBED_LAYERS = [
    "dihedral.embed_search", "dihedral.FiniteGroupTable",
    "dihedral.minimal_generating_tuple",
]

# Functions each workload must exercise: zero calls there fails the run.
REQUIRED = {
    "tower-classical": _TOWER_LAYERS + _CLOSING_LAYERS,
    "tower-stretch": _TOWER_LAYERS,
    "embed-q8": _EMBED_LAYERS,
    "smoke": _TOWER_LAYERS + _CLOSING_LAYERS + _EMBED_LAYERS,
}

STRATEGIES = ("trivial-word", "coset-closure", "kb-power",
              "kernel-certificate", "exhausted")
EMBED_STATUSES = ("embedding", "not_found_exhausted", "budget_exceeded",
                  "refuted_structural")


def _layer_metrics():
    """(name, unit) for every per-layer metric, in report order."""
    out = []

    def add(prefix, *fields):
        for field in fields:
            unit = ("1/s" if field.endswith("_per_s") else
                    "s" if field.endswith("_s") else
                    "ratio" if field.endswith(("_frac", "_ratio")) else
                    "count")
            out.append((f"{prefix}.{field}", unit))

    add("kernels.reduce_word", "calls", "letters_in", "letters_out", "busy_s")
    add("kernels.build_index", "calls", "rules_indexed", "busy_s")
    add("rewrite.knuth_bendix", "calls", "busy_s", "self_s",
        "rules_generated", "rules_active", "steps", "budget_hits",
        "confluent_frac")
    add("rewrite.finite_order_by_powers", "calls", "powers_tried", "hits",
        "busy_s")
    add("rewrite.count_normal_forms", "busy_s")
    add("rewrite.language_infinite", "busy_s")
    add("cosets.enumerate_cosets", "calls", "cosets_defined", "closed_frac",
        "live_frac", "cosets_per_s", "busy_s")
    add("cosets.realize", "busy_s")
    add("subgrp.KernelCertifier", "calls", "kernel_index", "schreier_gens",
        "busy_s")
    add("subgrp.KernelCertifier.certify", "calls", "hits", "busy_s")
    add("subgrp.smith_normal_form", "calls", "cells", "busy_s")
    add("subgrp.verify_certificate", "calls", "ok", "busy_s")
    add("subgrp.abelian_invariants", "busy_s")
    add("oracle.element_order", "calls", "busy_s", "self_s",
        *(f"verdict.{k}" for k in ("finite", "infinite", "unknown")),
        *(f"strategy.{s}" for s in STRATEGIES))
    add("oracle.StageContext.infiniteness", "busy_s")
    add("oracle.StageContext.prepare_for_scan", "busy_s")
    add("tower.next_period", "calls", "busy_s", "self_s", "examined",
        "filtered")
    add("tower.candidate_filter_reason", "calls")
    add("tower", "verdicts_used_ratio")
    add("tower.verify_independence", "busy_s")
    add("tower.audit_tower", "busy_s")
    add("dihedral.embed_search", "calls", "nodes", "nodes_per_s", "busy_s",
        *(f"status.{s}" for s in EMBED_STATUSES))
    add("dihedral.FiniteGroupTable", "busy_s")
    add("dihedral.minimal_generating_tuple", "busy_s")
    add("trace", "overhead_ratio", "absent_functions")
    return out


PER_LAYER = _layer_metrics()


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.spans: list = []  # (id, name, start_ns, end_ns, parent id or -1)
        self.stack: list = []  # open spans: [id, child_ns, name]
        self.next_id = 0
        self.absent: list = []
        self._installed: list = []

    def inside(self, name) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def reset(self):
        """Start a new pass: fresh counters, spans kept."""
        self.stats = {name: Stat() for name in TARGETS}

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0, name]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats[name]
                st.calls += 1
                st.busy += dur
                st.self_ += dur - frame[1]
                tracer.spans.append((sid, name, start, end, parent))
            if count is not None:
                count(tracer, tracer.stats[name], args, kwargs, out)
            return out

        return traced

    def install(self):
        for name, (module_name, path, count) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or (owners and attr not in vars(owner)):
                self.absent.append(name)
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def silent(self, workload) -> list:
        """Required functions that exist but recorded no call."""
        return [name for name in REQUIRED.get(workload, ())
                if name not in self.absent and self.stats[name].calls == 0]

    def metrics(self) -> dict:
        """Per-layer values of the current pass; the harness adds
        trace.overhead_ratio, which needs the untraced passes too."""
        s = self.stats
        values = {}
        longest_first = sorted(TARGETS, key=len, reverse=True)
        for metric, _ in PER_LAYER:
            target = next((t for t in longest_first
                           if metric.startswith(t + ".")), None)
            if target is None:
                continue
            st = s[target]
            field = metric[len(target) + 1:]
            if field == "calls":
                values[metric] = st.calls
            elif field == "busy_s":
                values[metric] = st.busy / 1e9
            elif field == "self_s":
                values[metric] = st.self_ / 1e9
            else:
                values[metric] = st.counts.get(field, 0)
        kb = s["rewrite.knuth_bendix"]
        values["rewrite.knuth_bendix.confluent_frac"] = _ratio(
            kb.counts.get("confluent", 0), kb.calls)
        enum = s["cosets.enumerate_cosets"]
        defined = enum.counts.get("cosets_defined", 0)
        values["cosets.enumerate_cosets.closed_frac"] = _ratio(
            enum.counts.get("closed", 0), enum.calls)
        values["cosets.enumerate_cosets.live_frac"] = _ratio(
            enum.counts.get("live", 0), defined)
        values["cosets.enumerate_cosets.cosets_per_s"] = _ratio(
            defined, enum.busy / 1e9)
        embed = s["dihedral.embed_search"]
        values["dihedral.embed_search.nodes_per_s"] = _ratio(
            embed.counts.get("nodes", 0), embed.busy / 1e9)
        values["tower.verdicts_used_ratio"] = _ratio(
            s["tower.next_period"].counts.get("verdicts_used", 0),
            s["oracle.element_order"].counts.get("under_next_period", 0))
        values["trace.absent_functions"] = len(self.absent)
        return values
