"""Span tracing of hhcert's public functions, from the benchmark's side.

``Tracer.installed`` replaces every ``hhcert.*`` module attribute that is
one of the traced function objects with a wrapper.  The package imports
these functions by name (``chains`` and ``cli`` both do ``from .quadrature
import integrate``), so patching only the defining module would miss most
calls.  A span records its name, start, end, parent, and the tracer's own
time spent inside it, which is left out of every duration.  Spans stay in
memory until the pass ends; ``reduce`` then turns them into the per-layer
metrics.  Self time is a span's duration minus its child spans' durations.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from workloads import fn_from_text

CHAIN_FUNCTIONS = (
    "classical_hh_terms",
    "dragomir_mond_chain",
    "theorem1_chain",
    "theorem2_bound",
    "max_feasible_c",
)
MEANS = ("arithmetic_mean", "geometric_mean", "logarithmic_mean")
HARNESS = ("generate_case", "run_case", "sweep_results", "aggregate_results")

# (defining module, attribute, span name)
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("hhcert.expr", "parse", "expr.parse"),
    ("hhcert.expr", "evaluate_array", "expr.eval_array"),
    ("hhcert.expr", "evaluate", "expr.eval_scalar"),
    ("hhcert.quadrature", "integrate", "quadrature.integrate"),
    ("hhcert.certify", "estimate_modulus", "certify.estimate_modulus"),
    ("hhcert.report", "dumps_canonical", "report.dumps_canonical"),
    ("hhcert.cli", "main", "cli.main"),
) + tuple(("hhcert.means", f, f"means.{f}") for f in MEANS) + tuple(
    ("hhcert.chains", f, f"chains.{f}") for f in CHAIN_FUNCTIONS
) + tuple(("hhcert.harness", f, f"harness.{f}") for f in HARNESS)

# Every per-layer metric, in report order: (name, unit, better).  Self times
# and counts are totals over one traced pass (one cycle of the workload).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("expr.parse.calls", "count", "lower"),
    ("expr.parse.self_s", "s", "lower"),
    ("harness.parses_per_case", "count", "lower"),
    ("expr.eval_array.calls", "count", "lower"),
    ("expr.eval_array.points", "count", "lower"),
    ("expr.eval_array.self_s", "s", "lower"),
    ("expr.eval_array.unique_ratio", "ratio", "higher"),
    ("expr.eval_scalar.calls", "count", "lower"),
    ("quadrature.integrate.calls", "count", "lower"),
    ("quadrature.integrate.self_s", "s", "lower"),
    ("quadrature.panels", "count", "lower"),
    ("quadrature.panels_per_op", "count", "lower"),
    ("quadrature.unconverged", "count", "lower"),
    ("certify.estimate_modulus.calls", "count", "lower"),
    ("certify.estimate_modulus.self_s", "s", "lower"),
    ("certify.triples", "count", "lower"),
    ("certify.overshoot", "count", "lower"),
    ("certify.log_affine_misverdicts", "count", "lower"),
) + tuple(
    (f"chains.{f}.{what}", unit, "lower")
    for f in CHAIN_FUNCTIONS
    for what, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("chains.integrals_per_call", "count", "lower"),
    ("chains.max_feasible_c.certify_calls", "count", "lower"),
    ("means.calls", "count", "lower"),
    ("harness.generate_case.self_s", "s", "lower"),
    ("harness.run_case.self_s", "s", "lower"),
    ("harness.sweep_results.self_s", "s", "lower"),
    ("harness.aggregate_results.self_s", "s", "lower"),
    ("report.dumps_canonical.self_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counts of one traced pass; ``clear`` starts the next."""

    def __init__(self) -> None:
        self._span_names: List[str] = [name for _, _, name in TRACED]
        self._after = {
            "expr.parse": Tracer._after_parse,
            "expr.eval_array": Tracer._after_eval_array,
            "quadrature.integrate": Tracer._after_integrate,
            "certify.estimate_modulus": Tracer._after_estimate_modulus,
            "chains.max_feasible_c": Tracer._after_max_feasible_c,
            "report.dumps_canonical": Tracer._after_dumps_canonical,
        }
        self.clear()

    def clear(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._overhead = 0.0
        self._texts: Dict[int, tuple] = {}  # id(Expression) -> (Expression, source text)
        self._expr_keys: Dict[int, tuple] = {}  # id(Expression) -> (Expression, key)
        self._requests: set = set()

    # ---- patching --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n == "hhcert" or n.startswith("hhcert.")]
        try:
            for idx, (module_name, attr, span) in enumerate(TRACED):
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(idx, original, self._after.get(span))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    def _wrap(self, idx: int, fn, after):
        def traced(*args, **kwargs):
            enter = perf_counter()
            stack = self._stack
            if stack and self.name[stack[-1]] == idx:
                return fn(*args, **kwargs)  # recursion: one span per outermost call
            sid = len(self.name)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.hidden.append(0.0)
            stack.append(sid)
            hidden_before = self._overhead
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                self.hidden[sid] = self._overhead - hidden_before
            if after is not None:
                after(self, args, kwargs, result)
            self._overhead += (t0 - enter) + (perf_counter() - t1)
            return result

        return traced

    # ---- counts taken at span boundaries ---------------------------------

    def _after_parse(self, args, kwargs, result) -> None:
        self._texts[id(result)] = (result, _arg(args, kwargs, 0, "text"))

    def _after_eval_array(self, args, kwargs, result) -> None:
        f = _arg(args, kwargs, 0, "f")
        xs = np.ascontiguousarray(_arg(args, kwargs, 1, "xs"), dtype=float)
        self.counts["expr.eval_array.points"] += xs.size
        if id(f) not in self._expr_keys:
            self._expr_keys[id(f)] = (f, repr(f.root))
        digest = hashlib.blake2b(xs.tobytes(), digest_size=16).digest()
        self._requests.add((self._expr_keys[id(f)][1], xs.shape, digest))

    def _after_integrate(self, args, kwargs, result) -> None:
        self.counts["quadrature.panels"] += result.evaluations // 15
        self.counts["quadrature.unconverged"] += not result.converged

    def _after_estimate_modulus(self, args, kwargs, result) -> None:
        self.counts["certify.triples"] += result.grid_size**3 * (1 + result.refinement_rounds)
        if result.status.value != "certified_positive":
            return
        f = _arg(args, kwargs, 0, "f")
        text = self._texts.get(id(f), (None, ""))[1]
        fn = fn_from_text(text, float(_arg(args, kwargs, 1, "a")), float(_arg(args, kwargs, 2, "b")))
        if fn is not None and result.c_star > fn.local_modulus():
            self.counts["certify.overshoot"] += 1

    def _after_max_feasible_c(self, args, kwargs, result) -> None:
        self.counts["chains.max_feasible_c.returns"] += 1

    def _after_dumps_canonical(self, args, kwargs, result) -> None:
        self.counts["report.bytes"] += len(result.encode("utf-8"))

    # ---- reduction -------------------------------------------------------

    def _under(self, sid: int, ancestors: set) -> bool:
        p = self.parent[sid]
        while p >= 0:
            if self.name[p] in ancestors:
                return True
            p = self.parent[p]
        return False

    def reduce(self, ops: int) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since ``clear``.

        The caller adds the ``trace.*`` pass times.  ``total_self_s`` sums
        every span's self time, for the check against the pass wall time.
        """
        n = len(self.name)
        duration = [self.end[i] - self.start[i] - self.hidden[i] for i in range(n)]
        self_time = list(duration)
        for i in range(n):
            if self.parent[i] >= 0:
                self_time[self.parent[i]] -= duration[i]
        names = self._span_names
        calls: Counter = Counter()
        self_s: Dict[str, float] = {name: 0.0 for name in names}
        for i in range(n):
            calls[names[self.name[i]]] += 1
            self_s[names[self.name[i]]] += self_time[i]

        idx = {name: i for i, name in enumerate(names)}
        chain_ids = {idx[f"chains.{f}"] for f in CHAIN_FUNCTIONS}
        integrate_id, modulus_id = idx["quadrature.integrate"], idx["certify.estimate_modulus"]
        integrals_in_chains = sum(
            1 for i in range(n) if self.name[i] == integrate_id and self._under(i, chain_ids)
        )
        certify_in_maxc = sum(
            1 for i in range(n)
            if self.name[i] == modulus_id and self._under(i, {idx["chains.max_feasible_c"]})
        )
        chain_calls = sum(calls[f"chains.{f}"] for f in CHAIN_FUNCTIONS)
        maxc_returns = self.counts["chains.max_feasible_c.returns"]
        eval_calls = calls["expr.eval_array"]

        m: Dict[str, float] = {
            "expr.parse.calls": calls["expr.parse"],
            "expr.parse.self_s": self_s["expr.parse"],
            "harness.parses_per_case": _ratio(calls["expr.parse"], calls["harness.generate_case"]),
            "expr.eval_array.calls": eval_calls,
            "expr.eval_array.points": self.counts["expr.eval_array.points"],
            "expr.eval_array.self_s": self_s["expr.eval_array"],
            "expr.eval_array.unique_ratio": _ratio(len(self._requests), eval_calls),
            "expr.eval_scalar.calls": calls["expr.eval_scalar"],
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.integrate.self_s": self_s["quadrature.integrate"],
            "quadrature.panels": self.counts["quadrature.panels"],
            "quadrature.panels_per_op": _ratio(self.counts["quadrature.panels"], ops),
            "quadrature.unconverged": self.counts["quadrature.unconverged"],
            "certify.estimate_modulus.calls": calls["certify.estimate_modulus"],
            "certify.estimate_modulus.self_s": self_s["certify.estimate_modulus"],
            "certify.triples": self.counts["certify.triples"],
            "certify.overshoot": self.counts["certify.overshoot"],
        }
        for f in CHAIN_FUNCTIONS:
            m[f"chains.{f}.calls"] = calls[f"chains.{f}"]
            m[f"chains.{f}.self_s"] = self_s[f"chains.{f}"]
        m["chains.integrals_per_call"] = _ratio(integrals_in_chains, chain_calls)
        m["chains.max_feasible_c.certify_calls"] = _ratio(certify_in_maxc, maxc_returns)
        m["means.calls"] = sum(calls[f"means.{f}"] for f in MEANS)
        for f in HARNESS:
            m[f"harness.{f}.self_s"] = self_s[f"harness.{f}"]
        m["report.dumps_canonical.self_s"] = self_s["report.dumps_canonical"]
        m["report.bytes"] = self.counts["report.bytes"]
        m["cli.main.self_s"] = self_s["cli.main"]
        m["total_self_s"] = sum(self_time)
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
