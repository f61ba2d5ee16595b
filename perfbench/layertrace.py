"""Per-layer tracing from outside the program.

Wraps the public functions of each tornheim layer, records one span per
call (request id, name, start, end, parent span) in memory, and derives
self time as a span's duration minus that of its child spans.  The
package binds most cross-module functions with `from ... import`, so a
function is replaced under every name in the package that refers to it,
not only in its defining module.  A hook whose target no longer exists
is reported as absent.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import mpmath

MODULES = ("cli", "g2", "pfd", "parity", "arith", "constants", "numeric")

# span name -> (module, function)
HOOKS = {
    "cli.main": ("cli", "main"),
    "g2.evaluate_g2": ("g2", "evaluate_g2"),
    "pfd.reduce_to_tornheim": ("pfd", "reduce_to_tornheim"),
    "pfd.verify_step": ("pfd", "verify_step"),
    "pfd.split_pair": ("pfd", "split_pair"),
    "parity.closed_form": ("parity", "closed_form"),
    "parity.term1_coeff": ("parity", "term1_coeff"),
    "parity.term2_coeff": ("parity", "term2_coeff"),
    "parity.alpha_coeffs": ("parity", "alpha_coeffs"),
    "parity.alpha_tilde_coeffs": ("parity", "alpha_tilde_coeffs"),
    "arith.bernoulli_poly": ("arith", "bernoulli_poly"),
    "constants.reduce_angle": ("constants", "reduce_angle"),
    "constants.to_dirichlet_basis": ("constants", "to_dirichlet_basis"),
    "numeric.lattice_sum": ("numeric", "lattice_sum"),
    "numeric._lattice_pass": ("numeric", "_lattice_pass"),
    "numeric.eval_symbolic": ("numeric", "eval_symbolic"),
    "numeric.eval_constant": ("numeric", "eval_constant"),
    "numeric.check_values": ("numeric", "check_values"),
}

# mpmath context methods whose top-level calls are counted
MP_COUNTED = ("zeta", "psi")


def _closed_form_key(args, kwargs):
    req = args[0] if args else kwargs["req"]
    return (req.a, req.b, req.k1, req.k2, req.k3)


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"tornheim.{m}") for m in MODULES}
        self.package = importlib.import_module("tornheim")
        self.spans: list = []      # (rid, name, start, end, parent index)
        self._stack: list[int] = []
        self.rid = -1
        self.absent: list[str] = []
        self.mp_calls: Counter = Counter()
        self._mp_depth = 0
        self.closed_form_keys: list[tuple] = []
        self.tail_bounds: list = []

    # ------------------------------------------------------------ install

    def install(self):
        namespaces = [self.package, *self.modules.values()]
        for span, (mod, fn) in HOOKS.items():
            target = getattr(self.modules[mod], fn, None)
            if target is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, target)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is target:
                        setattr(ns, name, wrapper)
        for meth in MP_COUNTED:
            setattr(mpmath.mp, meth, self._count_mp(meth, getattr(mpmath.mp, meth)))
        return self

    def _wrap(self, span, target):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = {"parity.closed_form": self._on_closed_form,
                   "numeric.lattice_sum": self._on_lattice_sum}.get(span)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.rid, span, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = target
        return wrapper

    def _count_mp(self, name, method):
        def counted(*args, **kwargs):
            # count only calls made from outside mpmath's own recursion
            if self._mp_depth == 0:
                self.mp_calls[name] += 1
            self._mp_depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self._mp_depth -= 1
        return counted

    def _on_closed_form(self, args, kwargs, result):
        self.closed_form_keys.append(_closed_form_key(args, kwargs))

    def _on_lattice_sum(self, args, kwargs, result):
        self.tail_bounds.append(result[1])

    # ------------------------------------------------------------ results

    def begin(self, rid: int):
        self.rid = rid

    def reset(self):
        """Forget everything recorded so far (used after the warm-up)."""
        self.spans.clear()
        self.mp_calls.clear()
        self.closed_form_keys.clear()
        self.tail_bounds.clear()

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (_, name, start, end, _), children in zip(self.spans, child_time):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - children
        return dict(out)

    def summary(self) -> dict:
        """Additive plain-JSON totals; see merge() and layer_metrics()."""
        keys = self.closed_form_keys
        logs = [float(mpmath.log10(b)) for b in self.tail_bounds if b > 0]
        return {"spans": self.totals(), "absent": self.absent,
                "mp_calls": dict(self.mp_calls),
                "closed_form_calls": len(keys),
                "closed_form_repeats": len(keys) - len(set(keys)),
                "tail_bound_log10_sum": sum(logs),
                "tail_bounds": len(logs)}


def merge(summaries: list) -> dict:
    """Sum the summaries of several traced worker processes."""
    out = {"spans": {}, "absent": summaries[0]["absent"], "mp_calls": Counter()}
    for s in summaries:
        for name, agg in s["spans"].items():
            acc = out["spans"].setdefault(name, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                acc[k] += v
        out["mp_calls"].update(s["mp_calls"])
        for k in ("closed_form_calls", "closed_form_repeats",
                  "tail_bound_log10_sum", "tail_bounds"):
            out[k] = out.get(k, 0) + s[k]
    return out


def layer_metrics(summary: dict, requests: int, wall_s: float,
                  scale: float) -> dict:
    """Per-layer metrics from a Tracer summary: mean busy ms per request,
    multiplied by `scale`, mean counts per request, and shares of the
    traced wall time.  Metrics whose hook is absent are left out."""
    tot = summary["spans"]
    present = {span for span in HOOKS if span not in summary["absent"]}

    def ms(*spans, kind="total_s"):
        if not all(s in present for s in spans):
            return None
        return (sum(tot.get(s, {}).get(kind, 0.0) for s in spans) * scale * 1e3
                / requests)

    def calls(span):
        if span not in present:
            return None
        return tot.get(span, {}).get("calls", 0) / requests

    def share(span):
        if span not in present:
            return None
        return tot.get(span, {}).get("total_s", 0.0) / wall_s

    metrics = {
        "parity.closed_form_ms": ms("parity.closed_form"),
        "parity.term1_ms": ms("parity.term1_coeff"),
        "parity.term2_ms": ms("parity.term2_coeff"),
        "parity.tables_ms": ms("parity.alpha_coeffs", "parity.alpha_tilde_coeffs"),
        "parity.calls": calls("parity.closed_form"),
        "parity.repeat_frac": (
            summary["closed_form_repeats"] / max(summary["closed_form_calls"], 1)
            if "parity.closed_form" in present else None),
        "parity.wall_share": share("parity.closed_form"),
        "arith.bernoulli_poly_calls": calls("arith.bernoulli_poly"),
        "arith.bernoulli_poly_ms": ms("arith.bernoulli_poly"),
        "constants.reduce_angle_calls": calls("constants.reduce_angle"),
        "constants.reduce_angle_ms": ms("constants.reduce_angle"),
        "constants.dirichlet_ms": ms("constants.to_dirichlet_basis"),
        "numeric.oracle_ms": ms("numeric.lattice_sum"),
        "numeric.oracle_calls": calls("numeric.lattice_sum"),
        "numeric.oracle_passes": calls("numeric._lattice_pass"),
        "numeric.oracle_wall_share": share("numeric.lattice_sum"),
        "numeric.mp_zeta_calls": summary["mp_calls"].get("zeta", 0) / requests,
        "numeric.mp_psi_calls": summary["mp_calls"].get("psi", 0) / requests,
        "numeric.tail_bound_log10": (
            summary["tail_bound_log10_sum"] / summary["tail_bounds"]
            if summary["tail_bounds"] else None),
        "numeric.eval_symbolic_ms": ms("numeric.eval_symbolic"),
        "numeric.eval_symbolic_wall_share": share("numeric.eval_symbolic"),
        "numeric.eval_constant_calls": calls("numeric.eval_constant"),
        "numeric.check_ms": ms("numeric.check_values"),
        "pfd.reduce_ms": ms("pfd.reduce_to_tornheim"),
        "pfd.verify_ms": ms("pfd.verify_step"),
        "pfd.steps": calls("pfd.split_pair"),
        "g2.self_ms": ms("g2.evaluate_g2", kind="self_s"),
        "cli.self_ms": ms("cli.main", kind="self_s"),
    }
    return {k: v for k, v in metrics.items() if v is not None}
