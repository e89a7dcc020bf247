"""Per-layer tracing of trq from outside the program.

In the traced child only, `install` replaces public trq functions with
wrappers, in every module that bound them by name.  A timed wrapper records
one span (name, start, end, parent) in memory; a counted wrapper, used for
calls too frequent to time, only counts.  `summary` turns the spans into the
per-layer metrics once, when the workload has finished.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

LAYERS = ("algebra", "curve", "recursion", "wave", "operators", "laplace", "fixtures")
OP_KINDS = ("Scalar", "Gen", "CoordMul", "Add", "Mul", "Pow", "Inv", "Exp", "RatSubst")
TR_CHIS = (1, 2, 3, 4, 5)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.outermost = array("b")  # no enclosing span has the same name
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self.counts: Counter = Counter()

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open_names[nid] == 0)
        self.end.append(0)
        self._open_names[nid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._open_names[self.name_id[sid]] -= 1

    def timed(self, fn, name, after=None):
        """Wrap fn in a span; `name` is a string or a function of the call's
        arguments, `after` sees the result and the arguments."""

        def wrapper(*args, **kw):
            sid = self._open(name(*args, **kw) if callable(name) else name)
            try:
                out = fn(*args, **kw)
            finally:
                self._close(sid)
            if after is not None:
                after(out, *args, **kw)
            return out

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return wrapper

    # --- installing ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the public functions of every trq layer named in the metrics."""
        from trq import curve, fixtures, laplace, operators, recursion, wave
        from trq.algebra import hseries, poly2, ratfun2, series

        modules = [m for n, m in list(sys.modules.items()) if n == "trq" or n.startswith("trq.")]
        modules += list(extra_modules)

        def patch(mod, attr: str, wrapper) -> None:
            orig = getattr(mod, attr)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

        def gcd(a, b):
            if a and b:
                self.counts["algebra.p2_gcd.lookups"] += 1
            return orig_gcd(a, b)

        orig_gcd = poly2.p2_gcd
        patch(poly2, "p2_gcd", self.timed(gcd, "algebra.p2_gcd"))
        patch(poly2, "_p2_gcd_impl", self.counted(poly2._p2_gcd_impl, "algebra.p2_gcd.misses"))
        ratfun2.Rf2.make = staticmethod(self.timed(ratfun2.Rf2.make, "algebra.rf2_make"))
        ls = series.LocalSeries
        ls.__mul__ = self.counted(ls.__mul__, "algebra.series_mul")
        ls.invert = self.timed(ls.invert, "algebra.series_invert")
        ls.compose = self.timed(ls.compose, "algebra.series_compose")
        hseries.HSeries.__mul__ = self.timed(hseries.HSeries.__mul__, "algebra.hseries_mul")

        patch(curve, "galois_series", self.timed(curve.galois_series, "curve.galois_series"))

        def omega_terms(store, *_args) -> None:
            self.counts["recursion.omega_terms"] += sum(len(pd.terms) for pd in store.omegas.values())

        patch(recursion, "run_tr", self.timed(recursion.run_tr, "recursion.run_tr", after=omega_terms))
        patch(recursion, "tr_step", self.timed(
            recursion.tr_step, lambda curve, store, g, n: f"recursion.tr_step.chi{2 * g - 2 + n}"
        ))

        for attr in ("build_wave_data", "check_annihilation", "apply_inverse", "apply_shift"):
            patch(wave, attr, self.timed(getattr(wave, attr), f"wave.{attr}"))
        patch(wave, "evaluate_operator_on", self.timed(
            wave.evaluate_operator_on, lambda op, sym, wd: f"wave.evaluate_operator_on.{type(op).__name__}"
        ))

        for attr in ("simplify", "expand", "xy_dual_rewrite", "sympl_dual_rewrite", "singular_limit"):
            patch(operators, attr, self.timed(getattr(operators, attr), f"operators.{attr}"))
        patch(operators, "op_text", self.counted(operators.op_text, "operators.op_text"))

        patch(laplace, "saddle_expand", self.timed(laplace.saddle_expand, "laplace.saddle_expand"))
        def checks_failed(res, name, **_kw) -> None:
            self.counts[f"fixtures.{name}.checks_failed"] += sum(1 for c in res.checks if not c.passed)

        patch(fixtures, "run_fixture", self.timed(
            fixtures.run_fixture, lambda name, **kw: f"fixtures.{name}", after=checks_failed
        ))

    # --- summarizing -----------------------------------------------------------

    def summary(self, fixture_names) -> dict:
        """Per-layer metrics: `.calls` counts spans or calls, `.s` is the time
        inside outermost spans of a name, `.self_s` excludes child spans."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        for sid in range(n):
            name = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            self_ns[name] += dur - child[sid]
            if self.outermost[sid]:
                incl[name] += dur

        def s(ns: int) -> float:
            return ns / 1e9

        out: dict = {}
        lookups, misses = self.counts["algebra.p2_gcd.lookups"], self.counts["algebra.p2_gcd.misses"]
        out["algebra.p2_gcd.calls"] = calls["algebra.p2_gcd"]
        out["algebra.p2_gcd.s"] = s(incl["algebra.p2_gcd"])
        from trq.algebra import poly2

        cache = getattr(poly2, "_GCD_CACHE", None)
        if cache is not None:  # without the cache the two cache metrics are absent, not 0
            out["algebra.p2_gcd.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
            out["algebra.gcd_cache_entries"] = len(cache)
        out["algebra.rf2_make.calls"] = calls["algebra.rf2_make"]
        out["algebra.rf2_make.s"] = s(incl["algebra.rf2_make"])
        out["algebra.series_mul.calls"] = self.counts["algebra.series_mul"]
        out["algebra.series_invert.calls"] = calls["algebra.series_invert"]
        out["algebra.series_compose.calls"] = calls["algebra.series_compose"]
        out["algebra.series.s"] = s(self_ns["algebra.series_invert"] + self_ns["algebra.series_compose"])
        out["algebra.hseries_mul.calls"] = calls["algebra.hseries_mul"]
        out["algebra.hseries_mul.s"] = s(incl["algebra.hseries_mul"])

        out["curve.galois_series.calls"] = calls["curve.galois_series"]
        out["curve.galois_series.s"] = s(incl["curve.galois_series"])

        out["recursion.run_tr.s"] = s(incl["recursion.run_tr"])
        steps = {name: c for name, c in calls.items() if name.startswith("recursion.tr_step.")}
        out["recursion.tr_step.calls"] = sum(steps.values())
        for chi in TR_CHIS:
            out[f"recursion.tr_step.chi{chi}.s"] = s(incl[f"recursion.tr_step.chi{chi}"])
        out["recursion.omega_terms"] = self.counts["recursion.omega_terms"]

        for attr in ("build_wave_data", "check_annihilation", "apply_inverse", "apply_shift"):
            out[f"wave.{attr}.s"] = s(incl[f"wave.{attr}"])
        for kind in OP_KINDS:
            out[f"wave.evaluate_operator_on.{kind}.self_s"] = s(self_ns[f"wave.evaluate_operator_on.{kind}"])

        out["operators.simplify.calls"] = calls["operators.simplify"]
        out["operators.simplify.s"] = s(incl["operators.simplify"])
        out["operators.op_text.calls"] = self.counts["operators.op_text"]
        for attr in ("expand", "xy_dual_rewrite", "sympl_dual_rewrite", "singular_limit"):
            out[f"operators.{attr}.s"] = s(incl[f"operators.{attr}"])

        out["laplace.saddle_expand.s"] = s(incl["laplace.saddle_expand"])

        for name in fixture_names:
            out[f"fixtures.{name}.s"] = s(incl[f"fixtures.{name}"])
            out[f"fixtures.{name}.checks_failed"] = self.counts[f"fixtures.{name}.checks_failed"]

        layer_self: Counter = Counter()
        for name, ns in self_ns.items():
            layer_self[name.split(".")[0]] += ns
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = s(layer_self[layer])
        return out
