"""Truncated Laurent series in a local coordinate, exact coefficients.

A LocalSeries knows its expansion point (a rational, or INF for the chart
w = 1/z), its coefficients, and the truncation order: coefficients for
exponents <= trunc are exact, anything beyond is unknown.  Arithmetic
never widens the window silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import poly as P
from .ratfun import RatFun

INF = "inf"  # expansion point marker for the w = 1/z chart

_BIG = 10**9


@dataclass(frozen=True)
class LocalSeries:
    point: object                  # Fraction or INF
    coeffs: dict = field(default_factory=dict)  # exp -> Fraction, nonzero
    trunc: int = 0                 # exponents <= trunc are exact

    @staticmethod
    def make(point, coeffs: dict, trunc: int) -> "LocalSeries":
        c = {k: Fraction(v) for k, v in coeffs.items() if v and k <= trunc}
        return LocalSeries(point if point == INF else Fraction(point), c, trunc)

    def coeff(self, k: int) -> Fraction:
        if k > self.trunc:
            raise ValueError(f"coefficient {k} beyond truncation {self.trunc}")
        return self.coeffs.get(k, Fraction(0))

    def order(self) -> int:
        """Smallest exponent with nonzero coefficient (_BIG when zero)."""
        return min(self.coeffs, default=_BIG)

    def is_zero(self) -> bool:
        return not self.coeffs

    def residue(self) -> Fraction:
        return self.coeff(-1)

    def truncate(self, n: int) -> "LocalSeries":
        if n >= self.trunc:
            return self
        return LocalSeries(self.point, {k: v for k, v in self.coeffs.items() if k <= n}, n)

    def _check(self, o: "LocalSeries") -> None:
        if self.point != o.point:
            raise ValueError("series at different points")

    def __add__(self, o: "LocalSeries") -> "LocalSeries":
        self._check(o)
        t = min(self.trunc, o.trunc)
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LocalSeries(self.point, {k: v for k, v in out.items() if k <= t}, t)

    def __neg__(self) -> "LocalSeries":
        return LocalSeries(self.point, {k: -v for k, v in self.coeffs.items()}, self.trunc)

    def __sub__(self, o: "LocalSeries") -> "LocalSeries":
        return self + (-o)

    def __mul__(self, o: "LocalSeries") -> "LocalSeries":
        self._check(o)
        if self.is_zero() or o.is_zero():
            t = min(self.trunc + o.order(), o.trunc + self.order())
            return LocalSeries(self.point, {}, min(t, _BIG))
        t = min(self.trunc + o.order(), o.trunc + self.order())
        out: dict = {}
        for i, u in self.coeffs.items():
            for j, v in o.coeffs.items():
                k = i + j
                if k <= t:
                    s = out.get(k, Fraction(0)) + u * v
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return LocalSeries(self.point, out, t)

    def scale(self, c) -> "LocalSeries":
        c = Fraction(c)
        if not c:
            return LocalSeries(self.point, {}, self.trunc)
        return LocalSeries(self.point, {k: v * c for k, v in self.coeffs.items()}, self.trunc)

    def invert(self) -> "LocalSeries":
        """Reciprocal; the series must be nonzero with known leading term."""
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero series")
        m = self.order()
        a0 = self.coeffs[m]
        n = self.trunc - 2 * m  # exponents <= n valid in the result
        if n < -m:
            raise ValueError("insufficient truncation to invert")
        inv: dict = {}
        # u = self / (a0 t^m) has constant term 1; invert by recurrence
        u = {k - m: v / a0 for k, v in self.coeffs.items()}
        order = n + m  # series order needed for the unit part
        b = [Fraction(0)] * (order + 1)
        b[0] = Fraction(1)
        for i in range(1, order + 1):
            s = Fraction(0)
            for j in range(1, i + 1):
                uj = u.get(j, Fraction(0))
                if uj:
                    s += uj * b[i - j]
            b[i] = -s
        for i, v in enumerate(b):
            if v:
                inv[i - m] = v / a0
        return LocalSeries(self.point, inv, n)

    def pow(self, k: int) -> "LocalSeries":
        if k < 0:
            return self.invert().pow(-k)
        out = LocalSeries(self.point, {0: Fraction(1)}, _BIG)
        for _ in range(k):
            out = out * self
        return out

    def compose(self, g: "LocalSeries") -> "LocalSeries":
        """Substitute t -> g(t); g must have positive order."""
        if not self.is_zero() and self.order() < 0:
            # Laurent part: handle via inverse powers of g
            principal = LocalSeries(self.point, {k: v for k, v in self.coeffs.items() if k < 0}, -1)
            regular = LocalSeries(self.point, {k: v for k, v in self.coeffs.items() if k >= 0}, self.trunc)
            ginv = g.invert()
            out = regular.compose(g)
            for k, v in sorted(principal.coeffs.items()):
                out = out + ginv.pow(-k).scale(v)
            return out
        if g.is_zero():
            return LocalSeries(g.point, {0: self.coeffs.get(0, Fraction(0))} if self.coeffs.get(0) else {}, g.trunc)
        if g.order() < 1:
            raise ValueError("composition needs positive-order inner series")
        t = min(self.trunc * max(g.order(), 1), g.trunc)
        acc = LocalSeries(g.point, {}, t)
        gp = LocalSeries(g.point, {0: Fraction(1)}, _BIG)
        for k in range(0, self.trunc + 1):
            v = self.coeffs.get(k, Fraction(0))
            if v:
                acc = acc + gp.scale(v).truncate(t)
            if k < self.trunc:
                gp = (gp * g).truncate(t)
        return acc.truncate(t)

    def derivative(self) -> "LocalSeries":
        return LocalSeries(
            self.point,
            {k - 1: v * k for k, v in self.coeffs.items() if k},
            self.trunc - 1,
        )

    def principal_part(self) -> dict:
        """Exponent -> coefficient for all exponents < 0."""
        return {k: v for k, v in self.coeffs.items() if k < 0}

    def __str__(self) -> str:
        if not self.coeffs:
            return f"O(t^{self.trunc + 1})"
        parts = [f"{v}*t^{k}" for k, v in sorted(self.coeffs.items())]
        return " + ".join(parts) + f" + O(t^{self.trunc + 1})"


def series_at(f, p, k_max: int) -> LocalSeries:
    """Laurent expansion of a RatFun (or the rational part machinery of a
    LogRat, see curve helpers) at z = p (or at infinity), exact to k_max."""
    if isinstance(f, RatFun):
        if p == INF:
            return _ratfun_series_inf(f, k_max)
        return _ratfun_series(f, Fraction(p), k_max)
    # LogRat: only expandable if no log argument vanishes at p
    from .lograt import LogRat

    if isinstance(f, LogRat):
        for c, arg in f.logs:
            if p == INF:
                raise ValueError("logarithmic term cannot be expanded at infinity")
            if P.evaluate(arg, Fraction(p)) == 0:
                raise ValueError(
                    f"logarithmic singularity at {p}: expand the derivative instead"
                )
        base = _ratfun_series(f.rat, Fraction(p), k_max) if p != INF else _ratfun_series_inf(f.rat, k_max)
        # finite log values are transcendental; only derivative data is exact,
        # so a direct expansion is refused when any log term is present
        if f.logs or f.const_logs:
            raise ValueError("series of a LogRat with log terms is not rational")
        return base
    raise TypeError(f"cannot expand {type(f)}")


def _ratfun_series(f: RatFun, p: Fraction, k_max: int) -> LocalSeries:
    num = P.shift(f.num, p)
    den = P.shift(f.den, p)
    k = 0
    while P.is_zero(P.poly(den[:1])) and den:
        den = den[1:]
        k += 1
    # den = t^k * u(t), u(0) != 0
    if P.is_zero(P.poly(num)) :
        return LocalSeries(p, {}, k_max)
    order = k_max + k
    u0 = den[0]
    b = [Fraction(0)] * (order + 1)
    b[0] = 1 / u0
    for i in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            s += den[j] * b[i - j]
        b[i] = -s / u0
    out: dict = {}
    for i, nv in enumerate(num):
        if nv:
            for j, bv in enumerate(b):
                if bv and i + j - k <= k_max:
                    key = i + j - k
                    out[key] = out.get(key, Fraction(0)) + nv * bv
    return LocalSeries(p, {a: v for a, v in out.items() if v}, k_max)


def _ratfun_series_inf(f: RatFun, k_max: int) -> LocalSeries:
    """Expansion in w = 1/z at w = 0."""
    # f(1/w) = num(1/w)/den(1/w) = w^(db-dn) * rev(num)/rev(den)
    dn, db = P.degree(f.num), P.degree(f.den)
    rn = P.poly(list(reversed(f.num)))
    rd = P.poly(list(reversed(f.den)))
    g = RatFun.make(rn, rd)
    base = _ratfun_series(g, Fraction(0), k_max - (db - dn))
    return LocalSeries(INF, {k + db - dn: v for k, v in base.coeffs.items() if k + db - dn <= k_max}, k_max)


def residue_at(f: RatFun, p) -> Fraction:
    """Coefficient of 1/(z-p) in the expansion at p; 0 at regular points."""
    if p == INF:
        # res of f dz at infinity: f(1/w)(-1/w^2)dw, so -[w^1] f(1/w)
        s = _ratfun_series_inf(f, 1)
        return -s.coeffs.get(1, Fraction(0))
    s = _ratfun_series(f, Fraction(p), 0)
    return s.coeffs.get(-1, Fraction(0))
