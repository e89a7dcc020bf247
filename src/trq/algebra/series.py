"""Truncated Laurent series with exact coefficients.

`Series` is the one implementation of truncated-series arithmetic: a map
exponent -> nonzero coefficient, exact for exponents <= trunc and unknown
beyond.  Arithmetic never widens the window silently.  Coefficients are
exact ring elements whose truth value says whether they are nonzero
(Fraction, RatFun, Rf2, Factored, WeylPoly); a product keeps the left
factor's coefficients on the left, so noncommuting coefficients are
allowed.

Two subclasses name what the variable is:
- `LocalSeries` (here): the expansion of a rational function in t = z - p
  at a point p, or in w = 1/z at INF, with Fraction coefficients;
- `HSeries` (hseries.py): a series in hbar, or in any other formal
  parameter such as the q of the Hurwitz BCH identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import poly as P
from .ratfun import RatFun

INF = "inf"  # expansion point marker for the w = 1/z chart

_BIG = 10**9
_ZERO = Fraction(0)  # what coeff reads where no coefficient is stored


@dataclass(frozen=True)
class Series:
    coeffs: dict  # exponent -> nonzero coefficient
    trunc: int    # exponents <= trunc are exact

    @classmethod
    def make(cls, coeffs: dict, trunc: int):
        return cls({k: v for k, v in coeffs.items() if k <= trunc and v}, trunc)

    def _like(self, coeffs: dict, trunc: int):
        """A series of the same kind (and point) as self."""
        return type(self)(coeffs, trunc)

    def _check(self, o) -> None:
        """Raise when o cannot be combined with self (never, here)."""

    def coeff(self, k: int):
        if k > self.trunc:
            raise ValueError(f"coefficient {k} beyond truncation {self.trunc}")
        return self.coeffs.get(k, _ZERO)

    def order(self) -> int:
        """Smallest exponent with nonzero coefficient (_BIG when zero)."""
        return min(self.coeffs, default=_BIG)

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, n: int):
        if n >= self.trunc:
            return self
        return self._like({k: v for k, v in self.coeffs.items() if k <= n}, n)

    def __add__(self, o):
        self._check(o)
        t = min(self.trunc, o.trunc)
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            s = out[k] + v if k in out else v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._like({k: v for k, v in out.items() if k <= t}, t)

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()}, self.trunc)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        self._check(o)
        t = min(self.trunc + o.order(), o.trunc + self.order(), _BIG)
        out: dict = {}
        for i, u in self.coeffs.items():
            for j, v in o.coeffs.items():
                k = i + j
                if k <= t:
                    w = u * v
                    if k in out:
                        w = out[k] + w
                    if w:
                        out[k] = w
                    else:
                        out.pop(k, None)
        return self._like(out, t)

    def scale(self, c):
        if not c:
            return self._like({}, self.trunc)
        return self._like({k: v * c for k, v in self.coeffs.items()}, self.trunc)

    def invert(self):
        """Reciprocal; the leading coefficient must be invertible."""
        if not self.coeffs:
            raise ZeroDivisionError("inverting the zero series")
        m = self.order()
        n = self.trunc - 2 * m  # exponents <= n are exact in the result
        if n < -m:
            raise ValueError("insufficient truncation to invert")
        inv0 = Fraction(1) / self.coeffs[m]
        rest = [(k - m, v) for k, v in self.coeffs.items() if k > m]
        b = {0: inv0}  # b[i] is the coefficient of exponent i - m
        for i in range(1, n + m + 1):
            acc = None
            for d, v in rest:
                prev = b.get(i - d) if d <= i else None
                if prev is not None:
                    acc = v * prev if acc is None else acc + v * prev
            if acc is not None:
                val = -(acc * inv0)
                if val:
                    b[i] = val
        return self._like({i - m: v for i, v in b.items()}, n)

    def pow(self, k: int):
        if k < 0:
            return self.invert().pow(-k)
        out = self._like({0: Fraction(1)}, _BIG)
        for _ in range(k):
            out = out * self
        return out

    def _powers(self):
        """self, self^2, ... up to the first power that vanishes in the
        window; each product stops at exponent trunc."""
        term, cut = self, self.trunc - self.order()
        while term.coeffs:
            yield term
            term = term.truncate(cut) * self

    def exp(self, one):
        """exp(self); needs no exponent below 1.  `one` is the unit of the
        coefficient ring."""
        if self.order() < 1:
            raise ValueError("exp needs a series with only positive exponents")
        out = self._like({0: one}, self.trunc)
        for k, term in enumerate(self._powers(), 1):
            out = out + term.scale(Fraction(1, factorial(k)))
        return out

    def log1p(self):
        """log(1 + self); needs no exponent below 1."""
        if self.order() < 1:
            raise ValueError("log(1+u) needs a series with only positive exponents")
        out = self._like({}, self.trunc)
        for k, term in enumerate(self._powers(), 1):
            out = out + term.scale(Fraction((-1) ** (k + 1), k))
        return out


@dataclass(frozen=True)
class LocalSeries(Series):
    """A Laurent expansion at `point`, a Fraction or INF."""

    point: object

    @staticmethod
    def make(point, coeffs: dict, trunc: int) -> "LocalSeries":
        c = {k: Fraction(v) for k, v in coeffs.items() if v and k <= trunc}
        return LocalSeries(c, trunc, point if point == INF else Fraction(point))

    def _like(self, coeffs: dict, trunc: int) -> "LocalSeries":
        return LocalSeries(coeffs, trunc, self.point)

    def _check(self, o: "LocalSeries") -> None:
        if self.point != o.point:
            raise ValueError("series at different points")

    def compose(self, g: "LocalSeries") -> "LocalSeries":
        """Substitute t -> g(t); g must have positive order."""
        if self.order() < 0:
            # Laurent part: handle via inverse powers of g
            regular = self._like({k: v for k, v in self.coeffs.items() if k >= 0}, self.trunc)
            ginv = g.invert()
            out = regular.compose(g)
            for k, v in sorted(self.principal_part().items()):
                out = out + ginv.pow(-k).scale(v)
            return out
        if g.is_zero():
            return g._like({0: self.coeffs[0]} if self.coeffs.get(0) else {}, g.trunc)
        if g.order() < 1:
            raise ValueError("composition needs positive-order inner series")
        t = min(self.trunc * max(g.order(), 1), g.trunc)
        acc = g._like({}, t)
        gp = g._like({0: Fraction(1)}, _BIG)
        # no power of g beyond the last stored coefficient is read
        top = max(self.coeffs, default=0)
        for k in range(0, top + 1):
            v = self.coeffs.get(k)
            if v:
                acc = acc + gp.scale(v).truncate(t)
            if k < top:
                gp = (gp * g).truncate(t)
        return acc.truncate(t)

    def derivative(self) -> "LocalSeries":
        return self._like({k - 1: v * k for k, v in self.coeffs.items() if k}, self.trunc - 1)

    def principal_part(self) -> dict:
        """Exponent -> coefficient for all exponents < 0."""
        return {k: v for k, v in self.coeffs.items() if k < 0}


def series_at(f: RatFun, p, k_max: int) -> LocalSeries:
    """Laurent expansion of f at z = p (or at infinity), exact to k_max."""
    if not isinstance(f, RatFun):
        raise TypeError(f"cannot expand {type(f)}")
    if p == INF:
        # f(1/w) = w^(db-dn) * rev(num)(w)/rev(den)(w)
        d = P.degree(f.den) - P.degree(f.num)
        g = RatFun.make(P.poly(list(reversed(f.num))), P.poly(list(reversed(f.den))))
        base = series_at(g, 0, k_max - d)
        return LocalSeries.make(INF, {k + d: v for k, v in base.coeffs.items()}, k_max)
    p = Fraction(p)
    shifted = dict(enumerate(P.shift(f.num, p)))
    if f.den == P.ONE:
        # a polynomial (a canonical denominator is monic): the shift alone
        return LocalSeries.make(p, shifted, k_max)
    num = LocalSeries.make(p, shifted, _BIG)
    den = LocalSeries.make(p, dict(enumerate(P.shift(f.den, p))), _BIG)
    m = den.order()  # den = t^m u(t), u(0) != 0
    return (num * den.truncate(max(k_max, -m) + 2 * m).invert()).truncate(k_max)
