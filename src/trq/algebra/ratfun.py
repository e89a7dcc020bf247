"""Rational functions in one variable over exact rationals.

Canonical form: numerator and denominator coprime, denominator monic,
zero stored as 0/1.  Equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poly as P


@dataclass(frozen=True)
class RatFun:
    num: P.Poly
    den: P.Poly

    @staticmethod
    def make(num, den=P.ONE) -> "RatFun":
        if isinstance(num, (int, Fraction)):
            num = P.const(num)
        if isinstance(den, (int, Fraction)):
            den = P.const(den)
        num = P.poly(num)
        den = P.poly(den)
        if P.is_zero(den):
            raise ZeroDivisionError("rational function with zero denominator")
        if P.is_zero(num):
            return RatFun(P.ZERO, P.ONE)
        g = P.gcd(num, den)
        if P.degree(g) > 0:
            num = P.divexact(num, g)
            den = P.divexact(den, g)
        lc = den[-1]
        if lc != 1:
            num = P.scale(num, 1 / lc)
            den = P.scale(den, 1 / lc)
        return RatFun(num, den)

    @staticmethod
    def const(v) -> "RatFun":
        return RatFun(P.const(v), P.ONE)

    @staticmethod
    def var() -> "RatFun":
        return RatFun(P.X, P.ONE)

    def is_zero(self) -> bool:
        return P.is_zero(self.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_const(self) -> bool:
        return P.degree(self.num) <= 0 and P.degree(self.den) == 0

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num[0] if self.num else Fraction(0)

    def __add__(self, o) -> "RatFun":
        o = _coerce(o)
        return RatFun.make(
            P.add(P.mul(self.num, o.den), P.mul(o.num, self.den)),
            P.mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(P.neg(self.num), self.den)

    def __sub__(self, o) -> "RatFun":
        return self + (-_coerce(o))

    def __rsub__(self, o) -> "RatFun":
        return _coerce(o) + (-self)

    def __mul__(self, o) -> "RatFun":
        o = _coerce(o)
        return RatFun.make(P.mul(self.num, o.num), P.mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, o) -> "RatFun":
        o = _coerce(o)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun.make(P.mul(self.num, o.den), P.mul(self.den, o.num))

    def __rtruediv__(self, o) -> "RatFun":
        return _coerce(o) / self

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return RatFun.const(1) / (self ** (-n))
        return RatFun.make(P.pow_(self.num, n), P.pow_(self.den, n))

    def derivative(self) -> "RatFun":
        return RatFun.make(
            P.sub(
                P.mul(P.derivative(self.num), self.den),
                P.mul(self.num, P.derivative(self.den)),
            ),
            P.mul(self.den, self.den),
        )

    def eval(self, x) -> Fraction:
        d = P.evaluate(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return P.evaluate(self.num, x) / d

    def compose(self, other: "RatFun") -> "RatFun":
        """Substitute another rational function for the variable."""
        n = P.degree(self.num)
        d = P.degree(self.den)
        k = max(n, d, 0)
        num_acc = RatFun.const(0)
        den_acc = RatFun.const(0)
        opow = [RatFun.const(1)]
        for _ in range(k):
            opow.append(opow[-1] * other)
        for i, v in enumerate(self.num):
            if v:
                num_acc = num_acc + opow[i] * v
        for i, v in enumerate(self.den):
            if v:
                den_acc = den_acc + opow[i] * v
        return num_acc / den_acc

    def __str__(self) -> str:
        if self.den == P.ONE:
            return P.to_str(self.num)
        return f"({P.to_str(self.num)})/({P.to_str(self.den)})"


def _coerce(v) -> RatFun:
    if isinstance(v, RatFun):
        return v
    if isinstance(v, (int, Fraction)):
        return RatFun.const(v)
    raise TypeError(f"cannot coerce {type(v)} to RatFun")
