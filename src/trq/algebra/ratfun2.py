"""Bivariate rational functions in (z, w), w the base-point variable.

Canonical form: numerator and denominator coprime with the denominator
normalized to lex-leading coefficient 1.  Specialization at rational
points is exact.

Every reduction takes the cofactors that `p2_gcd` returns with the gcd:
`make` keeps num/g and den/g, a sum over denominators d1*g and d2*g
cancels only against g, and a product cancels each numerator against the
other factor's denominator.  No step divides a polynomial again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poly as P
from . import poly2 as P2
from .ratfun import RatFun


@dataclass(frozen=True)
class Rf2:
    num: P2.Poly2
    den: P2.Poly2

    @staticmethod
    def make(num: P2.Poly2, den: P2.Poly2) -> "Rf2":
        if P2.p2_is_zero(den):
            raise ZeroDivisionError("Rf2 with zero denominator")
        if P2.p2_is_zero(num):
            return RF2_ZERO
        if len(den) == 1 and P2.lead_key(den) == (0, 0):
            lc = den[(0, 0)]
            return Rf2(P2.p2_scale(num, 1 / lc), P2.p2_const(1))
        _, num, den = P2.p2_gcd(num, den)
        lc = den[P2.lead_key(den)]
        if lc != 1:
            num = P2.p2_scale(num, 1 / lc)
            den = P2.p2_scale(den, 1 / lc)
        return Rf2(num, den)

    @staticmethod
    def const(v) -> "Rf2":
        v = Fraction(v)
        if not v:
            return RF2_ZERO
        return Rf2(P2.p2_const(v), P2.p2_const(1))

    @staticmethod
    def z() -> "Rf2":
        return Rf2({(1, 0): Fraction(1)}, P2.p2_const(1))

    @staticmethod
    def w() -> "Rf2":
        return Rf2({(0, 1): Fraction(1)}, P2.p2_const(1))

    @staticmethod
    def from_ratfun_z(f: RatFun) -> "Rf2":
        return Rf2(P2.from_z(f.num), P2.from_z(f.den))

    @staticmethod
    def from_ratfun_w(f: RatFun) -> "Rf2":
        return Rf2(P2.from_w(f.num), P2.from_w(f.den))

    def is_zero(self) -> bool:
        return P2.p2_is_zero(self.num)

    def is_const(self) -> bool:
        return P2.deg_z(self.num) <= 0 and P2.deg_w(self.num) <= 0 and self.den == P2.p2_const(1)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not constant")
        return self.num[(0, 0)]

    # arithmetic -----------------------------------------------------------

    def __add__(self, o) -> "Rf2":
        o = rf2(o)
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            return Rf2.make(P2.p2_add(self.num, o.num), self.den)
        g, d1, d2 = P2.p2_gcd(self.den, o.den)
        if g == P2.p2_const(1):
            num = P2.p2_add(P2.p2_mul(self.num, o.den), P2.p2_mul(o.num, self.den))
            den = P2.p2_mul(self.den, o.den)
            if P2.p2_is_zero(num):
                return RF2_ZERO
            lc = den[P2.lead_key(den)]
            if lc != 1:
                num, den = P2.p2_scale(num, 1 / lc), P2.p2_scale(den, 1 / lc)
            return Rf2(num, den)  # coprime by construction
        num = P2.p2_add(P2.p2_mul(self.num, d2), P2.p2_mul(o.num, d1))
        if P2.p2_is_zero(num):
            return RF2_ZERO
        # only the common part g can still cancel
        _, num, g = P2.p2_gcd(num, g)
        den = P2.p2_mul(P2.p2_mul(d1, d2), g)
        lc = den[P2.lead_key(den)]
        if lc != 1:
            num, den = P2.p2_scale(num, 1 / lc), P2.p2_scale(den, 1 / lc)
        return Rf2(num, den)

    __radd__ = __add__

    def __neg__(self) -> "Rf2":
        return Rf2(P2.p2_neg(self.num), self.den)

    def __sub__(self, o) -> "Rf2":
        return self + (-rf2(o))

    def __rsub__(self, o) -> "Rf2":
        return rf2(o) + (-self)

    def __mul__(self, o) -> "Rf2":
        o = rf2(o)
        if self.is_zero() or o.is_zero():
            return RF2_ZERO
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        _, n1, d2 = P2.p2_gcd(n1, d2)
        _, n2, d1 = P2.p2_gcd(n2, d1)
        num, den = P2.p2_mul(n1, n2), P2.p2_mul(d1, d2)
        lc = den[P2.lead_key(den)]
        if lc != 1:
            num, den = P2.p2_scale(num, 1 / lc), P2.p2_scale(den, 1 / lc)
        return Rf2(num, den)  # factors pairwise coprime

    __rmul__ = __mul__

    def __truediv__(self, o) -> "Rf2":
        o = rf2(o)
        if o.is_zero():
            raise ZeroDivisionError
        return Rf2.make(P2.p2_mul(self.num, o.den), P2.p2_mul(self.den, o.num))

    def __rtruediv__(self, o) -> "Rf2":
        return rf2(o) / self

    def __pow__(self, n: int) -> "Rf2":
        if n < 0:
            return Rf2.const(1) / self ** (-n)
        return Rf2.make(P2.p2_pow(self.num, n), P2.p2_pow(self.den, n))

    # calculus and substitution --------------------------------------------

    def deriv_z(self) -> "Rf2":
        return Rf2.make(
            P2.p2_sub(
                P2.p2_mul(P2.p2_deriv_z(self.num), self.den),
                P2.p2_mul(self.num, P2.p2_deriv_z(self.den)),
            ),
            P2.p2_mul(self.den, self.den),
        )

    def deriv_w(self) -> "Rf2":
        return Rf2.make(
            P2.p2_sub(
                P2.p2_mul(P2.p2_deriv_w(self.num), self.den),
                P2.p2_mul(self.num, P2.p2_deriv_w(self.den)),
            ),
            P2.p2_mul(self.den, self.den),
        )

    def swap(self) -> "Rf2":
        """Exchange the two variables."""
        n, d = P2.p2_swap(self.num), P2.p2_swap(self.den)
        lc = d[P2.lead_key(d)]
        if lc != 1:
            n, d = P2.p2_scale(n, 1 / lc), P2.p2_scale(d, 1 / lc)
        return Rf2(n, d)

    def subst_w(self, w0) -> RatFun:
        den = P2.subst_w_const(self.den, w0)
        if P.is_zero(den):
            raise ZeroDivisionError(f"denominator vanishes at base point {w0}")
        return RatFun.make(P2.subst_w_const(self.num, w0), den)

    def eval(self, z0, w0) -> Fraction:
        return self.subst_w(w0).eval(z0)

    def __str__(self) -> str:
        if self.den == P2.p2_const(1):
            return P2.p2_str(self.num)
        return f"({P2.p2_str(self.num)})/({P2.p2_str(self.den)})"


def rf2(v) -> Rf2:
    if isinstance(v, Rf2):
        return v
    if isinstance(v, (int, Fraction)):
        return Rf2.const(v)
    if isinstance(v, RatFun):
        return Rf2.from_ratfun_z(v)
    raise TypeError(f"cannot coerce {type(v)} to Rf2")


RF2_ZERO = Rf2({}, {(0, 0): Fraction(1)})
RF2_ONE = Rf2({(0, 0): Fraction(1)}, {(0, 0): Fraction(1)})
