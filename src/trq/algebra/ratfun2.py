"""Bivariate rational functions in (z, w), w the base-point variable.

Canonical form: numerator and denominator are polynomials over Z, coprime
in Z[z, w] (their integer contents included), and the denominator has a
positive lex-leading coefficient.  `make`, `const` and the `from_ratfun`
lifts clear rational coefficients once, on entry; every other operation
works on Python ints.  `str` divides both by the denominator's leading
coefficient, so the text is that of the lex-monic form over Q.
Specialization at rational points is exact.

Every reduction takes the cofactors that `p2_gcd` returns with the gcd:
`make` keeps num/g and den/g, a sum over denominators d1*g and d2*g
cancels only against g, a product cancels each numerator against the
other factor's denominator, and a derivative divides d' by gcd(d, d')
instead of squaring d.  No step divides a polynomial again.

`Rf2` is the canonical text, the lift of outside input and the reference
of the tests, not a working form: every bivariate function that `trq`
computes with is a `forms.Factored`, over the forms the curve gives, and
takes no gcd.  The gcds left are where canonical text is made over a
nonlinear form, `Factored.rf2` (a prefactor key, a failure text, a
comparison with an `Rf2` or across two form bases), and in `Rf2`
arithmetic as a reference.
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
        _, num, den = P2.p2_gcd(*P2.p2_clear(num, den))
        return _signed(num, den)

    @staticmethod
    def const(v) -> "Rf2":
        v = Fraction(v)
        if not v:
            return RF2_ZERO
        return Rf2({(0, 0): v.numerator}, {(0, 0): v.denominator})

    @staticmethod
    def z() -> "Rf2":
        return Rf2({(1, 0): 1}, {(0, 0): 1})

    @staticmethod
    def w() -> "Rf2":
        return Rf2({(0, 1): 1}, {(0, 0): 1})

    @staticmethod
    def from_ratfun_z(f: RatFun) -> "Rf2":
        # coprime over Q with a monic denominator: coprime over Z once cleared
        return Rf2(*P2.p2_clear(P2.from_z(f.num), P2.from_z(f.den)))

    @staticmethod
    def from_ratfun_w(f: RatFun) -> "Rf2":
        return Rf2(*P2.p2_clear(P2.from_w(f.num), P2.from_w(f.den)))

    def is_zero(self) -> bool:
        return P2.p2_is_zero(self.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_const(self) -> bool:
        return self.num.keys() <= {(0, 0)} and self.den.keys() == {(0, 0)}

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not constant")
        return Fraction(self.num.get((0, 0), 0), self.den[(0, 0)])

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
        num = P2.p2_add(P2.p2_mul(self.num, d2), P2.p2_mul(o.num, d1))
        if P2.p2_is_zero(num):
            return RF2_ZERO
        # only the common part g can still cancel
        _, num, g = P2.p2_gcd(num, g)
        return Rf2(num, P2.p2_mul(P2.p2_mul(d1, d2), g))

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
        for f, u in ((self, o), (o, self)):  # a product by +-1 needs no gcd
            if u.den == _UNIT:
                if u.num == _UNIT:
                    return f
                if u.num == _MINUS_UNIT:
                    return -f
        _, n1, d2 = P2.p2_gcd(self.num, o.den)
        _, n2, d1 = P2.p2_gcd(o.num, self.den)
        return Rf2(P2.p2_mul(n1, n2), P2.p2_mul(d1, d2))  # factors pairwise coprime

    __rmul__ = __mul__

    def __truediv__(self, o) -> "Rf2":
        o = rf2(o)
        if o.is_zero():
            raise ZeroDivisionError
        return self * _signed(o.den, o.num)

    def __rtruediv__(self, o) -> "Rf2":
        return rf2(o) / self

    def __pow__(self, n: int) -> "Rf2":
        if n < 0:
            return Rf2.const(1) / self ** (-n)
        return Rf2(P2.p2_pow(self.num, n), P2.p2_pow(self.den, n))  # powers of coprimes

    # calculus and substitution --------------------------------------------

    def deriv_z(self) -> "Rf2":
        return self._quotient_rule(P2.p2_deriv_z)

    def deriv_w(self) -> "Rf2":
        return self._quotient_rule(P2.p2_deriv_w)

    def _quotient_rule(self, deriv) -> "Rf2":
        """(n/e)' = (n'*(e/g) - n*(e'/g)) / (e*(e/g)) with g = gcd(e, e')."""
        n, e = self.num, self.den
        _, q, r = P2.p2_gcd(e, deriv(e))
        return Rf2.make(P2.p2_sub(P2.p2_mul(deriv(n), q), P2.p2_mul(n, r)), P2.p2_mul(e, q))

    def swap(self) -> "Rf2":
        """Exchange the two variables."""
        return _signed(P2.p2_swap(self.num), P2.p2_swap(self.den))

    def subst_w(self, w0) -> RatFun:
        den = P2.subst_w_const(self.den, w0)
        if P.is_zero(den):
            raise ZeroDivisionError(f"denominator vanishes at base point {w0}")
        return RatFun.make(P2.subst_w_const(self.num, w0), den)

    def eval(self, z0, w0) -> Fraction:
        return self.subst_w(w0).eval(z0)

    def __str__(self) -> str:
        lc = Fraction(self.den[P2.lead_key(self.den)])
        num = P2.p2_str({k: v / lc for k, v in self.num.items()})
        if self.den.keys() == {(0, 0)}:
            return num
        return f"({num})/({P2.p2_str({k: v / lc for k, v in self.den.items()})})"


def _signed(num: P2.Poly2, den: P2.Poly2) -> Rf2:
    """num/den, coprime over Z, with the sign put on the numerator."""
    if den[P2.lead_key(den)] < 0:
        return Rf2(P2.p2_neg(num), P2.p2_neg(den))
    return Rf2(num, den)


def rf2(v) -> Rf2:
    if isinstance(v, Rf2):
        return v
    if isinstance(v, (int, Fraction)):
        return Rf2.const(v)
    if isinstance(v, RatFun):
        return Rf2.from_ratfun_z(v)
    raise TypeError(f"cannot coerce {type(v)} to Rf2")


RF2_ZERO = Rf2({}, {(0, 0): 1})
_UNIT, _MINUS_UNIT = {(0, 0): 1}, {(0, 0): -1}
