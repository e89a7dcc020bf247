"""`Sym` arithmetic against sympy, on Laurent polynomials in hbar and one
named parameter a.  Every result is compared as a canonical `Sym`, so the
shortcuts of the product (the unit, zero, two plain rationals) must return
the same terms, in the same order, as the general product."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trq.operators import OperatorError, Sym

sympy = pytest.importorskip("sympy")

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
A, H = sympy.symbols("a hbar")
_NAMES = (("a", A), ("hbar", H))

_rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_laurent = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda ij: (("a", ij[0]), ("hbar", ij[1]))),
    _rational,
    max_size=4,
).map(Sym.make)
_sym = st.one_of(
    _laurent,
    st.just(Sym.const(1)),
    st.just(Sym()),
    _rational.map(Sym.const),
    st.builds(lambda c, e: Sym.hbar(e).scale(c), _rational, st.integers(-2, 2)),
)


def to_sympy(s: Sym):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(dict(_NAMES)[n] ** e for n, e in m))
         for m, c in s.terms),
        sympy.Integer(0),
    )


def from_sympy(expr) -> Sym:
    d: dict = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        key = tuple((name, int(powers.get(sym, 0))) for name, sym in _NAMES)
        d[key] = d.get(key, 0) + F(int(c.p), int(c.q))
    return Sym.make(d)


@_PROPERTY
@given(_sym, _sym)
def test_product(a, b):
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))
    assert b * a == a * b


@_PROPERTY
@given(_sym, _sym)
def test_sum(a, b):
    assert a + b == from_sympy(to_sympy(a) + to_sympy(b))
    assert a - b == from_sympy(to_sympy(a) - to_sympy(b))


@_PROPERTY
@given(_sym, st.integers(-3, 3))
def test_power(a, n):
    if n < 0 and len(a.terms) != 1:
        with pytest.raises(OperatorError):
            a.pow(n)
        return
    assert a.pow(n) == from_sympy(to_sympy(a) ** n)


def test_unit_and_zero_are_neutral_and_absorbing():
    s = Sym.make({(("a", -1), ("hbar", 2)): F(3, 2), (): F(-1)})
    assert Sym.const(1) * s is s and s * Sym.const(1) is s
    assert (Sym() * s).is_zero() and (s * Sym()).is_zero()
    assert Sym.const(F(2, 3)) * Sym.const(F(-3, 4)) == Sym.const(F(-1, 2))
