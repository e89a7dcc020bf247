"""`Sym` arithmetic against sympy, on Laurent polynomials in hbar.  Every
result is compared as a canonical `Sym`, so the shortcuts of the product
(the unit, zero, a plain rational times any scalar), the merge of the sum
and `scale` must return the same terms, in the same order, as the general
product and `Sym.make`, with the same hash.
"""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from trq.operators import OperatorError, Sym

sympy = pytest.importorskip("sympy")

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
H = sympy.symbols("hbar")

_rational = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_laurent = st.dictionaries(st.integers(-3, 3), _rational, max_size=4).map(Sym.make)
_sym = st.one_of(
    _laurent,
    st.just(Sym.const(1)),
    st.just(Sym()),
    _rational.map(Sym.const),
    st.builds(lambda c, e: Sym.hbar(e).scale(c), _rational, st.integers(-2, 2)),
)


def _is_rational(s: Sym) -> bool:
    return len(s.terms) == 1 and not s.terms[0][0]


def assert_normal(s: Sym) -> None:
    """The normal form of the `Sym` docstring: the constant first, then the
    exponents in ascending order, each once, with nonzero coefficients."""
    exps = [e for e, _ in s.terms]
    assert exps == ([0] if 0 in exps else []) + sorted({e for e in exps if e})
    for e, c in s.terms:
        assert type(e) is int and type(c) is F and c


def assert_as_made(s: Sym) -> None:
    """s is normal, and equal, with an equal hash, to the `Sym.make` of its
    terms, and to a copy whose hash is not kept yet."""
    assert_normal(s)
    made = Sym.make(dict(s.terms))
    assert made == s and hash(made) == hash(s)
    assert hash(Sym(tuple(s.terms))) == hash(s)


def to_sympy(s: Sym):
    return sum((sympy.Rational(c.numerator, c.denominator) * H**e for e, c in s.terms), sympy.Integer(0))


def from_sympy(expr) -> Sym:
    d: dict = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        e = int(mono.as_powers_dict().get(H, 0))
        d[e] = d.get(e, 0) + F(int(c.p), int(c.q))
    return Sym.make(d)


@_PROPERTY
@given(_sym, _sym)
def test_product(a, b):
    want = from_sympy(to_sympy(a) * to_sympy(b))
    assert a * b == want and hash(a * b) == hash(want)
    assert b * a == a * b
    assert_as_made(a * b)


@_PROPERTY
@given(_sym, _sym)
def test_sum(a, b):
    assert a + b == from_sympy(to_sympy(a) + to_sympy(b))
    assert a - b == from_sympy(to_sympy(a) - to_sympy(b))
    assert b + a == a + b
    for s in (a + b, a - b, -a):
        assert_as_made(s)


@_PROPERTY
@given(_sym, _rational)
def test_scale(a, v):
    want = from_sympy(to_sympy(a) * sympy.Rational(v.numerator, v.denominator))
    assert a.scale(v) == want and hash(a.scale(v)) == hash(want)
    assert a.scale(v) == a * Sym.const(v) == Sym.const(v) * a
    assert_as_made(a.scale(v))


@_PROPERTY
@given(_sym, st.integers(-3, 3))
def test_power(a, n):
    if n < 0 and len(a.terms) != 1:
        with pytest.raises(OperatorError):
            a.pow(n)
        return
    assert a.pow(n) == from_sympy(to_sympy(a) ** n)
    assert_as_made(a.pow(n))


def test_the_strategy_reaches_a_rational_times_a_sum():
    """The strategy of `test_product` reaches the shortcut for a plain
    rational times a scalar of several terms within the same budget of
    examples."""
    a, b = find(
        st.tuples(_sym, _sym),
        lambda ab: _is_rational(ab[0]) and len(ab[1].terms) > 1,
        settings=settings(_PROPERTY, phases=(Phase.generate,)),
    )
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))
    assert_as_made(a * b)


def test_coefficients_are_fractions_from_every_constructor():
    for s in (
        Sym.make({1: 2, 0: F(1, 2), -1: 0}),
        Sym.const(3),
        Sym.hbar(-2),
        Sym.hbar(0),
        Sym.hbar().scale(4),
        Sym.const(2) * Sym.make({-1: 1, 0: 1}),
    ):
        assert_as_made(s)
    assert Sym.make({1: 2}).terms == ((1, F(2)),)
    assert Sym.const(0) == Sym() and Sym.hbar().scale(0) == Sym()


def test_text_of_the_monomial_form():
    """`repr` writes each term as ((("hbar", e),) or (), coefficient), the
    text of the recorded rs-r3 and rs-r5 check details; `str` is the text
    of every operator."""
    cases = (
        (Sym(), "Sym(terms=())", "0"),
        (Sym.const(1), "Sym(terms=(((), Fraction(1, 1)),))", "1"),
        (Sym.hbar(), "Sym(terms=(((('hbar', 1),), Fraction(1, 1)),))", "hbar"),
        (Sym.hbar(2).scale(F(-1, 16)), "Sym(terms=(((('hbar', 2),), Fraction(-1, 16)),))", "-1/16*hbar^2"),
        (
            Sym.hbar(-1) + Sym.const(3),
            "Sym(terms=(((), Fraction(3, 1)), ((('hbar', -1),), Fraction(1, 1))))",
            "3 + hbar^-1",
        ),
    )
    for s, r, t in cases:
        assert (repr(s), str(s)) == (r, t)


def test_unit_and_zero_are_neutral_and_absorbing():
    s = Sym.make({-1: F(3, 2), 2: F(1, 3), 0: F(-1)})
    assert Sym.const(1) * s is s and s * Sym.const(1) is s
    assert (Sym() * s).is_zero() and (s * Sym()).is_zero()
    assert Sym.const(F(2, 3)) * Sym.const(F(-3, 4)) == Sym.const(F(-1, 2))


@_PROPERTY
@given(_sym, _sym)
def test_unit_is_known_once_per_scalar(a, b):
    # the flag agrees with equality to 1 before and after it is stored, and
    # storing it changes neither equality nor the hash
    for s in (a, b, a * b, a + b):
        h = hash(s)
        assert s.unit == (s == Sym.const(1)) == s.unit
        assert "unit" in vars(s) and hash(s) == h and s == Sym(s.terms)
    assert (Sym.const(F(2, 3)) * Sym.const(F(3, 2))).unit and (Sym.hbar() * Sym.hbar(-1)).unit
    assert not any(s.unit for s in (Sym(), Sym.const(-1), Sym.const(F(1, 2)), Sym.hbar(), Sym.hbar(0).scale(2)))
