"""`Factored` against `Rf2`: every operation over a base of forms must give,
once made canonical, the text of the same operation on canonical `Rf2`."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trq.algebra import Factored, FormBase, HSeries, Rf2
from trq.algebra import poly2 as P2

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

Z, W = {(1, 0): 1}, {(0, 1): 1}
Z_MINUS_W = {(1, 0): 1, (0, 1): -1}
QUADRATIC = {(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): -3}  # irreducible: the cubic's (x(z) - x(w))/(z - w)
LINEAR = [Z, W, {(1, 0): 2, (0, 0): -1}, {(0, 1): 3, (0, 0): 1}, Z_MINUS_W]
BASE_FORMS = LINEAR + [QUADRATIC]
OUTSIDE = [{(1, 0): 1, (0, 1): 2, (0, 0): 1}, {(2, 0): 1, (0, 0): 1}]  # z + 2w + 1, z^2 + 1: in no base below
REDUCIBLE = {(2, 0): 1, (0, 2): -1}  # z^2 - w^2 = (z - w)(z + w)
# (x(z) - x(w))/(z - w) for x = z^4: (z + w)(z^2 + w^2)
QUARTIC_QUOTIENT = {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}

_numer = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), min_size=1, max_size=4
).map(lambda d: {k: v for k, v in d.items() if v})


def _rf2_over(forms):
    """Canonical Rf2 with denominators a constant times a product of forms."""
    den = st.tuples(st.integers(1, 3), st.lists(st.sampled_from(forms), max_size=3))
    return st.tuples(_numer, den).map(
        lambda t: Rf2.make(t[0], P2.p2_mul({(0, 0): t[1][0]}, _product(t[1][1]))) if t[0] else Rf2.const(0)
    )


def _product(forms):
    out = {(0, 0): 1}
    for f in forms:
        out = P2.p2_mul(out, f)
    return out


def _same(got, want: Rf2) -> None:
    assert isinstance(got, Factored)
    assert str(got) == str(want)
    assert (got.num, got.den) == (want.num, want.den)


def _lowest(got: Factored, want: Rf2) -> None:
    """Over irreducible, pairwise coprime forms the stored quotient is
    already in lowest terms: it is the canonical form with no gcd."""
    den = got.base.product(got.e) if got.e else {(0, 0): 1}
    assert Rf2(got.n, {k: v * got.c for k, v in den.items()}) == want


def _check_ops(base: FormBase, f: Rf2, g: Rf2, lowest: bool = False) -> None:
    a, b = base.lift(f), base.lift(g)
    pairs = [(a + b, f + g), (a - b, f - g), (a * b, f * g)]
    if not g.is_zero():
        pairs.append((a / b, f / g))
    pairs += [(a.deriv_z(), f.deriv_z()), (a.deriv_w(), f.deriv_w()), (a.swap(), f.swap())]
    pairs.append((a * F(-3, 4) + 2, f * F(-3, 4) + 2))
    for got, want in pairs:
        _same(got, want)
        if lowest:
            _lowest(got, want)


class TestFactoredAgainstRf2:
    @_PROPERTY
    @given(_rf2_over(BASE_FORMS), _rf2_over(BASE_FORMS))
    def test_field_ops_and_derivatives(self, f, g):
        _check_ops(FormBase(BASE_FORMS), f, g, lowest=True)

    @_PROPERTY
    @given(_rf2_over(BASE_FORMS + OUTSIDE), _rf2_over(BASE_FORMS + OUTSIDE))
    def test_divisors_outside_the_base_are_lifted(self, f, g):
        base = FormBase(BASE_FORMS)
        _check_ops(base, f, g)
        # a lifted cofactor joins the base as a form of its own
        assert len(base.forms) >= len(BASE_FORMS)

    @_PROPERTY
    @given(_rf2_over(LINEAR + [REDUCIBLE]), _rf2_over(LINEAR + [REDUCIBLE]))
    def test_a_reducible_form_next_to_its_factor(self, f, g):
        # z^2 - w^2 and z - w are not coprime: denominators need not be
        # minimal, but the canonical form must still be Rf2's
        _check_ops(FormBase([REDUCIBLE] + LINEAR), f, g)

    def test_a_lifted_divisor_grows_the_base_once(self):
        base = FormBase(LINEAR)
        outside = Rf2.make({(0, 0): 1}, OUTSIDE[1])
        a = base.lift(outside)
        assert len(base.forms) == len(LINEAR) + 1
        assert a.e == {len(LINEAR): 1}
        base.lift(outside * Rf2.z())
        assert len(base.forms) == len(LINEAR) + 1


class TestNoGcd:
    def test_arithmetic_takes_no_polynomial_gcd(self, monkeypatch):
        base = FormBase(BASE_FORMS)
        z, w = Rf2.z(), Rf2.w()
        f = base.lift((z * z + w) / ((z - w) ** 2 * (2 * z - 1)))
        g = base.lift((z + 3) / (w * (z - w) * Rf2(QUADRATIC, {(0, 0): 1})))
        monkeypatch.setattr(P2, "p2_gcd", lambda a, b: pytest.fail("p2_gcd called"))
        h = (f + g) * f - g / f
        h = h.deriv_z() + h.deriv_w() * g + h.swap()
        monkeypatch.undo()
        want = (f.rf2() + g.rf2()) * f.rf2() - g.rf2() / f.rf2()
        want = want.deriv_z() + want.deriv_w() * g.rf2() + want.swap()
        _same(h, want)

    def test_a_sum_over_equal_denominators_cancels_its_forms(self):
        base = FormBase(BASE_FORMS)
        z, w = Rf2.z(), Rf2.w()
        a = base.lift(z / ((z - w) * w))
        b = base.lift(-w / ((z - w) * w))
        total = a + b
        assert (total.n, total.c, total.e) == ({(0, 0): 1}, 1, {1: 1})


class TestBoundary:
    def test_comparisons_with_rf2_and_numbers(self):
        base = FormBase(LINEAR)
        z, w = Rf2.z(), Rf2.w()
        f = (z - w) / (2 * z - 1)
        a = base.lift(f)
        assert a == f and f == a and not a != f
        assert a - a == 0 and a != 1
        assert Factored.const(F(2, 3)) == F(2, 3)

    def test_over_two_bases_compares_the_canonical_forms(self):
        z, w = Rf2.z(), Rf2.w()
        f = (z + w) / (z * (z - w))
        assert FormBase(LINEAR).lift(f) == FormBase([Z_MINUS_W, Z]).lift(f)

    def test_a_constant_without_a_base_takes_the_other_base(self):
        base = FormBase(LINEAR)
        a = base.lift(Rf2.const(1) / Rf2.w())
        one = Factored.const(1)
        assert (one * a).base is base and (one + a).base is base
        assert str(a.inverse() * F(1, 2)) == "1/2*w"


_linear_form = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda t: t[0] or t[1]
).map(lambda t: {k: v for k, v in zip(((1, 0), (0, 1), (0, 0)), t) if v})


@st.composite
def _over_linear_forms(draw) -> Factored:
    """n / (c * prod f^e) over a random base of linear forms, as built, not
    reduced: a form of the denominator may divide n, and c may share a
    factor with n's content."""
    base = FormBase()
    for f in draw(st.lists(_linear_form, min_size=1, max_size=4)):
        base.add_poly(f)
    k = len(base.forms)
    e = draw(st.dictionaries(st.integers(0, k - 1), st.integers(1, 2), min_size=1))
    n = draw(_numer.filter(bool))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        n = P2.p2_mul(n, base.forms[i])
    return Factored(base, n, draw(st.integers(1, 6)), e)


def _made(a: Factored) -> Rf2:
    den = a.base.product(a.e) if a.e else {(0, 0): 1}
    return Rf2.make(a.n, {k: v * a.c for k, v in den.items()})


def _gcd_calls(monkeypatch) -> list:
    """The calls of `p2_gcd` from now on, one entry each."""
    calls: list = []
    gcd = P2.p2_gcd
    monkeypatch.setattr(P2, "p2_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    return calls


class TestCanonicalText:
    @_PROPERTY
    @given(_over_linear_forms())
    def test_over_linear_forms_it_is_rf2_make(self, a):
        want = _made(a)
        assert a.rf2() == want and str(a) == str(want)

    @_PROPERTY
    @given(_rf2_over(LINEAR), _rf2_over(LINEAR))
    def test_reduced_over_linear_forms_it_takes_no_gcd(self, f, g):
        base = FormBase(LINEAR)
        a, b = base.lift(f), base.lift(g)
        got = [a + b, a * b, a.deriv_z(), a.deriv_w() - b.swap()]
        if b and b.n.keys() <= {(0, 0), (1, 0), (0, 1)}:
            got.append(a / b)  # a linear numerator: its inverse is over linear forms
        wants = [_made(h) for h in got]
        with pytest.MonkeyPatch.context() as mp:
            calls = _gcd_calls(mp)
            texts = [h.rf2() for h in got]
        assert texts == wants
        assert not calls

    def test_a_reducible_form_keeps_the_gcd(self, monkeypatch):
        base = FormBase([Z_MINUS_W, QUARTIC_QUOTIENT])
        # reduced (the form does not divide z + w), yet not in lowest terms
        a = Factored(base, {(1, 0): 1, (0, 1): 1}, 2, {1: 1})
        calls = _gcd_calls(monkeypatch)
        assert a.rf2() == Rf2.make({(0, 0): 1}, {(2, 0): 2, (0, 2): 2})
        assert calls

    def test_a_linear_form_that_divides_the_numerator_keeps_the_gcd(self, monkeypatch):
        # over z^2 - w^2 beside z - w a sum can leave z - w dividing n
        base = FormBase([Z_MINUS_W, REDUCIBLE])
        a = Factored(base, dict(Z_MINUS_W), 1, {0: 1})
        calls = _gcd_calls(monkeypatch)
        assert a.rf2() == Rf2.const(1)
        assert calls


class TestReflectedOperators:
    def test_a_missing_series_coefficient_over_a_factored(self):
        assert HSeries.make({1: Factored.const(3)}, 2).coeff(2) / Factored.const(2) == 0

    def test_a_number_minus_and_over_a_factored(self):
        base = FormBase(LINEAR)
        z, w = Rf2.z(), Rf2.w()
        f = (z - w) / (2 * z - 1)
        a = base.lift(f)
        _same(1 - a, 1 - f)
        _same(F(3, 2) - a, F(3, 2) - f)
        _same(F(1, 2) / a, F(1, 2) / f)
        _same(2 / a, 2 / f)
        assert (1 - a).base is base
