"""`Factored` against `Rf2`: every operation over a base of forms must give,
once made canonical, the text of the same operation on canonical `Rf2`."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trq.algebra import Factored, FormBase, Rf2
from trq.algebra import poly2 as P2

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

Z, W = {(1, 0): 1}, {(0, 1): 1}
Z_MINUS_W = {(1, 0): 1, (0, 1): -1}
QUADRATIC = {(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): -3}  # irreducible: the cubic's (x(z) - x(w))/(z - w)
LINEAR = [Z, W, {(1, 0): 2, (0, 0): -1}, {(0, 1): 3, (0, 0): 1}, Z_MINUS_W]
BASE_FORMS = LINEAR + [QUADRATIC]
OUTSIDE = [{(1, 0): 1, (0, 1): 2, (0, 0): 1}, {(2, 0): 1, (0, 0): 1}]  # z + 2w + 1, z^2 + 1: in no base below
REDUCIBLE = {(2, 0): 1, (0, 2): -1}  # z^2 - w^2 = (z - w)(z + w)

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
