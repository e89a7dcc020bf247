import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trq.algebra import (
    HSeries,
    LocalSeries,
    LogRat,
    RatFun,
    Rf2,
    series_at,
)
from trq.algebra import poly as P
from trq.algebra import poly2 as P2
from trq.algebra.series import INF


def rf(num, den=(1,)):
    return RatFun.make(P.poly(num), P.poly(den))


def rand_ratfun(rng, deg=3):
    while True:
        num = P.poly([F(rng.randint(-5, 5)) for _ in range(deg + 1)])
        den = P.poly([F(rng.randint(-5, 5)) for _ in range(deg + 1)])
        if not P.is_zero(den):
            return RatFun.make(num, den)


class TestPolyCoefficients:
    def test_poly_and_scale_give_tuples_of_fractions(self):
        got = [
            P.poly([1, 2, 0]),
            P.poly((F(1, 2), 3)),
            P.scale([1, 2], 3),
            P.scale([1, F(2)], 1),
            P.scale((F(1), F(2)), 2),
            P.scale(P.poly([1, 2]), F(-1, 2)),
        ]
        for p in got:
            assert type(p) is tuple and all(type(v) is F for v in p)
        assert got[0] == (F(1), F(2)) and got[2] == (F(3), F(6)) and got[3] == (F(1), F(2))

    def test_scale_by_one_returns_its_operand(self):
        p = P.poly([1, -2, 3])
        assert P.scale(p, 1) is p and P.scale(p, F(1)) is p
        assert P.scale(p, 0) == P.ZERO and P.scale(p, -1) == P.neg(p)


class TestRatFun:
    def test_canonical_zero(self):
        assert rf([0], [3]).num == ()
        assert rf([0], [3]).den == (F(1),)

    def test_monic_denominator(self):
        f = rf([1], [2, 4])  # 1/(2+4z)
        assert f.den[-1] == 1

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(40):
            f, g = rand_ratfun(rng), rand_ratfun(rng)
            assert (f + g) - g == f
            if not g.is_zero():
                assert (f * g) / g == f

    def test_compose(self):
        f = rf([0, 1])  # z
        g = rf([1, 0, 1])  # 1 + z^2
        assert g.compose(f) == g
        h = rf([0, 1], [1, 1])  # z/(1+z)
        assert h.compose(h) == rf([0, 1], [1, 2])


class TestSeriesAt:
    def test_geometric(self):
        # 1/(1-z) at 0 to order 3
        s = series_at(rf([1], [1, -1]), 0, 3)
        assert [s.coeff(k) for k in range(4)] == [1, 1, 1, 1]

    def test_partial_fraction_pole(self):
        # (2z+1)/(z^2+z) = 1/z + 1/(z+1)
        s = series_at(rf([1, 2], [0, 1, 1]), 0, 0)
        assert s.coeff(-1) == 1
        assert s.coeff(0) == 1

    def test_lograt_derivative_expansion(self):
        # d/dz [log z - z^3] = 1/z - 3z^2 expanded at 2
        f = LogRat.make(rf([0, 0, 0, -1]), [(1, rf([0, 1]))])
        d = f.derivative()
        assert d == rf([1, 0, -3, 0], [0, 1]) or d == rf([1], [0, 1]) + rf([0, 0, -3])
        s = series_at(d, 2, 2)
        # oracle: direct polynomial expansion of 1/z - 3z^2 at z=2
        assert s.coeff(0) == F(1, 2) - 12
        assert s.coeff(1) == F(-1, 4) - 12
        assert s.coeff(2) == F(1, 8) - 3

    def test_lograt_value_expansion_refused(self):
        f = LogRat.make(rf([0]), [(1, rf([0, 1]))])
        with pytest.raises(TypeError):
            series_at(f, 0, 2)

    def test_infinity_chart(self):
        # z^2/(z-1) at infinity: w^-2/(1/w... ) = 1/w + 1 + w + ...
        s = series_at(rf([0, 0, 1], [-1, 1]), INF, 2)
        assert s.coeff(-1) == 1
        assert s.coeff(0) == 1
        assert s.coeff(1) == 1

    def test_recomposition_random_points(self):
        rng = random.Random(3)
        f = rf([1, 2, 3], [0, 0, 1, 1])  # pole at 0 (order 2) and -1
        s = series_at(f, 0, 6)
        pp = s.principal_part()
        reg = RatFun.make(f.num, f.den)
        for k, v in pp.items():
            reg = reg - RatFun.const(v) / rf([0, 1]) ** (-k)
        for _ in range(20):
            x = F(rng.randint(1, 60), rng.randint(1, 9))
            total = reg.eval(x) + sum(v * x**k for k, v in pp.items())
            assert total == f.eval(x)


def residue(f: RatFun, p) -> F:
    return series_at(f, p, -1).coeff(-1)


def principal_parts(f: RatFun) -> RatFun:
    """The sum of the principal parts of f at its rational poles."""
    out = RatFun.const(0)
    for p, _m in P.rational_roots(f.den):
        for k, v in series_at(f, p, -1).principal_part().items():
            out = out + RatFun.const(v) / (RatFun.var() - p) ** (-k)
    return out


class TestResidues:
    def test_simple(self):
        assert residue(rf([1, 2], [0, 1, 1]), 0) == 1

    def test_residueless_double_pole(self):
        assert residue(rf([1], [9, -6, 1]), 3) == 0

    def test_derivative_residueless(self):
        rng = random.Random(11)
        for _ in range(25):
            f = rand_ratfun(rng)
            roots = P.rational_roots(f.den)
            for p, _m in roots:
                assert residue(f.derivative(), p) == 0


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = rf([1], [-1, 0, 1])
        assert series_at(f, 1, -1).principal_part() == {-1: F(1, 2)}
        assert series_at(f, -1, -1).principal_part() == {-1: F(-1, 2)}
        assert principal_parts(f) == f

    def test_polynomial_part(self):
        f = rf([0, 0, 1], [-1, 1])
        assert series_at(f, 1, -1).principal_part() == {-1: F(1)}
        assert f - principal_parts(f) == rf([1, 1])

    def test_recompose(self):
        rng = random.Random(5)
        for _ in range(10):
            poles = sorted({F(rng.randint(-3, 3)) for _ in range(3)})
            den = P.ONE
            for p in poles:
                den = P.mul(den, P.pow_((-p, F(1)), rng.randint(1, 2)))
            num = P.poly([F(rng.randint(-4, 4)) for _ in range(len(den))])
            f = RatFun.make(num, den)
            if f.is_zero():
                continue
            polynomial, _ = P.divmod_(f.num, f.den)
            assert RatFun.make(polynomial) + principal_parts(f) == f


class TestHSeries:
    def test_mul_truncated(self):
        a = HSeries.make({0: F(1), 1: F(1)}, 2)
        b = HSeries.make({0: F(1), 1: F(-1)}, 2)
        assert (a * b).coeffs == {0: F(1), 2: F(-1)}

    def test_invert(self):
        a = HSeries.make({0: F(2), 1: F(1)}, 2)
        inv = a.invert()
        assert inv.coeffs == {0: F(1, 2), 1: F(-1, 4), 2: F(1, 8)}

    def test_exp(self):
        c = F(3, 2)
        a = HSeries.make({1: c}, 3)
        e = a.exp(F(1))
        assert e.coeffs == {0: F(1), 1: c, 2: c**2 / 2, 3: c**3 / 6}

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            HSeries.make({0: F(1), 1: F(1)}, 2).exp(F(1))

    def test_ring_laws_random(self):
        rng = random.Random(2)

        def rand_h():
            return HSeries.make({k: F(rng.randint(-3, 3)) for k in range(4)}, 3)

        for _ in range(30):
            a, b, c = rand_h(), rand_h(), rand_h()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_invert_leading_shift(self):
        a = HSeries.make({1: F(2), 2: F(1)}, 5)
        inv = a.invert()
        assert (a * inv).coeffs == {0: F(1)}

    def test_rf2_coefficients(self):
        z = Rf2.z()
        a = HSeries.make({0: Rf2.const(1), 1: z}, 2)
        b = a.invert()
        assert (a * b).coeffs == {0: Rf2.const(1)}


class TestRf2:
    def test_normalization(self):
        z, w = Rf2.z(), Rf2.w()
        f = (z * z - w * w) / (z - w)
        assert f == z + w

    def test_specialize(self):
        z, w = Rf2.z(), Rf2.w()
        f = (z + w) / (z - w)
        g = f.subst_w(F(2))
        assert g.eval(3) == 5

    def test_swap_and_parity(self):
        z, w = Rf2.z(), Rf2.w()
        f = (z - w) / (z * w + 1)
        assert f.swap() == -f
        # the swapped denominator w - z leads with -z: the sign moves up
        g = 1 / (2 * z - 2 * w)
        assert g.swap() == -g

    def test_random_field_ops(self):
        rng = random.Random(13)

        def rand2():
            n = {(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-3, 3)) for _ in range(3)}
            d = {(rng.randint(0, 1), rng.randint(0, 1)): F(rng.randint(1, 3)) for _ in range(2)}
            return Rf2.make({k: v for k, v in n.items() if v}, d)

        for _ in range(25):
            f, g = rand2(), rand2()
            assert (f + g) - g == f
            if not g.is_zero():
                assert (f * g) / g == f

    def test_deriv_matches_specialized(self):
        z, w = Rf2.z(), Rf2.w()
        f = (z * z * w + 1) / (z - w)
        fz = f.deriv_z()
        assert fz.subst_w(F(3)) == f.subst_w(F(3)).derivative()

    def test_str_is_the_lex_monic_text(self):
        # non-unit integer leading coefficients and rational inputs
        z, w = Rf2.z(), Rf2.w()
        cases = [
            ((z * z + w) / (2 * z - w), "(1/2*z^2 + 1/2*w)/(z + -1/2*w)"),
            ((z + w) / 2, "1/2*z + 1/2*w"),
            ((3 * z - 6 * w) / (-4 * z * w + 2), "(-3/4*z + 3/2*w)/(z*w + -1/2)"),
            (
                Rf2.from_ratfun_z(rf([F(1, 3), 0, F(2, 5)], [F(-7, 2), F(3, 4)])),
                "(8/15*z^2 + 4/9)/(z + -14/3)",
            ),
            (
                ((F(2, 3) * z + w) ** 2 / (F(5, 7) * w - 3 * z)).deriv_z(),
                "(-4/27*z^2 + 40/567*z*w + 83/189*w^2)/(z^2 + -10/21*z*w + 25/441*w^2)",
            ),
            (((z - 2 * w) / (6 * w * w + 4)).swap(), "(-1/3*z + 1/6*w)/(z^2 + 2/3)"),
            (-(z / 3 - F(1, 2)), "-1/3*z + 1/2"),
            (Rf2.const(F(-3, 4)), "-3/4"),
            (Rf2.const(0), "0"),
        ]
        for f, text in cases:
            assert str(f) == text


class TestLogRat:
    def test_derivative_examples(self):
        # log z - z^3
        f = LogRat.make(rf([0, 0, 0, -1]), [(1, rf([0, 1]))])
        assert f.derivative() == rf([1], [0, 1]) - rf([0, 0, 3])
        # log(1 - z/A) - log(1 - A z), A = 2
        A = F(2)
        g = LogRat.make(rf([0]), [(1, rf([1, -1 / A])), (-1, rf([1, -A]))])
        expect = rf([-1 / A], [1, -1 / A]) - rf([-A], [1, -A])
        assert g.derivative() == expect
        # z^2
        assert LogRat.from_ratfun(rf([0, 0, 1])).derivative() == rf([0, 2])

    def test_argument_normalization(self):
        # log(2z - 4) = log 2 + log(z - 2)
        f = LogRat.make(rf([0]), [(1, rf([-4, 2]))])
        assert f.logs == ((F(1), (F(-2), F(1))),)
        assert f.const_logs == ((F(1), F(2)),)

    def test_cancellation(self):
        f = LogRat.make(rf([0]), [(1, rf([0, 1])), (-1, rf([0, 1]))])
        assert not f.has_logs()


# Bounded and derandomized so that tier-1 time and outcome stay fixed.
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_wide = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**15))
_coeff = st.one_of(_small, _wide)


def _poly_st(max_len):
    return st.lists(_coeff, max_size=max_len).map(P.poly)


def _to_sympy(sp, p):
    return sp.Poly([sp.Rational(v.numerator, v.denominator) for v in reversed(p)] or [0], sp.Symbol("x"), domain=sp.QQ)


def _from_sympy(p) -> tuple:
    return P.ZERO if p.is_zero else tuple(F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _sympy_gcd(sp, a, b):
    g = sp.gcd(_to_sympy(sp, a), _to_sympy(sp, b))
    return P.ZERO if g.is_zero else _from_sympy(g.monic())


class TestPolyGcd:
    @_PROPERTY
    @given(_poly_st(5), _poly_st(5), _poly_st(3))
    def test_common_factor(self, f, h, g):
        sp = pytest.importorskip("sympy")
        a, b = P.mul(f, g), P.mul(h, g)
        d = P.gcd(a, b)
        assert d == P.gcd(b, a)
        assert d == _sympy_gcd(sp, a, b)
        if not a and not b:
            assert d == P.ZERO
            return
        assert d[-1] == 1
        assert all(type(v) is F for v in d)
        for p in (a, b):
            assert P.divmod_(p, d)[1] == P.ZERO
        assert P.divmod_(d, g)[1] == P.ZERO

    @_PROPERTY
    @given(_poly_st(6), _poly_st(6))
    def test_random_pairs(self, a, b):
        sp = pytest.importorskip("sympy")
        assert P.gcd(a, b) == _sympy_gcd(sp, a, b)

    def test_zero_and_constants(self):
        assert P.gcd(P.ZERO, P.ZERO) == P.ZERO
        assert P.gcd(P.ZERO, P.poly([F(2, 3), 4])) == P.poly([F(1, 6), 1])
        assert P.gcd(P.poly([F(-7, 5)]), P.poly([1, 2, 3])) == P.ONE
        assert P.gcd(P.ZERO, P.poly([F(-7, 5)])) == P.ONE
        big = F(1, 10**40 + 7)
        assert P.gcd(P.poly([-big, big]), P.poly([-1, 0, 1])) == P.poly([-1, 1])


_nonzero = _coeff.filter(bool)
# every kind of divisor euclidean division meets: ONE, monic, non-monic, a
# constant other than 1, and (at lengths up to 7) one of higher degree than
# a dividend of length up to 5
_divisor = st.one_of(
    st.just(P.ONE),
    _poly_st(4).map(lambda p: p + (F(1),)),
    st.tuples(_poly_st(4), _nonzero).map(lambda t: t[0] + (t[1],)),
    _nonzero.map(P.const),
    st.tuples(st.lists(_coeff, min_size=5, max_size=6), _nonzero).map(lambda t: P.poly(t[0] + [t[1]])),
)


class TestPolyDivmod:
    @_PROPERTY
    @given(st.one_of(st.just(P.ZERO), _poly_st(5)), _divisor)
    def test_matches_sympy_division_over_qq(self, a, b):
        sp = pytest.importorskip("sympy")
        q, r = P.divmod_(a, b)
        want_q, want_r = sp.div(_to_sympy(sp, a), _to_sympy(sp, b))
        assert (q, r) == (_from_sympy(want_q), _from_sympy(want_r))
        for p in (q, r):
            assert type(p) is tuple and all(type(v) is F for v in p) and (not p or p[-1] != 0)
        assert P.degree(r) < P.degree(b)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            P.divmod_(P.poly([1, 2]), P.ZERO)
        with pytest.raises(ZeroDivisionError):
            P.divmod_(P.ZERO, P.ZERO)


def _series_at_by_composition(f, p, k_max):
    """`series_at` at a finite point as it read while every expansion took a
    series product: both parts shifted by `P.compose`, the numerator times
    the inverse of the denominator."""
    shift = (F(p), F(1))
    num = LocalSeries.make(p, dict(enumerate(P.compose(f.num, shift))), 10**9)
    den = LocalSeries.make(p, dict(enumerate(P.compose(f.den, shift))), 10**9)
    m = den.order()
    return (num * den.truncate(max(k_max, -m) + 2 * m).invert()).truncate(k_max)


# points a/b with b > 1 as often as not
_point = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


class TestTaylorShift:
    @_PROPERTY
    @given(_poly_st(7), _point)
    def test_shift_matches_composition(self, a, p):
        got = P.shift(a, p)
        assert got == P.compose(a, (p, F(1)))
        assert all(type(v) is F for v in got)

    @_PROPERTY
    @given(_poly_st(6), _coeff.filter(bool), _point, st.integers(-1, 8))
    def test_polynomial_expansion_matches_the_product(self, a, c, p, k_max):
        f = RatFun.make(a, P.poly([c]))
        got = series_at(f, p, k_max)
        assert got == _series_at_by_composition(f, p, k_max)
        assert got.trunc == k_max
        # at infinity z^i is w^-i
        assert series_at(f, INF, k_max) == LocalSeries.make(INF, {-i: v / c for i, v in enumerate(a)}, k_max)

    @_PROPERTY
    @given(_poly_st(4), st.lists(_small, min_size=2, max_size=4).filter(lambda d: any(d[1:])), _point)
    def test_rational_expansion_matches_the_product(self, a, d, p):
        f = RatFun.make(a, P.poly(d))
        assert series_at(f, p, 5) == _series_at_by_composition(f, p, 5)

    def test_random_points(self):
        rng = random.Random(11)
        for _ in range(200):
            a = P.poly([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 8))])
            p = F(rng.randint(-30, 30), rng.randint(1, 15))
            assert P.shift(a, p) == P.compose(a, (p, F(1)))


def _poly2_st(max_deg, coeff=_small):
    keys = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(keys, coeff, max_size=4).map(lambda d: {k: F(v) for k, v in d.items() if v})


# a common factor of positive degree in both z and w
_factor2 = st.tuples(_poly2_st(1), st.integers(1, 2), st.integers(1, 2), _small.filter(bool)).map(
    lambda t: P2.p2_add(t[0], {(t[1], t[2]): t[3]})
)
_huge = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
_monomial = st.tuples(st.integers(0, 3), st.integers(0, 3), _coeff.filter(bool)).map(
    lambda t: {(t[0], t[1]): t[2]}
)
_w_only = _poly_st(3).filter(lambda p: P.degree(p) >= 1).map(P2.from_w)

# the remainder sequence, taken before any test replaces it: the oracle
_REMAINDER_GCD = P2._prs_gcd


def _sympy2(sp, p, domain="QQ"):
    z, w = sp.symbols("z w")
    terms = [sp.Rational(v.numerator, v.denominator) * z**i * w**j for (i, j), v in p.items()]
    return sp.Poly(sp.Add(*terms), z, w, domain=domain)


def _from_sympy2(p) -> P2.Poly2:
    return {k: F(int(c.p), int(c.q)) for k, c in p.terms() if c}


def _no_fallback(a, b):
    raise AssertionError(f"GCDHEU fell back on {a}, {b}")


def _cleared(p: P2.Poly2) -> P2.Poly2:
    """p times the lcm of its denominators: integer, content kept."""
    d = lcm(*[v.denominator for v in p.values()])
    return {k: int(v * d) for k, v in p.items()}


def _scaled(p: P2.Poly2, c) -> P2.Poly2:
    return {k: v * c for k, v in p.items()}


def _content(*ps: P2.Poly2) -> int:
    return gcd(*[v for p in ps for v in p.values()])


def _positive(p: P2.Poly2) -> P2.Poly2:
    return p if not p or p[P2.lead_key(p)] > 0 else P2.p2_neg(p)


def _check_p2_gcd(a, b, factor=None):
    """The checks below on a and b with their denominators cleared, on the
    heuristic alone and on the fallback alone, each with an empty cache.
    The fallback alone also meets the swapped pair, and must give the
    swapped gcd, so both choices of its main variable are checked."""
    a, b = _cleared(a), _cleared(b)
    for attr, value in (("_prs_gcd", _no_fallback), ("_HEU_TRIES", 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(P2, attr, value)
            mp.setattr(P2, "_GCD_CACHE", {})
            g = _check_p2_gcd_path(a, b, factor)
            if attr == "_HEU_TRIES":
                swapped = P2.p2_swap(a), P2.p2_swap(b), factor and P2.p2_swap(factor)
                assert _check_p2_gcd_path(*swapped) == _positive(P2.p2_swap(g))


def _check_p2_gcd_path(a, b, factor):
    """The gcd of a and b, after the checks."""
    sp = pytest.importorskip("sympy")
    g, qa, qb = P2.p2_gcd(a, b)
    if not a and not b:
        assert (g, qa, qb) == ({}, {}, {})
        return g
    assert g[P2.lead_key(g)] > 0
    assert all(type(v) is int for p in (g, qa, qb) for v in p.values())
    assert P2.p2_mul(g, qa) == a and P2.p2_mul(g, qb) == b
    if qa and qb:
        assert _REMAINDER_GCD(qa, qb) == {(0, 0): 1}
        assert _content(qa, qb) == 1
        # the remainder sequence gives the primitive part of the gcd
        assert g == _scaled(_REMAINDER_GCD(a, b), gcd(_content(a), _content(b)))
    else:
        assert (P2.deg_z(qa or qb), P2.deg_w(qa or qb)) == (0, 0)
    # over ZZ sympy's gcd also carries the content gcd, with either sign
    ref = _from_sympy2(sp.gcd(_sympy2(sp, a, "ZZ"), _sympy2(sp, b, "ZZ")))
    assert g == _positive(ref)
    if factor and a and b:
        assert _sympy2(sp, g).rem(_sympy2(sp, factor)).is_zero
    return g


class TestPoly2Gcd:
    @_PROPERTY
    @given(_poly2_st(2), _poly2_st(2), _factor2)
    def test_common_factor(self, f, h, g):
        _check_p2_gcd(P2.p2_mul(f, g), P2.p2_mul(h, g), g)

    @_PROPERTY
    @given(_poly2_st(3), _poly2_st(3))
    def test_random_pairs(self, a, b):
        _check_p2_gcd(a, b)

    @_PROPERTY
    @given(_poly2_st(2, _huge), _poly2_st(2, _huge), _factor2)
    def test_huge_coefficients(self, f, h, g):
        # numerators and denominators up to 10^40
        g = _scaled(g, F(10**40 + 7, 10**39 + 1))
        _check_p2_gcd(P2.p2_mul(f, g), P2.p2_mul(h, g), g)

    @_PROPERTY
    @given(_poly2_st(2), _poly2_st(2), _w_only)
    def test_gcd_in_w_only(self, f, h, c):
        _check_p2_gcd(P2.p2_mul(f, c), P2.p2_mul(h, c), c)

    @_PROPERTY
    @given(st.one_of(_coeff.map(lambda v: {(0, 0): v} if v else {}), _monomial), _poly2_st(3))
    def test_zero_constant_and_monomial_operands(self, a, b):
        _check_p2_gcd(a, b)
        _check_p2_gcd(b, a)

    def test_fallback_runs_in_w_when_its_degrees_are_lower(self, monkeypatch):
        # a nonconstant common factor, and w-degrees below the z-degrees
        g = {(2, 1): 3, (1, 0): 2, (0, 1): -1}
        a = P2.p2_mul(g, {(4, 1): 1, (2, 0): 3, (0, 1): -1})
        b = P2.p2_mul(g, {(5, 0): 1, (1, 1): -2, (0, 0): 1})
        assert max(P2.deg_w(a), P2.deg_w(b)) < min(P2.deg_z(a), P2.deg_z(b))
        swaps = []
        swap = P2.p2_swap
        monkeypatch.setattr(P2, "p2_swap", lambda p: swaps.append(p) or swap(p))
        assert P2._prs_gcd(a, b) == g
        assert swaps[:2] == [a, b]
        monkeypatch.setattr(P2, "p2_swap", swap)
        _check_p2_gcd(a, b, g)

    def test_cache_hit_in_either_order(self, monkeypatch):
        monkeypatch.setattr(P2, "_GCD_CACHE", {})
        g = {(1, 1): 1, (0, 0): -2}
        a = P2.p2_mul(g, {(2, 0): 3, (0, 1): 1})
        b = P2.p2_mul(g, {(0, 2): 1, (1, 0): -5})
        first = P2.p2_gcd(a, b)
        assert len(P2._GCD_CACHE) == 1
        first[1][(9, 9)] = 1  # results are copies, not the cached entry
        monkeypatch.setattr(P2, "_p2_gcd_impl", lambda a, b: pytest.fail("cache miss"))
        g1, qa, qb = P2.p2_gcd(a, b)
        assert P2.p2_gcd(b, a) == (g1, qb, qa)
        assert P2.p2_mul(g1, qa) == a and P2.p2_mul(g1, qb) == b

    def test_gcd_of_zeros(self):
        assert P2.p2_gcd({}, {}) == ({}, {}, {})
        b = {(1, 1): 2, (0, 0): -12}
        assert P2.p2_gcd({}, b) == (b, {}, {(0, 0): 1})
        assert P2.p2_gcd(P2.p2_neg(b), {}) == (b, {(0, 0): -1}, {})

    def test_constant_operand_skips_the_cache(self, monkeypatch):
        monkeypatch.setattr(P2, "_GCD_CACHE", {})
        b = {(1, 1): 6, (0, 0): -4}
        assert P2.p2_gcd({(0, 0): -10}, b) == ({(0, 0): 2}, {(0, 0): -5}, {(1, 1): 3, (0, 0): -2})
        assert P2.p2_gcd(b, {(0, 0): 3}) == ({(0, 0): 1}, b, {(0, 0): 3})
        assert P2._GCD_CACHE == {}


# small coefficients, or signed ones with numerators and denominators up to
# 10^40, which make clears to larger integers
_rf2_poly = st.one_of(_poly2_st(2), _poly2_st(2, _huge))
# num*c / den*c with a common factor c (often 1), so that make has to cancel
_rf2 = st.tuples(_rf2_poly, _rf2_poly.filter(bool), st.one_of(st.just({(0, 0): 1}), _factor2)).map(
    lambda t: Rf2.make(P2.p2_mul(t[0], t[2]), P2.p2_mul(t[1], t[2]))
)


def _rf2_sympy(sp, f: Rf2):
    return _sympy2(sp, f.num).as_expr() / _sympy2(sp, f.den).as_expr()


def _check_rf2(sp, f: Rf2, expr) -> None:
    """f is canonical over Z and equals sympy's cancel of expr."""
    z, w = sp.symbols("z w")
    assert all(type(v) is int for p in (f.num, f.den) for v in p.values())
    lcf = f.den[P2.lead_key(f.den)]
    assert lcf > 0 and _content(f.num, f.den) == 1
    if f.num:
        assert _REMAINDER_GCD(f.num, f.den) == {(0, 0): 1}
    num, den = sp.fraction(sp.cancel(expr))
    num, den = sp.Poly(num, z, w, domain=sp.QQ), sp.Poly(den, z, w, domain=sp.QQ)
    lc = den.LC()
    assert (_scaled(f.num, F(1, lcf)), _scaled(f.den, F(1, lcf))) == (
        _from_sympy2(num.quo_ground(lc)),
        _from_sympy2(den.quo_ground(lc)),
    )


class TestRf2Properties:
    @_PROPERTY
    @given(_rf2, _rf2)
    def test_field_ops_match_sympy_cancel(self, f, g):
        sp = pytest.importorskip("sympy")
        ef, eg = _rf2_sympy(sp, f), _rf2_sympy(sp, g)
        _check_rf2(sp, f, ef)
        _check_rf2(sp, f + g, ef + eg)
        _check_rf2(sp, f - g, ef - eg)
        _check_rf2(sp, f * g, ef * eg)
        if not g.is_zero():
            _check_rf2(sp, f / g, ef / eg)

    @_PROPERTY
    @given(_rf2)
    def test_derivatives_and_swap_match_sympy_cancel(self, f):
        sp = pytest.importorskip("sympy")
        z, w = sp.symbols("z w")
        e = _rf2_sympy(sp, f)
        _check_rf2(sp, f.deriv_z(), sp.diff(e, z))
        _check_rf2(sp, f.deriv_w(), sp.diff(e, w))
        _check_rf2(sp, f.swap(), e.subs({z: w, w: z}, simultaneous=True))

    @_PROPERTY
    @given(_rf2, st.sampled_from((1, -1)), st.sampled_from((int, F, Rf2.const)))
    def test_product_by_a_unit_takes_no_gcd(self, f, sign, kind):
        # the result of the general product, which is make's canonical form
        want = Rf2.make(P2.p2_mul(f.num, {(0, 0): sign}), f.den)

        def no_gcd(*_args):
            raise AssertionError("p2_gcd called")

        orig, P2.p2_gcd = P2.p2_gcd, no_gcd
        try:
            got = [f * kind(sign), kind(sign) * f]
        finally:
            P2.p2_gcd = orig
        for g in got:
            assert (g.num, g.den, str(g)) == (want.num, want.den, str(want))

    @_PROPERTY
    @given(_rf2, _rf2)
    def test_field_identities(self, f, g):
        assert (f + g) - g == f
        if not g.is_zero():
            assert (f * g) / g == f


class TestPoly2Subst:
    @_PROPERTY
    @given(_poly2_st(3, _coeff), _coeff)
    def test_matches_termwise_sum(self, a, x):
        out = [F(0)] * 4
        for (i, j), v in a.items():
            out[i] += v * x**j
        assert P2.subst_w_const(a, x) == P.poly(out)


def _series_st(coeff, lo_min=-3, lo_max=2, max_span=6):
    """(coeffs, trunc) of a nonzero truncated series: a nonzero coefficient
    at the lowest exponent lo, then up to max_span more up to trunc."""

    @st.composite
    def build(draw):
        lo = draw(st.integers(lo_min, lo_max))
        rest = draw(st.lists(coeff, max_size=max_span))
        coeffs = {lo: draw(coeff.filter(bool))}
        coeffs.update({lo + 1 + i: v for i, v in enumerate(rest)})
        return coeffs, lo + len(rest)

    return build()


_rf2_small = st.tuples(_poly2_st(1), _poly2_st(1).filter(bool)).map(lambda t: Rf2.make(*t))
# a pole of order 0, 1 or 2 at 0 (cancellation may lower it)
_ratfun_small = st.tuples(
    st.lists(_small, min_size=1, max_size=4).filter(any),
    st.integers(0, 2),
    st.lists(_small, max_size=2),
    _small.filter(bool),
).map(lambda t: RatFun.make(P.poly(t[0]), P.poly([0] * t[1] + t[2] + [t[3]])))
# regular at 0: a nonzero constant term in the denominator
_ratfun_regular = st.tuples(
    st.lists(_small, min_size=1, max_size=3), _small.filter(bool), st.lists(_small, max_size=2)
).map(lambda t: RatFun.make(P.poly(t[0]), P.poly([t[1]] + t[2])))


def _check_inverse(s, one) -> None:
    """s * s^-1 is 1 on the whole window of the product, and inverting
    twice gives s back, window included."""
    inv = s.invert()
    p = s * inv
    assert p.trunc == s.trunc - s.order()
    assert p.coeffs == {0: one}
    assert inv.invert() == s


class TestSeriesProperties:
    @_PROPERTY
    @given(_series_st(_small))
    def test_laurent_inverse(self, cw):
        _check_inverse(LocalSeries.make(F(1, 2), *cw), F(1))

    @_PROPERTY
    @given(_series_st(_small))
    def test_hseries_inverse(self, cw):
        _check_inverse(HSeries.make(*cw), F(1))

    @_PROPERTY
    @given(_series_st(_rf2_small, lo_min=-1, lo_max=1, max_span=3))
    def test_hseries_rf2_inverse(self, cw):
        _check_inverse(HSeries.make(*cw), Rf2.const(1))

    @_PROPERTY
    @given(_ratfun_small, _ratfun_regular, st.integers(1, 2), st.integers(3, 8))
    def test_compose_matches_ratfun_compose(self, f, h, o, n):
        # G(0) = 0 with a zero of order >= o; RatFun.compose shares no code with compose
        g = RatFun.make(P.poly([0] * o + [1])) * h
        try:
            fg = f.compose(g)
        except ZeroDivisionError:
            assume(False)
        lhs = series_at(f, 0, n).compose(series_at(g, 0, n))
        assert lhs == series_at(fg, 0, n).truncate(lhs.trunc)

    @_PROPERTY
    @given(_series_st(_small, lo_min=1, lo_max=2))
    def test_exp_inverts_log1p(self, cw):
        u = HSeries.make(*cw)
        assert u.log1p().exp(F(1)) - HSeries.const(F(1), u.trunc) == u

    @_PROPERTY
    @given(_series_st(_small), _series_st(_small), _series_st(_small))
    def test_ring_laws(self, a, b, c):
        a, b, c = (LocalSeries.make(0, *s) for s in (a, b, c))
        # products of nonzero series have exact windows, so both groupings agree
        assert (a * b) * c == a * (b * c)
        for x, y in ((a * (b + c), a * b + a * c), ((a + b) * c, a * c + b * c)):
            t = min(x.trunc, y.trunc)
            assert x.truncate(t) == y.truncate(t)
