import functools
import re
from fractions import Fraction as F

import pytest

from trq.algebra import INF, HSeries, LogRat, RatFun, Rf2
from trq.algebra import poly as P
from trq.curve import SpectralCurve
from trq.operators import (
    Add,
    Exp,
    Gen,
    Inv,
    Mul,
    OperatorError,
    Pow,
    RatSubst,
    Scalar,
    Sym,
    X,
    X0,
    Y,
    Y0,
    hb,
    mul,
    sc,
    sub,
)
from trq.recursion import run_tr
from trq.wave import (
    Prefactor,
    apply_inverse,
    apply_shift,
    build_wave_data,
    check_annihilation,
    classical_symbol,
    evaluate_operator,
    evaluate_operator_on,
    sym_is_zero,
    sym_unit,
)


def lr(num, den=(1,)):
    return LogRat.from_ratfun(RatFun.make(P.poly(num), P.poly(den)))


def airy_curve():
    return SpectralCurve("airy", lr([0, 0, 1]), lr([0, 1]))


def bessel_curve():
    return SpectralCurve("bessel", lr([0, 0, 1]), lr([1], [0, 1]))


@functools.cache
def store_to_chi3(curve):
    return run_tr(curve(), 3)


@pytest.fixture(scope="module")
def airy_wave():
    return build_wave_data(store_to_chi3(airy_curve), "generic", 4)


class TestStreams:
    def test_y_leading(self, airy_wave):
        # hbar^0 of Y is y(z) = z, kept as the main LogRat
        assert airy_wave.y["z"].rat == RatFun.var()

    def test_h02_airy(self, airy_wave):
        # H_{0,2}(z, w) = (z - w) / (4 z^2 (z + w))
        z, w = Rf2.z(), Rf2.w()
        expect = (z - w) / (Rf2.const(4) * z * z * (z + w))
        assert airy_wave.tail["z"].coeff(1) == expect

    def test_base_swap_parity(self, airy_wave):
        # Y0 coefficient at hbar^j equals (-1)^j * (Y coefficient swapped)
        for j in range(1, 4):
            a = airy_wave.tail["z"].coeffs.get(j, Rf2.const(0))
            b = airy_wave.tail["w"].coeffs.get(j, Rf2.const(0))
            assert b == (a.swap() if j % 2 == 0 else -a.swap()), j

    @pytest.mark.parametrize("p0", [INF, 1, F(-2, 3)], ids=["inf", "1", "-2_3"])
    @pytest.mark.parametrize("curve", [airy_curve, bessel_curve], ids=["airy", "bessel"])
    def test_base_swap_parity_at_frozen_points(self, curve, p0):
        # the same mirror between Y with the base point frozen at p0 and Y0
        # with the main variable frozen at p0
        st = store_to_chi3(curve)
        main = build_wave_data(st, ("main", p0), 4).tail["z"]
        base = build_wave_data(st, ("base", p0), 4).tail["w"]
        assert main.coeffs
        for j in range(1, 5):
            a = main.coeffs.get(j, Rf2.const(0))
            assert base.coeffs.get(j, Rf2.const(0)) == (a.swap() if j % 2 == 0 else -a.swap()), j


class TestGeneratorActions:
    def test_y_on_unit_is_stream(self, airy_wave):
        sym = evaluate_operator(Y, airy_wave)
        (pref, s), = sym.values()
        assert s.coeff(0) == Rf2.z()
        assert s.coeff(1) == airy_wave.tail["z"].coeff(1)

    def test_commutator_main(self, airy_wave):
        com = sub(mul(Y, X), mul(X, Y))
        sym = evaluate_operator(sub(com, hb()), airy_wave)
        ok, w = sym_is_zero(sym)
        assert ok, w

    def test_commutator_base(self, airy_wave):
        com = sub(mul(Y0, X0), mul(X0, Y0))
        sym = evaluate_operator(Add((com, hb())), airy_wave)
        ok, w = sym_is_zero(sym)
        assert ok, w


class TestAnnihilation:
    def test_airy_fraction_form(self, airy_wave):
        # y^2 - x - hbar (y - y0)/(x - x0)
        op = Add((
            Pow(Y, 2),
            Mul((sc(-1), X)),
            Mul((sc(-1), hb(), sub(Y, Y0), Inv(sub(X, X0)))),
        ))
        rep = check_annihilation(op, airy_wave, 4)
        assert rep.passed, rep.summary()

    def test_airy_dual_form(self, airy_wave):
        # (y - hbar/(x-x0))^2 - (x - hbar/(y-y0))
        yy = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        xx = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))
        op = sub(Pow(yy, 2), xx)
        rep = check_annihilation(op, airy_wave, 4)
        assert rep.passed, rep.summary()

    def test_wrong_sign_fails_at_order_one(self, airy_wave):
        op = Add((
            Pow(Y, 2),
            Mul((sc(-1), X)),
            Mul((hb(), sub(Y, Y0), Inv(sub(X, X0)))),
        ))
        rep = check_annihilation(op, airy_wave, 4)
        assert not rep.passed
        assert rep.failures[0][0] == 1

    def test_zero_operator(self, airy_wave):
        rep = check_annihilation(sc(0), airy_wave, 4)
        assert rep.passed


class TestInverse:
    def test_mult_inverse(self, airy_wave):
        sym = evaluate_operator(Inv(sub(X, X0)), airy_wave)
        (p, s), = sym.values()
        z2, w2 = Rf2.z() ** 2, Rf2.w() ** 2
        assert s.coeff(0) == Rf2.const(1) / (z2 - w2)
        assert all(v.is_zero() for k, v in s.coeffs.items() if k >= 1)

    def test_inverse_soundness(self, airy_wave):
        inner = sub(Y, Y0)
        target = evaluate_operator(X, airy_wave)
        inv = apply_inverse(inner, target, airy_wave)
        back = evaluate_operator_on(inner, inv, airy_wave)
        diff = dict(back)
        for k, (p, s) in target.items():
            from trq.wave import sym_insert

            sym_insert(diff, p, -s)
        ok, w = sym_is_zero(diff)
        assert ok, w


class TestShift:
    def test_exact_log_flow(self):
        # x = log z: the flow is multiplicative, the leading prefactor e^{c y}
        x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
        y = lr([0, 0, 1])  # y = z^2 (rational, arbitrary)
        c = SpectralCurve("logz", x, y)
        st = run_tr(c, 3)
        wd = build_wave_data(st, ("main", "inf"), 4)
        from trq.wave import _flow_delta

        d = _flow_delta(wd, "z", F(1, 2))
        # x(z+d) = x + c hbar means z+d = z e^{c hbar}
        from math import factorial

        for k in range(1, 5):
            assert d.coeff(k) == Rf2.z() * F(F(1, 2) ** k, factorial(k)), k

    def test_group_law(self, airy_wave):
        s = sym_unit(airy_wave.trunc)
        a = apply_shift(apply_shift(s, F(1, 3), airy_wave, "z"), F(1, 2), airy_wave, "z")
        b = apply_shift(s, F(5, 6), airy_wave, "z")
        from trq.wave import sym_insert

        diff = dict(a)
        for k, (p, ss) in b.items():
            sym_insert(diff, p, -ss)
        ok, w = sym_is_zero(diff)
        assert ok, w

    def test_shift_zero_identity(self, airy_wave):
        s = evaluate_operator(X, airy_wave)
        assert apply_shift(s, F(0), airy_wave, "z") == s

    def test_airy_flow_series(self, airy_wave):
        from trq.wave import _flow_delta

        d = _flow_delta(airy_wave, "z", F(1))
        # x = z^2: z~ = z + c hbar/(2z) - c^2 hbar^2/(8 z^3) + ...
        z = Rf2.z()
        assert d.coeff(1) == Rf2.const(F(1, 2)) / z
        assert d.coeff(2) == Rf2.const(F(-1, 8)) / z**3


class TestExpNodes:
    def test_exp_scalar(self, airy_wave):
        sym = evaluate_operator(Exp(hb()), airy_wave)
        (p, s), = sym.values()
        assert s.coeff(0) == Rf2.const(1)
        assert s.coeff(2) == Rf2.const(F(1, 2))

    def test_commutator_via_shifts(self, airy_wave):
        # e^{y} x e^{-y} = x + hbar exactly
        lhs = Mul((Exp(Y), X, Exp(Mul((sc(-1), Y)))))
        rhs = Add((X, hb()))
        a = evaluate_operator(lhs, airy_wave)
        b = evaluate_operator(rhs, airy_wave)
        from trq.wave import sym_insert

        diff = dict(a)
        for k, (p, ss) in b.items():
            sym_insert(diff, p, -ss)
        ok, w = sym_is_zero(diff)
        assert ok, w

    @pytest.mark.parametrize("arg, text", [
        (Mul((X, Y)), "(mul (gen x) (gen y))"),
        (Add((Y, Mul((hb(), X)))), "(add (mul (scalar hbar) (gen x)) (gen y))"),
    ])
    def test_exp_of_a_nonlinear_argument_names_it(self, airy_wave, arg, text):
        with pytest.raises(OperatorError, match=re.escape(text)):
            evaluate_operator(Exp(arg), airy_wave)


class TestClassical:
    def test_ratsubst_composes(self):
        # R(x) on x = z^2 is R(z^2), for R(t) = (t^2 + 1)/(t + 2)
        r = RatFun.make(P.poly([1, 0, 1]), P.poly([2, 1]))
        v = classical_symbol(RatSubst(r.num, r.den, X), lr([0, 0, 1]), lr([0, 1]))
        assert not v.has_logs()
        assert v.rat == RatFun.make(P.poly([1, 0, 0, 0, 1]), P.poly([2, 0, 1]))

    def test_hurwitz_sign(self):
        # the transported Hurwitz exponent must reproduce y on the curve
        q, r = 2, 3
        x = LogRat.make(RatFun.make(P.poly([0] * (r * q) + [-1])), [(1, RatFun.var())])
        y = lr([0] * q + [1])
        plus = classical_symbol(
            Exp(Add((Mul((sc(q), X)), Mul((sc(q), Pow(Y, r)))))), x, y
        )
        assert plus.rat == y.rat
        with pytest.raises(Exception):
            classical_symbol(
                Exp(Add((Mul((sc(q), X)), Mul((sc(-q), Pow(Y, r)))))), x, y
            )


def test_prefactor_key_text():
    # rho with non-unit integer leading coefficients, from rational inputs
    z, w = Rf2.z(), Rf2.w()
    rho = (z * z + w) / (2 * z - w)
    logs = (((((1, 0), F(2)), ((0, 0), F(-1))), F(1, 2)),)
    key = Prefactor(rho, logs, ((2, F(1, 3)),)).key()
    assert key == (
        "(1/2*z^2 + 1/2*w)/(z + -1/2*w)|(((((1, 0), Fraction(2, 1)), ((0, 0), Fraction(-1, 1))), "
        "Fraction(1, 2)),)|((2, Fraction(1, 3)),)"
    )
    assert Prefactor(Rf2.const(F(-3, 4)) * z / w, (), ()).key() == "(-3/4*z)/(w)|()|()"
