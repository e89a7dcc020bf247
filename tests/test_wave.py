import functools
import math
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
    WaveError,
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


def shifted_square_curve():
    # x = z^2 + z: one branch point, -1/2, with a non-unit denominator
    return SpectralCurve("z2+z", lr([0, 1, 1]), lr([0, 1]))


def cubic_curve():
    # x = z^3 - 3z: two branch points, -1 and 1
    return SpectralCurve("cubic", lr([0, -3, 0, 1]), lr([0, 1]))


def one_branch_cubic_curve():
    # the cubic with 1 declared its only branch point: dx also vanishes at -1,
    # which is not a pole point
    return SpectralCurve("cubic-at-1", lr([0, -3, 0, 1]), lr([0, 1]), declared_ram=(F(1),))


def laurent_curve():
    # x = z + 1/z: dx = (z^2 - 1)/z^2 has a denominator
    return SpectralCurve("laurent", lr([1, 0, 1], [0, 1]), lr([0, 1]))


@functools.cache
def store_to_chi2(curve):
    return run_tr(curve(), 2)


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


def _tail_by_terms(store, var, ends, trunc):
    """The hbar^j, j >= 2, coefficients of the `var` stream, summed one Rf2
    term at a time: the reference for the sum over the known denominator."""
    coord = {"z": Rf2.z(), "w": Rf2.w()}
    dx = store.curve.dx
    xp = Rf2.from_ratfun_z(dx) if var == "z" else Rf2.from_ratfun_w(dx)

    def primitive(p, k, at):
        c = F(-1, k - 1)
        if at == INF:
            return Rf2.const(0)
        if at in coord:
            return Rf2.const(c) / (coord[at] - Rf2.const(p)) ** (k - 1)
        return Rf2.const(c / (F(at) - p) ** (k - 1))

    out = {}
    for (g, n), pd in sorted(store.omegas.items()):
        j = 2 * g + n - 1
        if j > trunc:
            continue
        total = Rf2.const(0)
        for key, c in pd.terms.items():
            p, k = key[0]
            term = Rf2.const(c) / (coord[var] - Rf2.const(p)) ** k
            for q, m in key[1:]:
                term = term * (primitive(q, m, ends[0]) - primitive(q, m, ends[1]))
            total = total + term
        out[j] = out.get(j, Rf2.const(0)) + total / xp / math.factorial(n - 1)
    return {j: f for j, f in out.items() if not f.is_zero()}


# base mode and the ends (upper, lower) of the integrated slots
_BASE_MODES = {
    "generic": ("generic", ("z", "w")),
    "main-inf": (("main", INF), ("z", INF)),
    "main-5": (("main", F(5)), ("z", F(5))),
    "main--2_3": (("main", F(-2, 3)), ("z", F(-2, 3))),
    "base-7_2": (("base", F(7, 2)), (F(7, 2), "w")),
    "base-inf": (("base", INF), (INF, "w")),
}


class TestTailOracle:
    @pytest.mark.parametrize("mode", list(_BASE_MODES))
    @pytest.mark.parametrize(
        "curve",
        [airy_curve, bessel_curve, shifted_square_curve, cubic_curve, one_branch_cubic_curve, laurent_curve],
        ids=["airy", "bessel", "z2+z", "cubic", "cubic-at-1", "laurent"],
    )
    def test_tail_matches_the_termwise_sum(self, curve, mode):
        base, ends = _BASE_MODES[mode]
        st = store_to_chi2(curve)
        wd = build_wave_data(st, base, 3)
        live = [u for u in ("z", "w") if u in ends]
        assert sorted(wd.tail) == sorted(live)
        for var in live:
            got = {j: f for j, f in wd.tail[var].coeffs.items() if j >= 2}
            want = _tail_by_terms(st, var, ends, 3)
            assert sorted(got) == sorted(want) == [2, 3], var
            for j, f in want.items():
                assert (got[j].num, got[j].den) == (f.num, f.den), (var, j)


class TestOverForms:
    # the pole points 0 and 1/2 give the forms z, 2z - 1, w and 2w - 1
    POINTS = [F(0), F(1, 2)]

    @staticmethod
    def by_terms(terms, numer):
        forms = (Rf2.z(), 2 * Rf2.z() - 1, Rf2.w(), 2 * Rf2.w() - 1)
        total = Rf2.const(0)
        for e, c in terms.items():
            term = Rf2.const(c)
            for form, k in zip(forms, e):
                term = term * form ** (-k)
            total = total + term
        return total * numer

    @pytest.mark.parametrize("terms, want", [
        # 1/(z(2z-1)) - 2/(2z-1): the form 2z - 1 cancels
        ({(1, 1, 0, 0): 1, (0, 1, 0, 0): -2}, lambda z, w: -1 / z),
        ({(0, 0, 1, 1): F(3, 4), (0, 0, 0, 1): F(-3, 2)}, lambda z, w: Rf2.const(F(-3, 4)) / w),
        ({(2, 1, 0, 0): 1, (1, 1, 0, 0): -2}, lambda z, w: -1 / z**2),
        # (2z - 1)/z - 2, with a form in the numerator
        ({(1, -1, 0, 0): 1, (0, 0, 0, 0): -2}, lambda z, w: -1 / z),
        # 1/z over (2z - 1)^2: the form divides out twice
        ({(-1, 2, 0, 0): 4, (0, 2, 0, 0): -4, (1, 2, 0, 0): 1}, lambda z, w: 1 / z),
        ({(1, 0, 1, 0): 1, (0, 0, 2, 0): F(1, 3)}, None),
        ({(1, 0, 0, 0): 0}, lambda z, w: Rf2.const(0)),
    ])
    @pytest.mark.parametrize("numer", [{(0, 0): 1}, {(1, 0): F(1, 2), (0, 1): 1, (0, 0): 3}], ids=["1", "z/2+w+3"])
    def test_sum_is_canonical(self, terms, want, numer):
        from trq.algebra import poly2 as P2
        from trq.wave import _over_forms

        got = _over_forms(terms, self.POINTS, numer)
        ref = self.by_terms(terms, Rf2(*P2.p2_clear(numer, {(0, 0): 1})))
        assert (got.num, got.den) == (ref.num, ref.den)
        if want is not None and numer == {(0, 0): 1}:
            assert got == want(Rf2.z(), Rf2.w())


class TestFrozenPolePoint:
    @pytest.mark.parametrize("mode", ["main", "base"])
    def test_frozen_point_at_a_branch_point_is_refused(self, mode):
        with pytest.raises(WaveError, match=r"frozen at 0, a pole point"):
            build_wave_data(store_to_chi2(airy_curve), (mode, 0), 3)


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


    def test_plain_leading_symbol_is_required(self, airy_wave):
        # exp(x) moves the unit into the prefactor class exp(z^2)
        with pytest.raises(WaveError, match="plain leading symbol"):
            evaluate_operator_on(Inv(Exp(X)), sym_unit(airy_wave.trunc), airy_wave)

    def test_vanishing_leading_coefficient_is_refused(self, airy_wave):
        with pytest.raises(WaveError, match="vanishing leading coefficient"):
            evaluate_operator_on(Inv(hb()), sym_unit(airy_wave.trunc), airy_wave)

    @pytest.mark.parametrize("inner, target", [
        (sub(Y, Y0), X),
        (Add((Pow(Y, 2), X)), Mul((X, Y))),
    ], ids=["y-y0", "y^2+x"])
    def test_matches_full_reevaluation(self, airy_wave, inner, target):
        # the solve that evaluates inner on the whole solution at every order
        N = airy_wave.trunc
        (_p, lead), = evaluate_operator_on(inner, sym_unit(N), airy_wave).values()
        sigma0 = lead.coeffs[0]
        tgt = evaluate_operator(target, airy_wave)
        want = {}
        for key, (p, s) in tgt.items():
            csol = HSeries({}, N)
            for k in range(N + 1):
                applied = evaluate_operator_on(inner, {key: (p, csol)}, airy_wave)
                rk = (s - applied[key][1]).coeffs.get(k)
                if rk:
                    csol = csol + HSeries({k: rk / sigma0}, N)
            want[key] = csol
        got = apply_inverse(inner, tgt, airy_wave)
        assert sorted(got) == sorted(want)
        for key, (_p, s) in got.items():
            assert s == want[key]
            assert len(s.coeffs) >= 3  # several hbar orders


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
