import functools
import math
import re
from fractions import Fraction as F

import pytest

from trq import wave as wave_module
from trq.algebra import INF, Factored, FormBase, HSeries, LogRat, RatFun, Rf2
from trq.algebra import poly as P
from trq.curve import SpectralCurve
from trq.fixtures import pq_generic_operator
from trq.operators import (
    Add,
    CoordMul,
    Exp,
    Gen,
    Inv,
    Mul,
    OperatorError,
    Pow,
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
    evaluate_operator,
    evaluate_operator_on,
    exp_lograt,
    stable_log_psi,
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


@functools.cache
def store_to_chi5(curve):
    return run_tr(curve(), 5)


@pytest.fixture(scope="module")
def airy_wave():
    return build_wave_data(store_to_chi3(airy_curve), "generic", 4)


@pytest.fixture(scope="module")
def bessel_wave():
    return build_wave_data(store_to_chi3(bessel_curve), "generic", 4)


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


_COORD = {"z": Rf2.z(), "w": Rf2.w()}


def _primitive(p, k, at):
    """The primitive -1/((k - 1)(u - p)^(k-1)) of the slot (p, k) at `at`,
    a coordinate, a rational point or INF, as an Rf2."""
    c = F(-1, k - 1)
    if at == INF:
        return Rf2.const(0)
    if at in _COORD:
        return Rf2.const(c) / (_COORD[at] - Rf2.const(p)) ** (k - 1)
    return Rf2.const(c / (F(at) - p) ** (k - 1))


def _tail_by_terms(store, var, ends, trunc):
    """The hbar^j, j >= 2, coefficients of the `var` stream, summed one Rf2
    term at a time: the reference for the sum over the known denominator."""
    dx = store.curve.dx
    xp = Rf2.from_ratfun_z(dx) if var == "z" else Rf2.from_ratfun_w(dx)
    out = {}
    for (g, n), pd in sorted(store.omegas.items()):
        j = 2 * g + n - 1
        if j > trunc:
            continue
        total = Rf2.const(0)
        for key, c in pd.by_point().items():
            p, k = key[0]
            term = Rf2.const(c) / (_COORD[var] - Rf2.const(p)) ** k
            for q, m in key[1:]:
                term = term * (_primitive(q, m, ends[0]) - _primitive(q, m, ends[1]))
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


def _log_psi_by_terms(store, order):
    """s_k, 1 <= k <= order, of log psi at a generic base point, summed one
    Rf2 term at a time: the reference for `stable_log_psi`."""
    out = {}
    for (g, n), pd in sorted(store.omegas.items()):
        k = 2 * g - 2 + n
        if k > order:
            continue
        total = Rf2.const(0)
        for key, c in pd.by_point().items():
            term = Rf2.const(c)
            for p, m in key:
                term = term * (_primitive(p, m, "z") - _primitive(p, m, "w"))
            total = total + term
        out[k] = out.get(k, Rf2.const(0)) + total / math.factorial(n)
    return {k: f for k, f in out.items() if not f.is_zero()}


_LOG_PSI_STORES = {
    "airy-chi4": lambda: run_tr(airy_curve(), 4),
    "cubic-chi3": lambda: store_to_chi3(cubic_curve),
    "bessel-chi3": lambda: store_to_chi3(bessel_curve),
}


class TestStableLogPsi:
    @pytest.mark.parametrize("name", list(_LOG_PSI_STORES))
    def test_matches_the_termwise_sum(self, name):
        st = _LOG_PSI_STORES[name]()
        got, base = stable_log_psi(st, st.chi_max)
        want = _log_psi_by_terms(st, st.chi_max)
        assert sorted(got.coeffs) == sorted(want) == list(range(1, st.chi_max + 1))
        for k, f in want.items():
            assert got.coeffs[k].base is base
            assert (got.coeffs[k].num, got.coeffs[k].den) == (f.num, f.den), k

    @pytest.mark.parametrize("name", list(_LOG_PSI_STORES))
    def test_z_derivative_is_the_z_stream(self, name):
        # d/dz s_k = x'(z) * hbar^(k+1) of the z stream: both integrate
        # their slots by the one slot integrator
        st = _LOG_PSI_STORES[name]()
        s, base = stable_log_psi(st, st.chi_max)
        wd = build_wave_data(st, "generic", st.chi_max + 1)
        assert base.forms == wd.base.forms
        stream = wd.tail["z"]
        assert sorted(s.coeffs) == [j - 1 for j in sorted(stream.coeffs) if j >= 2]
        for k, f in s.coeffs.items():
            assert f.deriv_z() == wd.xprime("z") * stream.coeff(k + 1), k

    def test_refuses_a_short_store(self):
        with pytest.raises(WaveError, match=re.escape("store covers chi <= 2, log psi to hbar^3 needs chi <= 3")):
            stable_log_psi(store_to_chi2(airy_curve), 3)


class TestOverForms:
    # the pole points 0 and 1/2 give the forms z, 2z - 1, w and 2w - 1
    POINTS = [F(0), F(1, 2)]

    @staticmethod
    def by_terms(terms):
        forms = (Rf2.z(), 2 * Rf2.z() - 1, Rf2.w(), 2 * Rf2.w() - 1)
        total = Rf2.const(0)
        for e, c in terms.items():
            term = Rf2.const(c)
            for form, k in zip(forms, e):
                term = term * form ** (-k)
            total = total + term
        return total

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
    # a factor applied to the sum afterwards, as the stream tail applies 1/dx
    @pytest.mark.parametrize("factor", [{(0, 0): 1}, {(1, 0): F(1, 2), (0, 1): 1, (0, 0): 3}], ids=["1", "z/2+w+3"])
    def test_sum_is_canonical(self, terms, want, factor):
        from trq.algebra import poly2 as P2
        from trq.wave import _over_forms

        base = FormBase.of_points(self.POINTS)
        got = _over_forms(terms, base)
        if want is not None:
            assert got == want(Rf2.z(), Rf2.w())
        factor = Rf2(*P2.p2_clear(factor, {(0, 0): 1}))
        got, ref = got * base.lift(factor), self.by_terms(terms) * factor
        assert (got.num, got.den) == (ref.num, ref.den)


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
        (sub(X, X0), Y),
        (sub(X0, sc(12)), Mul((X, Y))),
        (Add((CoordMul("z", RatFun.var()), CoordMul("z0", RatFun.var()))), Y),
        (Pow(X0, 2), Mul((Y, Y0))),
        (Add((Y, Mul((sc(-1), Y0)), X)), Mul((X, Y))),
        (sub(Y, Y0), Mul((Exp(X), Y))),
        (Add((Pow(Y, 2), X)), Mul((Exp(X), Y))),
    ], ids=["y-y0", "y^2+x", "x-x0", "x0-12", "z+z0", "x0^2", "y-y0+x", "y-y0 on exp(x)", "y^2+x on exp(x)"])
    def test_matches_full_reevaluation(self, airy_wave, inner, target):
        # the solve that evaluates inner on the whole solution at every order
        _assert_matches_full_reevaluation(airy_wave, inner, target)

    @pytest.mark.parametrize("inner, target", [
        (sub(Y, Y0), X),
        (sub(X, X0), Y),
        (Add((Y, Mul((sc(-1), Y0)), X)), Mul((Exp(X), Y))),
    ], ids=["y-y0", "x-x0", "y-y0+x on exp(x)"])
    def test_matches_full_reevaluation_on_bessel(self, bessel_wave, inner, target):
        _assert_matches_full_reevaluation(bessel_wave, inner, target)

    @pytest.mark.parametrize("inner", [sub(X, X0), sub(Y, Y0), Add((Pow(Y, 2), X))], ids=["x-x0", "y-y0", "y^2+x"])
    def test_solution_is_exact_only_as_far_as_the_target(self, airy_wave, inner):
        # a target known to hbar^1 gives a solution known to hbar^1, not hbar^N
        (key, (p, _s)), = sym_unit(airy_wave.trunc).items()
        target = {key: (p, HSeries({0: Factored.const(1), 1: Factored.const(1)}, 1))}
        (_p, s), = apply_inverse(inner, target, airy_wave).values()
        assert s.trunc == 1
        (_p, back), = evaluate_operator_on(inner, {key: (p, s)}, airy_wave).values()
        assert back.truncate(1) == target[key][1]

    @pytest.mark.parametrize("order", [3, 6])
    def test_inner_of_order_one_is_evaluated_once_per_class(self, monkeypatch, order):
        # once on the unit, once on the unit of each class but the plain one,
        # however many hbar orders are solved
        wave = build_wave_data(store_to_chi5(airy_curve), "generic", order)
        inner = sub(Y, Y0)
        target = evaluate_operator(Add((Y, Mul((Exp(X), Y)))), wave)
        assert len(target) == 2
        calls = []
        evaluate = wave_module.evaluate_operator_on

        def counted(op, sym, wd):
            calls.append(op == inner)
            return evaluate(op, sym, wd)

        monkeypatch.setattr(wave_module, "evaluate_operator_on", counted)
        apply_inverse(inner, target, wave)
        assert 0 < sum(calls) <= 2 * len(target)


def _assert_matches_full_reevaluation(wave, inner, target):
    N = wave.trunc
    (_p, lead), = evaluate_operator_on(inner, sym_unit(N), wave).values()
    sigma0 = lead.coeffs[0]
    tgt = evaluate_operator(target, wave)
    want = {}
    for key, (p, s) in tgt.items():
        csol = HSeries({}, N)
        for k in range(N + 1):
            applied = evaluate_operator_on(inner, {key: (p, csol)}, wave)
            rk = (s - applied[key][1]).coeffs.get(k)
            if rk:
                csol = csol + HSeries({k: rk / sigma0}, N)
        want[key] = csol
    got = apply_inverse(inner, tgt, wave)
    assert sorted(got) == sorted(want)
    for key, (_p, s) in got.items():
        assert s == want[key]
        assert len(s.coeffs) >= 3  # several hbar orders


def _shifted_ratio(wave, var, fn, c, along):
    """The shifted symbol of CoordMul(var, fn) over the shifted unit, class
    by class: fn moved by exp(c y) ("z") or exp(c y0) ("w")."""
    unit = sym_unit(wave.trunc)
    num = apply_shift(evaluate_operator_on(CoordMul(var, fn), unit, wave), c, wave, along)
    den = apply_shift(unit, c, wave, along)
    assert sorted(num) == sorted(den)
    return {k: num[k][1] * den[k][1].invert() for k in num}


class TestShift:
    def test_exact_log_flow(self):
        # x = log z: x + c hbar is z e^{c hbar}, in the one class e^{c y}
        x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
        y = lr([0, 0, 1])  # y = z^2 (rational, arbitrary)
        c = SpectralCurve("logz", x, y)
        st = run_tr(c, 3)
        wd = build_wave_data(st, ("main", "inf"), 4)
        (ratio,) = _shifted_ratio(wd, "z", RatFun.var(), F(1, 2), "z").values()
        for k in range(5):
            assert ratio.coeff(k) == Rf2.z() * F(F(1, 2) ** k, math.factorial(k)), k

    @staticmethod
    def _assert_group_law(wave, s, var):
        # a shift by 1/3 then one by 1/2 is one shift by 5/6
        a = apply_shift(apply_shift(s, F(1, 3), wave, var), F(1, 2), wave, var)
        b = apply_shift(s, F(5, 6), wave, var)
        from trq.wave import sym_insert

        diff = dict(a)
        for k, (p, ss) in b.items():
            sym_insert(diff, p, -ss)
        ok, w = sym_is_zero(diff)
        assert ok, w

    def test_group_law(self, airy_wave):
        self._assert_group_law(airy_wave, sym_unit(airy_wave.trunc), "z")

    def test_group_law_of_the_base_variable(self, airy_wave):
        s = evaluate_operator_on(CoordMul("z0", RatFun.var()), sym_unit(airy_wave.trunc), airy_wave)
        self._assert_group_law(airy_wave, s, "w")

    def test_shift_zero_identity(self, airy_wave):
        s = evaluate_operator(X, airy_wave)
        assert apply_shift(s, F(0), airy_wave, "z") == s

    # x = z^2: sqrt(u^2 + e) = u + e/(2u) - e^2/(8u^3) + e^3/(16u^5) - 5e^4/(128u^7) + ...
    SQRT = (F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128))

    def test_airy_flow_series(self, airy_wave):
        # exp(hbar d/dx) moves x = z^2 to z^2 + hbar: z ~ sqrt(z^2 + hbar)
        (ratio,) = _shifted_ratio(airy_wave, "z", RatFun.var(), F(1), "z").values()
        for k, a in enumerate(self.SQRT):
            assert ratio.coeff(k) == Rf2.const(a) / Rf2.z() ** (2 * k - 1), k

    def test_airy_base_flow_series(self, airy_wave):
        # exp(y0) = exp(-hbar d/dx0) moves x0 = w^2 to w^2 - hbar: w ~ sqrt(w^2 - hbar)
        (ratio,) = _shifted_ratio(airy_wave, "z0", RatFun.var(), F(1), "w").values()
        for k, a in enumerate(self.SQRT):
            assert ratio.coeff(k) == Rf2.const(a * (-1) ** k) / Rf2.w() ** (2 * k - 1), k


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


@pytest.fixture(scope="module")
def cubic_wave():
    return build_wave_data(store_to_chi2(cubic_curve), "generic", 3)


class TestGenericBaseCubic:
    """x = z^3 - 3z, y = z at a generic base point: the symbols carry the
    form z^2 + zw + w^2 - 3 of degree two.  As canonical Rf2 their gcds
    were the first that GCDHEU gave up on, and at hbar^5 the
    remainder-sequence fallback did not finish."""

    @pytest.mark.parametrize("gen", [Y, Y0], ids=["y", "y0"])
    def test_exp_times_its_inverse_is_one(self, cubic_wave, gen):
        op = sub(Mul((Exp(Mul((sc(-1), gen))), Exp(gen))), sc(1))
        rep = check_annihilation(op, cubic_wave, 3)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize("order", [3, 4, 5], ids=["hbar3", "hbar4", "hbar5"])
    def test_pq_generic_operator_annihilates(self, cubic_wave, order):
        # the pq family on its nontrivial side: x = p(y) with p = y^3 - 3y;
        # its inverse meets the form z^2 + zw + w^2 - 3 of x(z) - x(w)
        wave = cubic_wave if order == 3 else build_wave_data(run_tr(cubic_curve(), order - 1), "generic", order)
        op = pq_generic_operator(P.poly([0, -3, 0, 1]), P.ONE)
        rep = check_annihilation(op, wave, order)
        assert rep.passed, rep.summary()


class TestClassical:
    def test_hurwitz_sign(self):
        # the transported Hurwitz exponent q(x + y^r) must reproduce y on the
        # curve x = log z - z^{rq}, y = z^q; the printed q(x - y^r) is not rational
        q, r = 2, 3
        x = LogRat.make(RatFun.make(P.poly([0] * (r * q) + [-1])), [(1, RatFun.var())])
        y = lr([0] * q + [1])
        assert exp_lograt((x + y.rat**r).scale(q)) == y.rat
        with pytest.raises(WaveError, match="not rational"):
            exp_lograt((x - y.rat**r).scale(q))


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


def test_prefactor_key_text_of_a_lifted_rho():
    # the rho of `test_prefactor_key_text` over a form base: the key text is
    # the canonical Rf2 text, byte for byte
    z, w = Rf2.z(), Rf2.w()
    base = FormBase.of_points([F(0), F(1, 2)])
    logs = (((((1, 0), F(2)), ((0, 0), F(-1))), F(1, 2)),)
    for rho in ((z * z + w) / (2 * z - w), Rf2.const(F(-3, 4)) * z / w, Rf2.const(F(-3, 4)), Rf2.const(0)):
        lifted = base.lift(rho)
        assert isinstance(lifted, Factored)
        assert Prefactor(lifted, logs, ((2, F(1, 3)),)).key() == Prefactor(rho, logs, ((2, F(1, 3)),)).key()
    # 2z - w joined the base: the first rho has a form in its denominator
    assert base.lift((z * z + w) / (2 * z - w)).e
    assert Prefactor(Factored.const(F(-3, 4))).key() == "-3/4|()|()"


def test_prefactor_key_of_a_bessel_shift():
    # exp(c y) on Bessel, y = 1/z: the class exp(c/z) has a form, z, in the
    # denominator of its rho
    wave = build_wave_data(store_to_chi3(bessel_curve), "generic", 3)
    c = F(2, 3)
    (pref, s), = evaluate_operator(Exp(Mul((sc(c), Y))), wave).values()
    assert isinstance(pref.rho, Factored) and pref.rho.e
    assert pref.rho == Rf2.const(c) / Rf2.z()
    assert pref.key() == Prefactor(Rf2.const(c) / Rf2.z()).key() == "(2/3)/(z)|()|()"
    assert not s.is_zero()
