from fractions import Fraction as F

import pytest

from trq.algebra import INF, LocalSeries, LogRat, RatFun
from trq.algebra import poly as P
from trq.curve import (
    CurveError,
    SpectralCurve,
    _form_order,
    find_logvital,
    find_ramification,
    galois_series,
)


def lr(num, den=(1,)):
    return LogRat.from_ratfun(RatFun.make(P.poly(num), P.poly(den)))


def curve(x, y, name="test", **kw):
    return SpectralCurve(name, x, y, **kw)


def airy():
    return curve(lr([0, 0, 1]), lr([0, 1]), "airy")


def cubic():
    # x = z^3/3 - z, y = z
    return curve(lr([0, -1, 0, F(1, 3) * 3 and F(0), 0]), lr([0, 1]), "cubic")


class TestRamification:
    def test_airy(self):
        rams = find_ramification(airy())
        assert [(r.location, r.order, r.y_flag) for r in rams] == [(0, 1, "regular")]

    def test_cubic(self):
        c = curve(LogRat.from_ratfun(RatFun.make(P.poly([0, -1, 0, F(1, 3)]))), lr([0, 1]))
        rams = find_ramification(c)
        assert [(r.location, r.order) for r in rams] == [(-1, 1), (1, 1)]

    def test_log_unramified(self):
        c = curve(LogRat.make(RatFun.const(0), [(1, RatFun.var())]), lr([0, 1]))
        assert find_ramification(c) == []

    def test_bessel_simple_pole(self):
        c = curve(lr([0, 0, 1]), lr([1], [0, 1]), "bessel")
        rams = find_ramification(c)
        assert rams[0].y_flag == "simple-pole"

    def test_irrational_refused(self):
        # x = z^3/3 - 2z has ramification at +-sqrt(2)
        c = curve(LogRat.from_ratfun(RatFun.make(P.poly([0, -2, 0, F(1, 3)]))), lr([0, 1]))
        with pytest.raises(CurveError, match="outside Q"):
            find_ramification(c)


def newton_sigma(c, p, order):
    """sigma by Newton iteration from -t, an oracle for galois_series that
    shares only u = x(p+t) - x(p) with it: a step
    sigma <- sigma - (u(sigma) - u(t))/u'(sigma) doubles the power of t to
    which sigma is exact."""
    u = c.x_series(p.location, order + 1)
    du = u.derivative()
    sigma = LocalSeries.make(p.location, {1: -1}, 1)
    while sigma.trunc < order:
        k = min(2 * sigma.trunc, order)
        # u(s) to t^(k+1) reads s only to t^k, since u starts at t^2; the
        # residual starts at t^(sigma.trunc+2), so the quotient is exact to t^k
        s = LocalSeries(sigma.coeffs, k + 1, p.location)
        uk = u.truncate(k + 1)
        step = (uk.compose(s) - uk) * du.truncate(k).compose(s).invert()
        sigma = (s - step).truncate(k)
    return sigma


def skips_t3():
    # x = z^2 + z^4 + z^5: dx/z = 2 + 4z^2 + 5z^3 has no rational root, so
    # 0 is declared; u has no t^3 term
    return curve(lr([0, 0, 1, 0, 1, 1]), lr([0, 1]), "skips-t3", declared_ram=(0,))


def log_x():
    # x = log(1+z) - z: u = -t^2/2 + t^3/3 - t^4/4 + ... has every power
    return curve(LogRat.make(RatFun.make(P.poly([0, -1])), [(1, RatFun.make(P.poly([1, 1])))]), lr([0, 1]), "log-x")


class TestGalois:
    def test_airy_exact(self):
        c = airy()
        p = find_ramification(c)[0]
        s = galois_series(c, p, 8)
        assert s.coeffs == {1: F(-1)}

    def test_perturbed_quadratic(self):
        # x = z^2 + z^3 at 0: sigma exact to t^6 makes u(sigma) - u(t) vanish
        # through t^7, which reads sigma only to t^6
        c = curve(LogRat.from_ratfun(RatFun.make(P.poly([0, 0, 1, 1]))), lr([0, 1]))
        p = next(r for r in find_ramification(c) if r.location == 0)
        s = galois_series(c, p, 6)
        u = c.x_series(F(0), 8)
        resid = u.compose(LocalSeries(s.coeffs, 7, s.point)) - u
        assert resid.trunc == 7 and all(v == 0 for k, v in resid.coeffs.items() if k <= 7)
        assert s.coeff(1) == -1

    @pytest.mark.parametrize("xc", [[0, -3, 0, 1], [0, 0, 1, 1]])
    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_exact_to_truncation(self, xc, n):
        c = curve(lr(xc), lr([0, 1]))
        for p in find_ramification(c):
            s = galois_series(c, p, n)
            assert s.trunc == n
            assert s == galois_series(c, p, n + 4).truncate(n)
            u = c.x_series(p.location, n + 1)
            resid = u.compose(LocalSeries(s.coeffs, n + 1, s.point)) - u
            assert resid.trunc == n + 1 and resid.is_zero(), (p.location, resid)

    def test_cubic_top_coefficients(self):
        # x = z^3 - 3z: sigma o sigma = t forces c3 = -c2^2, and z -> -z
        # flips the sign of every even coefficient
        c = curve(lr([0, -3, 0, 1]), lr([0, 1]))
        for p in find_ramification(c):
            assert galois_series(c, p, 3).coeff(3) == F(-1, 9)
            assert galois_series(c, p, 10).coeff(10) == -p.location * F(323, 19683)

    @pytest.mark.parametrize("make", [skips_t3, log_x], ids=["skips-t3", "log-x"])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_recurrence_against_newton(self, make, n):
        c = make()
        p, = find_ramification(c)
        s = galois_series(c, p, n)
        assert s.trunc == n and s == newton_sigma(c, p, n)
        # u(sigma) = u(t) to t^(n+1), which reads sigma to t^n
        u = c.x_series(p.location, n + 1)
        resid = u.compose(LocalSeries(s.coeffs, n + 1, s.point)) - u
        assert resid.trunc == n + 1 and resid.is_zero()
        # sigma o sigma = t to t^n
        comp = s.compose(s)
        assert comp.trunc == n and comp.coeffs == {1: 1}

    def test_recurrence_coefficients(self):
        # x = z^2 + z^4 + z^5: c_2 = c_3 = 0 and c_4 = -1; x = log(1+z) - z:
        # sigma = -t + 2/3 t^2 - 4/9 t^3 + 44/135 t^4 - ...
        p, = find_ramification(skips_t3())
        assert [galois_series(skips_t3(), p, 4).coeff(k) for k in range(1, 5)] == [-1, 0, 0, -1]
        p, = find_ramification(log_x())
        assert [galois_series(log_x(), p, 4).coeff(k) for k in range(1, 5)] == [-1, F(2, 3), F(-4, 9), F(44, 135)]

    def test_involution_property(self):
        c = curve(LogRat.from_ratfun(RatFun.make(P.poly([0, -1, 0, F(1, 3)]))), lr([0, 1]))
        for p in find_ramification(c):
            s = galois_series(c, p, 6)
            comp = s.compose(s)
            assert comp.coeff(1) == 1
            assert all(v == 0 for k, v in comp.coeffs.items() if 2 <= k <= 6)


def orders(c, p):
    """(r, s): the leading orders of dx and dy at p."""
    return _form_order(c.dx, p) + 1, _form_order(c.dy, p) + 1


class TestClassify:
    def test_airy_origin(self):
        assert orders(airy(), F(0)) == (2, 1)

    def test_generic_point(self):
        assert orders(airy(), F(5)) == (1, 1)

    def test_rs_negative_orders(self):
        # x = z^3, y = z^-2: at 0 orders (3, -2)
        c = curve(lr([0, 0, 0, 1]), lr([1], [0, 0, 1]))
        assert orders(c, F(0)) == (3, -2)

    def test_scaling_invariance(self):
        c1 = airy()
        c2 = curve(lr([0, 0, 3]), lr([0, F(-5, 7)]))
        for p in (F(0), F(2)):
            assert orders(c1, p) == orders(c2, p)

    def test_infinity(self):
        # x = 1/z: dx = -dz/z^2, at infinity regular nonvanishing (r=1)
        c = curve(lr([1], [0, 1]), lr([0, 0, 1]))
        assert orders(c, INF)[0] == 1


class TestLogVital:
    def test_plain_rational_none(self):
        assert find_logvital(airy()) == []

    def test_two_vital_points(self):
        # x = log z, y = (1/2) log(z-3) - log(z-5)
        x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
        y = LogRat.make(RatFun.const(0), [(F(1, 2), RatFun.var() - 3), (-1, RatFun.var() - 5)])
        c = curve(x, y)
        assert find_logvital(c) == [(F(3), F(2)), (F(5), F(-1))]

    def test_pole_of_dx_not_vital(self):
        # x = log z - z^2, y = log z: dy pole at 0 coincides with dx pole
        x = LogRat.make(RatFun.make(P.poly([0, 0, -1])), [(1, RatFun.var())])
        y = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
        c = curve(x, y)
        assert find_logvital(c) == []
