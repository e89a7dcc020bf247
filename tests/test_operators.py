import gc
import weakref
from fractions import Fraction as F

import pytest

from trq import operators
from trq.algebra import HSeries, RatFun
from trq.algebra import poly as P
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
    WeylPoly,
    X,
    X0,
    Y,
    Y0,
    expand,
    gaiotto_shift_identity,
    hb,
    linear_form,
    mul,
    normal_order_mul_rule,
    op_text,
    ratsubst,
    sc,
    shear_rewrite,
    simplify,
    singular_limit,
    sub,
    sympl_dual_rewrite,
    xy_dual_rewrite,
)


def texteq(a, b):
    return op_text(simplify(a)) == op_text(simplify(b))


class TestSimplify:
    def test_cancellation(self):
        d = Mul((hb(), Inv(sub(Y, Y0))))
        e = Add((X, Mul((sc(-1), d)), d))
        assert texteq(e, X)

    def test_mul_order_preserved(self):
        e = Mul((Mul((X, Y)), X))
        s = simplify(e)
        assert op_text(s) == op_text(Mul((X, Y, X)))

    def test_no_commuting_collapse(self):
        assert not texteq(Mul((X, Y)), Mul((Y, X)))

    def test_function_merge(self):
        a = sub(Y, Y0)
        e = Mul((a, Inv(a)))
        assert texteq(e, sc(1))

    def test_scalar_collection(self):
        e = Mul((sc(2), X, sc(3)))
        assert texteq(e, Mul((sc(6), X)))

    def test_inverse_of_zero_scalar_is_refused(self):
        with pytest.raises(OperatorError, match="division by zero"):
            simplify(Inv(sc(0)))

    def test_negative_power_of_a_vanishing_sum_is_refused(self):
        with pytest.raises(OperatorError, match="division by zero"):
            simplify(Pow(sub(X, X), -2))

    def test_negated_inverse(self):
        # 1/(y0 - y) = -1/(y - y0)
        a = Inv(sub(Y0, Y))
        b = Mul((sc(-1), Inv(sub(Y, Y0))))
        assert texteq(a, b)


class TestXYDual:
    def test_generator_image(self):
        img = simplify(xy_dual_rewrite(X))
        expect = simplify(sub(Gen("y0", "dual"), Mul((hb(), Inv(sub(Gen("x", "dual"), Gen("x0", "dual")))))))
        assert op_text(img) == op_text(expect)

    def test_involution(self):
        for g in (X, Y, X0, Y0):
            assert texteq(xy_dual_rewrite(xy_dual_rewrite(g)), g), g

    def test_involution_composite(self):
        e = Add((Pow(Y, 2), Mul((sc(-1), X))))
        assert texteq(xy_dual_rewrite(xy_dual_rewrite(e)), e)

    def test_pq_emission(self):
        # dual-side operator p(x0) - q(x0) y0 maps to the rational quantum curve
        p = [F(1), F(0), F(2)]   # 1 + 2t^2
        q = [F(3), F(1)]         # 3 + t
        dual = sub(
            ratsubst(p, (1,), Gen("x0", "dual")),
            Mul((ratsubst(q, (1,), Gen("x0", "dual")), Gen("y0", "dual"))),
        )
        emitted = simplify(xy_dual_rewrite(dual))
        A = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        B = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))
        expect = simplify(sub(ratsubst(p, (1,), A), Mul((ratsubst(q, (1,), A), B))))
        assert op_text(emitted) == op_text(expect)


def _old_dual_image(g: Gen):
    """The x-y dual image of g, built afresh for every occurrence."""
    s = {"": "dual", "dual": "", "dagger": "dagger-dual", "dagger-dual": "dagger"}[g.side]
    x, y, x0, y0 = Gen("x", s), Gen("y", s), Gen("x0", s), Gen("y0", s)
    dx = Inv(sub(x, x0))
    dy = Inv(sub(y, y0))
    return {
        "x": sub(y0, Mul((hb(), dx))),
        "y": sub(x0, Mul((hb(), dy))),
        "x0": sub(y, Mul((hb(), dx))),
        "y0": sub(x, Mul((hb(), dy))),
    }[g.kind]


class TestSharedImages:
    @pytest.mark.parametrize("side", ["", "dual", "dagger", "dagger-dual"])
    @pytest.mark.parametrize("kind", ["x", "y", "x0", "y0"])
    def test_dual_image_equals_the_per_occurrence_image(self, kind, side):
        g = Gen(kind, side)
        assert xy_dual_rewrite(g) == _old_dual_image(g)

    def test_two_rewrites_put_the_same_image_object(self):
        a = xy_dual_rewrite(Mul((X, Y)))
        b = xy_dual_rewrite(Add((Y0, X)))
        assert a.children[0] is b.children[1]
        assert a.children[1] is not b.children[0]
        assert a.children[1] is xy_dual_rewrite(Y)

    def test_shear_builds_one_image_per_generator_in_a_call(self):
        out = shear_rewrite(Mul((Y, X, Y, Y0)), RatFun.var())
        assert out.children[0] is out.children[2]
        assert out.children[0] == sub(Y, RatSubst(P.poly([0, 1]), P.ONE, X))

    def test_shear_of_an_operator_without_y_returns_the_operator_itself(self):
        e = sub(Pow(X, 2), Mul((X, Inv(sub(X, X0)))))
        assert shear_rewrite(e, RatFun.var()) is e

    def test_unknown_kind_is_refused(self):
        with pytest.raises(OperatorError):
            xy_dual_rewrite(Add((X, Gen("z"))))

    @pytest.mark.parametrize("rewrite", [xy_dual_rewrite, lambda e: sympl_dual_rewrite(e, RatFun.var())])
    @pytest.mark.parametrize("kind, side", [("z", ""), ("y", "weird")])
    def test_a_generator_without_a_dual_image_is_named(self, rewrite, kind, side):
        msg = f"generator '{kind}' on side '{side}' has no x-y dual image"
        with pytest.raises(OperatorError, match=msg):
            rewrite(Add((X, Gen(kind, side))))


class TestShear:
    def test_trivial(self):
        e = sub(Pow(Y, 2), X)
        assert texteq(shear_rewrite(e, RatFun.const(0)), e)

    def test_linear(self):
        e = sub(Pow(Y, 2), X)
        out = simplify(shear_rewrite(e, RatFun.var()))
        expect = simplify(sub(Pow(sub(Y, X), 2), X))
        assert op_text(out) == op_text(expect)

    def test_composition_law(self):
        r1 = RatFun.make(P.poly([1, 2]))
        r2 = RatFun.make(P.poly([0, 0, 3]))
        e = Pow(Y, 3)
        a = shear_rewrite(shear_rewrite(e, r1), r2)
        b = shear_rewrite(e, r1 + r2)
        assert texteq(expand(a), expand(b))


class TestSymplDual:
    def test_r_zero_identity(self):
        e = sub(Pow(Y, 2), X)
        assert texteq(sympl_dual_rewrite(e, RatFun.const(0)), e)

    def test_x_image_structure(self):
        # x maps to x - R(y - hbar/(x-x0)) under the transport
        R = RatFun.make(P.poly([0, 0, -1]))  # R(t) = -t^2
        out = simplify(sympl_dual_rewrite(X, R))
        yy = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        expect = simplify(sub(X, RatSubst(R.num, R.den, yy)))
        assert op_text(expand(out)) == op_text(expand(expect))

    def test_y_image_structure(self):
        # y maps to y - hbar/(x-x0) + hbar/(x - R(y') - x0 + R(y0'))
        R = RatFun.make(P.poly([0, 0, 1]))
        out = expand(sympl_dual_rewrite(Y, R))
        yz = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        y0z = sub(Y0, Mul((hb(), Inv(sub(X, X0)))))
        corr = Inv(Add((X, Mul((sc(-1), RatSubst(R.num, R.den, yz))), Mul((sc(-1), X0)), RatSubst(R.num, R.den, y0z))))
        expect = expand(Add((yz, Mul((hb(), corr)))))
        assert op_text(out) == op_text(expect)

    def test_two_transports_share_the_dual_of_hbar_over_x_minus_x0(self):
        # x -> y0' - hbar/(x' - x0') under the dual; the shear leaves
        # hbar/(x' - x0') in place, and its dual, built at import, is one
        # object whatever R is
        a = sympl_dual_rewrite(X, RatFun.make(P.poly([0, 0, 1])))
        b = sympl_dual_rewrite(X, RatFun.make(P.poly([1, 2]), P.poly([0, 1])))
        assert a.children[0] != b.children[0]
        dual = a.children[1].children[1]
        assert b.children[1].children[1] is dual
        assert dual == xy_dual_rewrite(Mul((hb(), Inv(sub(Gen("x", "dual"), Gen("x0", "dual"))))))

    def test_two_transports_along_one_r_put_the_same_image_of_y(self):
        R = RatFun.make(P.poly([1, 0, 2]), P.poly([3, 1]))
        a = sympl_dual_rewrite(Y, R)
        b = sympl_dual_rewrite(sub(Y, X), R)
        assert b.children[0] is a
        assert a == xy_dual_rewrite(shear_rewrite(xy_dual_rewrite(Y), R))

    def test_value_equal_r_gives_equal_texts(self):
        e = Add((X, Mul((sc(-1), Y)), Mul((sc(-1), X0)), Y0))
        r1 = RatFun.make(P.poly([2, -1]), P.poly([1, 0, 1])) - RatFun.var()
        r2 = RatFun.make(P.poly([2, -1]), P.poly([1, 0, 1])) - RatFun.var()
        assert r1 is not r2
        assert op_text(simplify(sympl_dual_rewrite(e, r1))) == op_text(simplify(sympl_dual_rewrite(e, r2)))

    def test_the_images_go_with_r(self):
        R = RatFun.make(P.poly([5, 0, 0, 7]))
        sympl_dual_rewrite(sub(Y, X), R)
        assert R in operators._SYMPL_IMAGES
        alive = weakref.ref(R)
        del R
        gc.collect()
        assert alive() is None
        assert RatFun.make(P.poly([5, 0, 0, 7])) not in operators._SYMPL_IMAGES


class TestSingularLimit:
    def test_bessel(self):
        yy = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        xx = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))
        op = sub(sc(1), Mul((Pow(yy, 2), xx)))
        lim = singular_limit(op, "inf", 0)
        out = normal_order_mul_rule(lim)
        expect = simplify(sub(sc(1), Mul((Y, X, Y))))
        assert op_text(out) == op_text(expect)

    def test_rspin(self):
        r = 4
        yy = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        xx = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))
        op = sub(Pow(yy, r), xx)
        lim = singular_limit(op, "inf", "inf")
        expect = simplify(sub(Pow(Y, r), X))
        assert op_text(lim) == op_text(expect)

    def test_negative_rspin(self):
        r = 3
        yy = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
        xx = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))
        op = sub(sc(1), Mul((Pow(yy, r), xx)))
        lim = normal_order_mul_rule(singular_limit(op, "inf", 0))
        expect = simplify(sub(sc(1), Mul((Pow(Y, r - 1), X, Y))))
        assert op_text(lim) == op_text(expect)

    def test_normal_order_matches_x_minus_h_over_y_on_the_side_of_the_y_power(self):
        yd, xd = Gen("y", "dual"), Gen("x", "dual")
        # a plain-side x - hbar/y after a dual y-power is left as it is
        mixed = mul(Pow(yd, 2), sub(X, Mul((hb(), Inv(Y)))))
        assert op_text(normal_order_mul_rule(mixed)) == op_text(simplify(mixed))
        dual = mul(Pow(yd, 2), sub(xd, Mul((hb(), Inv(yd)))))
        assert op_text(normal_order_mul_rule(dual)) == op_text(Mul((yd, xd, yd)))

    def test_normal_order_matches_inside_ratsubst_and_exp(self):
        r_num, r_den = (F(0), F(1)), (F(1), F(1))  # t / (1 + t)
        bare = mul(Pow(Y, 2), sub(X, Mul((hb(), Inv(Y)))))
        yxy = Mul((Y, X, Y))
        assert op_text(normal_order_mul_rule(bare)) == op_text(yxy)
        inside = RatSubst(r_num, r_den, bare)
        assert op_text(normal_order_mul_rule(inside)) == op_text(simplify(RatSubst(r_num, r_den, yxy)))
        assert op_text(normal_order_mul_rule(Exp(bare))) == op_text(simplify(Exp(yxy)))

    def test_ratsubst_at_infinity_with_equal_degrees(self):
        # (2t + 1)/(t + 3) tends to 2
        op = Add((X, ratsubst([1, 2], [3, 1], Y0)))
        assert texteq(singular_limit(op, None, "inf"), Add((X, sc(2))))

    def test_limit_that_inverts_zero_is_refused(self):
        with pytest.raises(OperatorError, match="division by zero"):
            singular_limit(Inv(X0), 0, None)

    def test_surviving_infinity_errors(self):
        with pytest.raises(OperatorError, match="singular limit"):
            singular_limit(Add((X, X0)), "inf", None)

    def test_ratsubst_at_infinity(self):
        # R(x0) with deg num < deg den vanishes at x0 = inf
        op = Add((X, ratsubst([1], [0, 1], X0)))
        lim = singular_limit(op, "inf", None)
        assert texteq(lim, X)


def q_exp(terms: dict, q_order: int) -> HSeries:
    """exp(sum_k q^k terms[k]) as a series in q with Weyl coefficients."""
    return HSeries.make(terms, q_order).exp(WeylPoly.one())


def bch_factors(r: int, q_order: int):
    """exp(G), exp(q x) and exp(q(x - y^r)), where
    G = ((y - q hbar)^{r+1} - y^{r+1}) / (hbar (r+1)) expanded binomially."""
    from math import comb

    G = {}
    for j in range(1, r + 2):
        coeff = Sym.const(comb(r + 1, j)) * Sym.hbar(j).scale((-1) ** j) * Sym.hbar(-1)
        G[j] = WeylPoly.monomial(0, r + 1 - j, coeff) * F(1, r + 1)
        G[j].check_no_negative_hbar()
    x = WeylPoly.monomial(1, 0)
    return q_exp(G, q_order), q_exp({1: x}, q_order), q_exp({1: x - WeylPoly.monomial(0, r)}, q_order)


class TestWeyl:
    def test_commutator(self):
        yx = WeylPoly.monomial(0, 1) * WeylPoly.monomial(1, 0)
        expect = WeylPoly({(1, 1): Sym.const(1), (0, 0): Sym.hbar()})
        assert yx == expect

    def test_exp_qx(self):
        e = q_exp({1: WeylPoly.monomial(1, 0)}, 2)
        assert e.coeffs == {0: WeylPoly.one(), 1: WeylPoly.monomial(1, 0), 2: WeylPoly.monomial(2, 0, F(1, 2))}

    def test_exp_guards(self):
        with pytest.raises(ValueError):  # a q^0 term in the exponent
            q_exp({0: WeylPoly.monomial(0, 1), 1: WeylPoly.monomial(1, 0)}, 2)
        with pytest.raises(OperatorError):
            WeylPoly.monomial(0, 1, Sym.hbar(-1)).check_no_negative_hbar()

    def test_associativity_random(self):
        import random

        rng = random.Random(9)

        def rand_wp():
            out = WeylPoly.zero()
            for _ in range(3):
                out = out + WeylPoly.monomial(rng.randint(0, 2), rng.randint(0, 2), F(rng.randint(-3, 3)))
            return out

        for _ in range(15):
            a, b, c = rand_wp(), rand_wp(), rand_wp()
            assert (a * b) * c == a * (b * c)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bch_identity(self, r):
        """exp(((y-q hbar)^{r+1} - y^{r+1})/(hbar(r+1))) exp(q x) = exp(q(x - y^r)).

        Under the convention y x = x y + hbar the two exponential factors
        multiply in this order (the transposed order holds for the opposite
        sign convention).
        """
        exp_g, exp_qx, rhs = bch_factors(r, 6)
        assert exp_g * exp_qx == rhs

    @pytest.mark.parametrize("r", [2])
    def test_bch_identity_paper_order_fails(self, r):
        # with the factors in the other order the identity does not hold
        exp_g, exp_qx, rhs = bch_factors(r, 4)
        assert exp_qx * exp_g != rhs


class TestGaiottoShift:
    def test_pattern_rewrite(self):
        e = Exp(Add((X, Mul((sc(-1), hb(), Inv(sub(Y, Y0)))))))
        out = gaiotto_shift_identity(e)
        ymy0 = sub(Y, Y0)
        expect = simplify(Mul((Inv(ymy0), Add((ymy0, Mul((sc(-1), hb())))), Exp(X))))
        assert op_text(out) == op_text(expect)

    def test_no_pattern_unchanged(self):
        e = Exp(X)
        assert texteq(gaiotto_shift_identity(e), e)

    def test_pattern_rewrite_inside_ratsubst(self):
        r_num, r_den = (F(0), F(1)), (F(1), F(1))  # t / (1 + t)
        e = RatSubst(r_num, r_den, Exp(Add((X, Mul((sc(-1), hb(), Inv(sub(Y, Y0))))))))
        ymy0 = sub(Y, Y0)
        shifted = Mul((Inv(ymy0), Add((ymy0, Mul((sc(-1), hb())))), Exp(X)))
        assert op_text(gaiotto_shift_identity(e)) == op_text(simplify(RatSubst(r_num, r_den, shifted)))


class TestLinearForm:
    def test_like_generators_are_summed(self):
        assert linear_form(Add((X, Mul((sc(2), X))))) == (Sym(), {"x": F(3)})

    def test_scalar_and_generators(self):
        e = Add((sc(3), hb(), X, Mul((sc(F(-1, 2)), Y0))))
        assert linear_form(e) == (Sym.const(3) + Sym.hbar(), {"x": F(1), "y0": F(-1, 2)})

    @pytest.mark.parametrize("e", [Mul((hb(), X)), Mul((X, Y)), Pow(X, 2), Inv(Y), Exp(X)])
    def test_not_linear(self, e):
        assert linear_form(e) is None
