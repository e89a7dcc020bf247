"""Fixture registry: each entry computes its differentials, derives
operators along the declared route, and certifies annihilation.

A fixture certifies the object it emits or transports: the operator handed
to `check_annihilation` is the very object handed to the rewrite, or a
factor of it, never a twin written on another side.  The hand-written
`expect` operators are the independent oracles the rewrites are compared
with.  Where the paper prints the other sign of a transported exponent,
the sign is fixed by the exponent's classical value on the target curve:
`exp_lograt` on `LogRat` arithmetic must give a rational function for the
engine's sign and raise `WaveError` for the printed one.

Named parameters are bound to sampled rationals per run (seeded), in the
spirit of polynomial identity testing: curves and operators carry no
symbolic parameter, and operator scalars are rational in hbar alone.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from math import comb

from .algebra import INF, HSeries, LogRat, RatFun, Rf2
from .algebra import poly as P
from .curve import SpectralCurve
from .laplace import SaddleProblem, check_extlaplace_airy, check_transform_inverse_airy, saddle_expand
from .operators import (
    Add,
    CoordMul,
    Exp,
    Gen,
    Inv,
    Mul,
    OpExpr,
    Pow,
    RatSubst,
    Scalar,
    Sym,
    X,
    X0,
    Y,
    Y0,
    expand,
    gaiotto_shift_identity,
    hb,
    normal_order_mul_rule,
    op_text,
    sc,
    simplify,
    singular_limit,
    sub,
    sympl_dual_rewrite,
    WeylPoly,
    _map_gens,
    _power_of,
    xy_dual_rewrite,
)
from .recursion import OmegaStore, orbit_size, run_tr, s_inverse_coeff, symmetry_witness
from .wave import (
    WaveData,
    WaveError,
    apply_inverse,
    apply_shift,
    build_wave_data,
    check_annihilation,
    evaluate_operator,
    evaluate_operator_on,
    exp_lograt,
    sym_insert,
    sym_is_zero,
    sym_unit,
    wave_from_streams,
)


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""
    # "engine": a failure is an engine defect; "paper": a comparison with
    # coefficients printed in the paper, reported but not held against it
    kind: str = "engine"


@dataclass
class FixtureResult:
    name: str
    route: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    emitted: dict = field(default_factory=dict)
    omega_summary: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def record(self, label: str, passed: bool, detail: str = "", kind: str = "engine") -> None:
        self.checks.append(Check(label, bool(passed), detail, kind))

    @property
    def passed(self) -> bool:
        """Whether every engine check passed; paper comparisons do not count."""
        return all(c.passed for c in self.checks if c.kind == "engine")


def _lr(coeffs, den=(1,)) -> LogRat:
    return LogRat.from_ratfun(RatFun.make(P.poly(coeffs), P.poly(den)))


def _summary(store: OmegaStore) -> dict:
    """The number of ordered terms of each omega."""
    return {f"{g},{n}": sum(map(orbit_size, pd.orbits)) for (g, n), pd in sorted(store.omegas.items())}


def _sym_diff_zero(a, b) -> bool:
    d = dict(a)
    for _k, (p, s) in b.items():
        sym_insert(d, p, -s)
    ok, _w = sym_is_zero(d)
    return ok


# ---------------------------------------------------------------------------
# operator builders


def airy_fraction_operator() -> OpExpr:
    return Add((
        Pow(Y, 2),
        Mul((sc(-1), X)),
        Mul((sc(-1), hb(), sub(Y, Y0), Inv(sub(X, X0)))),
    ))


_DRESSED_Y = sub(Y, Mul((hb(), Inv(sub(X, X0)))))
_DRESSED_X = sub(X, Mul((hb(), Inv(sub(Y, Y0)))))


def dressed_y() -> OpExpr:
    """y - hbar/(x - x0), one shared immutable operator, as X and Y are:
    what simplify and expand keep on it serves every later call."""
    return _DRESSED_Y


def dressed_x() -> OpExpr:
    """x - hbar/(y - y0), one shared immutable operator, as X and Y are."""
    return _DRESSED_X


def pq_generic_operator(p: P.Poly, q: P.Poly) -> OpExpr:
    """p(y - hbar/(x-x0)) - q(y - hbar/(x-x0)) (x - hbar/(y-y0))."""
    A = dressed_y()
    return sub(RatSubst(p, P.ONE, A), Mul((RatSubst(q, P.ONE, A), dressed_x())))


def pq_dual_operator(p: P.Poly, q: P.Poly, side: str = "dual") -> OpExpr:
    x0, y0 = Gen("x0", side), Gen("y0", side)
    return sub(RatSubst(p, P.ONE, x0), Mul((RatSubst(q, P.ONE, x0), y0)))


# ---------------------------------------------------------------------------
# shared property suite


def property_suite(res: FixtureResult, wave: WaveData, order: int) -> None:
    """Commutators, inverse soundness, shift group law on given wave data."""
    has_main, has_base = "z" in wave.y, "w" in wave.y
    main_rational = has_main and not wave.x["z"].has_logs() and not wave.y["z"].has_logs()
    base_rational = has_base and not wave.x["w"].has_logs() and not wave.y["w"].has_logs()
    if main_rational:
        com = sub(Mul((Y, X)), Mul((X, Y)))
        rep = check_annihilation(sub(com, hb()), wave, order)
        res.record("commutator [y,x] = hbar", rep.passed, rep.summary())
    if base_rational:
        com0 = Add((sub(Mul((Y0, X0)), Mul((X0, Y0))), hb()))
        rep = check_annihilation(com0, wave, order)
        res.record("commutator [y0,x0] = -hbar", rep.passed, rep.summary())
    if has_main:
        u = sym_unit(order)
        a = apply_shift(apply_shift(u, Fraction(1, 3), wave, "z"), Fraction(1, 2), wave, "z")
        b = apply_shift(u, Fraction(5, 6), wave, "z")
        res.record("shift group law", _sym_diff_zero(a, b))
        if main_rational and base_rational:
            inner = sub(Y, Y0)
            target = evaluate_operator(X, wave)
            inv = apply_inverse(inner, target, wave)
            back = evaluate_operator_on(inner, inv, wave)
            res.record("inverse soundness", _sym_diff_zero(back, target))
    if has_main and has_base:
        ok = True
        for j, v in wave.tail["z"].coeffs.items():
            mirror = v.swap() if j % 2 == 0 else -v.swap()
            if wave.tail["w"].coeffs.get(j, 0) != mirror:
                ok = False
        res.record("base-swap parity of streams", ok)


def omega_property_suite(res: FixtureResult, store: OmegaStore) -> None:
    """Symmetry by the witness step, which computes each orbit again from
    its largest slot as head, and no residue terms."""
    ok_res = all(pd.min_order() >= 2 for pd in store.omegas.values())
    res.record("omega symmetry", not symmetry_witness(store))
    res.record("omega residuelessness", ok_res)


def homogeneity_shear_suite(res: FixtureResult, store: OmegaStore, chi: int, rng) -> None:
    """Homogeneity in y and shear invariance, for curves with rational x, y:
    the store's curve with y scaled by lambda, and with y + R(x) for
    R = r0 + r1 x + r2 x^2, recomputed to chi."""
    curve = store.curve
    for lam in (Fraction(2), Fraction(-3)):
        st2 = run_tr(replace(curve, name=f"{curve.name}-s", y=curve.y.scale(lam)), chi)
        ok = all(
            st2.get(g, n) == pd.scale(lam ** (2 - 2 * g - n))
            for (g, n), pd in store.omegas.items()
        )
        res.record(f"homogeneity lambda={lam}", ok)
    for _ in range(2):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        shear = RatFun.make(P.poly(coeffs)).compose(curve.x.rat)
        st2 = run_tr(replace(curve, name=f"{curve.name}-sh", y=curve.y + shear), chi)
        ok = all(st2.get(g, n) == pd for (g, n), pd in store.omegas.items())
        res.record(f"shear invariance R={coeffs}", ok)


# ---------------------------------------------------------------------------
# fixtures


def fixture_airy(order: int = 6, seed: int = 1, fast: bool = False) -> FixtureResult:
    res = FixtureResult("airy", "direct")
    if fast:
        order = min(order, 4)
    chi = order - 1
    curve = SpectralCurve("airy", _lr([0, 0, 1]), _lr([0, 1]))
    store = run_tr(curve, chi)
    res.omega_summary = _summary(store)
    wave = build_wave_data(store, "generic", order)
    rep = check_annihilation(airy_fraction_operator(), wave, order)
    res.record(f"fraction-form operator annihilates to hbar^{order}", rep.passed, rep.summary())
    dressed = sub(Pow(dressed_y(), 2), dressed_x())
    rep2 = check_annihilation(dressed, wave, order)
    res.record(f"dressed-form operator annihilates to hbar^{order}", rep2.passed, rep2.summary())
    res.emitted["airy_generic"] = op_text(simplify(dressed))
    # properties
    omega_property_suite(res, store)
    property_suite(res, wave, order)
    homogeneity_shear_suite(res, run_tr(curve, min(chi, 3)), min(chi, 3), random.Random(seed))
    return res


def fixture_bessel(order: int = 6, seed: int = 1, fast: bool = False) -> FixtureResult:
    res = FixtureResult("bessel", "direct+xy-dual")
    if fast:
        order = min(order, 4)
    chi = order - 1
    curve = SpectralCurve("bessel", _lr([0, 0, 1]), LogRat.from_ratfun(RatFun.make(P.ONE, P.X)))
    store = run_tr(curve, chi)
    res.omega_summary = _summary(store)
    wave = build_wave_data(store, "generic", order)
    op = sub(sc(1), Mul((Pow(dressed_y(), 2), dressed_x())))
    rep = check_annihilation(op, wave, order)
    res.record(f"generic operator annihilates to hbar^{order}", rep.passed, rep.summary())
    lim = normal_order_mul_rule(singular_limit(op, "inf", 0))
    res.emitted["bessel_singular"] = op_text(lim)
    expect = simplify(sub(sc(1), Mul((Y, X, Y))))
    res.record("singular limit emits 1 - y x y", lim == expect, op_text(lim))
    # annihilation of the emitted operator on regularized singular-base data
    wave_s = build_wave_data(store, ("main", INF), order)
    rep2 = check_annihilation(lim, wave_s, order)
    res.record("singular operator annihilates regularized data", rep2.passed, rep2.summary())
    omega_property_suite(res, store)
    property_suite(res, wave, order)
    homogeneity_shear_suite(res, run_tr(curve, min(chi, 3)), min(chi, 3), random.Random(seed))
    return res


def _sample_pq(rng) -> tuple:
    while True:
        p = P.poly([Fraction(rng.randint(-4, 4)) for _ in range(3)] + [Fraction(rng.choice([1, 2, -1]))])
        q = P.poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if P.is_zero(q) or P.is_zero(p):
            continue
        if P.degree(P.gcd(p, q)) == 0:
            return p, q


def fixture_pq(order: int = 6, seed: int = 11, samples: int = 3, fast: bool = False) -> FixtureResult:
    res = FixtureResult("pq-rational", "xy-dual+symplectic")
    if fast:
        order, samples = min(order, 4), 1
    rng = random.Random(seed)
    for i in range(samples):
        p, q = _sample_pq(rng)
        res.params[f"sample{i}"] = {"p": P.to_str(p, "y"), "q": P.to_str(q, "y")}
        # dual curve: x = z, y = p(z)/q(z); all stable differentials vanish
        dual_curve = SpectralCurve(f"pq-dual-{i}", _lr([0, 1]), LogRat.from_ratfun(RatFun.make(p, q)))
        store = run_tr(dual_curve, order - 1)
        wave = build_wave_data(store, "generic", order)
        dual_op = pq_dual_operator(p, q)
        rep = check_annihilation(dual_op, wave, order)
        res.record(f"sample {i}: dual operator annihilates to hbar^{order}", rep.passed, rep.summary())
        # route 1: literal x-y dual rewrite must give the rational quantum curve
        emitted = simplify(xy_dual_rewrite(dual_op))
        expect = simplify(pq_generic_operator(p, q))
        res.record(f"sample {i}: x-y dual emits the rational quantum curve", emitted == expect)
        if i == 0:
            res.emitted["pq_generic"] = op_text(expect)
        # route 2: symplectic transport of the trivial curve + reduce-modulo
        ok2, note = _pq_route2(p, q)
        res.record(f"sample {i}: routes agree after reduce-modulo", ok2, note)
        if i == 0:
            property_suite(res, wave, order)
    return res


def _pq_route2(p: P.Poly, q: P.Poly) -> tuple[bool, str]:
    """Transport -x+y and x-y-x0+y0 from the trivial curve along
    R(t) = p/q - t, reduce the denominator modulo the second operator,
    and compare with the x-y-dual route."""
    R = RatFun.make(p, q) - RatFun.var()
    p1 = simplify(sympl_dual_rewrite(sub(Y, X), R))
    p2 = simplify(sympl_dual_rewrite(Add((X, Mul((sc(-1), Y)), Mul((sc(-1), X0)), Y0)), R))
    A = dressed_y()
    A0 = sub(Y0, Mul((hb(), Inv(sub(X, X0)))))
    # the transported forms, written with R-atoms: p/q(t) = R(t) + t
    rsA = RatSubst(R.num, R.den, A)
    rsA0 = RatSubst(R.num, R.den, A0)
    p2_expect = simplify(Add((
        X,
        Mul((sc(-1), rsA)),
        Mul((sc(-1), A)),
        Mul((sc(-1), X0)),
        rsA0,
        A0,
    )))
    if expand(sub(p2, p2_expect)) != sc(0):
        return False, f"transported second operator has unexpected form: {op_text(p2)[:200]}"
    # p1 = p/q(A) - x + hbar/D with D = (p2 content) + (y - y0)
    D_expect = Add((X, Mul((sc(-1), rsA)), Mul((sc(-1), A)), Mul((sc(-1), X0)), rsA0, A0, sub(Y, Y0)))
    p1_expect = simplify(Add((
        rsA,
        A,
        Mul((sc(-1), X)),
        Mul((hb(), Inv(D_expect))),
    )))
    if expand(sub(p1, p1_expect)) != sc(0):
        return False, f"transported first operator has unexpected form: {op_text(p1)[:200]}"
    # reduce-modulo: the p2 summand inside the denominator is replaced by 0;
    # multiply by q(A) from the left and distribute over the four terms
    reduced = Add((rsA, A, Mul((sc(-1), X)), Mul((hb(), Inv(sub(Y, Y0))))))
    qA = RatSubst(q, P.ONE, A)
    final = Add(tuple(Mul((qA, t)) for t in reduced.children))
    if expand(sub(final, pq_generic_operator(p, q))) != sc(0):
        return False, f"reduced operator differs from the x-y dual route: {op_text(simplify(final))[:200]}"
    return True, ""


def fixture_rspin(r: int, order: int = 6, negative: bool = False, fast: bool = False) -> FixtureResult:
    name = f"{'negative-' if negative else ''}rspin-r{r}"
    res = FixtureResult(name, "xy-dual+singular-limit")
    if fast:
        order = min(order, 4)
    if negative:
        p, q = P.ONE, P.poly([0] * r + [1])
        dual_curve = SpectralCurve(name + "-dual", LogRat.from_ratfun(RatFun.make(P.ONE, P.X)), _lr([0] * r + [1]))
    else:
        p, q = P.poly([0] * r + [1]), P.ONE
        dual_curve = SpectralCurve(name + "-dual", _lr([0, 1]), _lr([0] * r + [1]))
    store = run_tr(dual_curve, order - 1)
    wave = build_wave_data(store, "generic", order)
    dual_op = pq_dual_operator(p, q)
    rep = check_annihilation(dual_op, wave, order)
    res.record(f"dual-side operator annihilates to hbar^{order}", rep.passed, rep.summary())
    generic = simplify(xy_dual_rewrite(dual_op))
    if negative:
        lim = normal_order_mul_rule(singular_limit(generic, "inf", 0))
        expect = simplify(sub(sc(1), Mul((Pow(Y, r - 1), X, Y))))
        label = "1 - y^{r-1} x y"
    else:
        lim = singular_limit(generic, "inf", "inf")
        expect = simplify(sub(Pow(Y, r), X))
        label = "y^r - x"
    res.emitted[f"{name}_singular"] = op_text(lim)
    res.record(f"singular limit emits {label}", lim == expect, op_text(lim))
    return res


def fixture_logtr_closed_form(order: int = 6, seed: int = 5, fast: bool = False) -> FixtureResult:
    res = FixtureResult("logtr-closed-form", "direct")
    rng = random.Random(seed)
    a1 = Fraction(rng.randint(1, 6))
    a2 = a1 + Fraction(rng.randint(1, 5))
    alphas = [(a1, Fraction(1)), (a2, Fraction(-1))]
    res.params["vital"] = [[str(a), str(al)] for a, al in alphas]
    x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
    y = LogRat.make(RatFun.const(0), [(1 / al, RatFun.var() - a) for a, al in alphas])
    curve = SpectralCurve("logtr", x, y)
    gmax = 2 if fast else 3
    store = run_tr(curve, 2 * gmax - 1)
    res.omega_summary = _summary(store)
    xp = curve.dx
    for g in range(1, gmax + 1):
        expect = RatFun.const(0)
        cg = s_inverse_coeff(g)
        for a, al in alphas:
            f = (RatFun.const(1) / (RatFun.var() - a)) / xp
            for _ in range(2 * g - 1):
                f = f.derivative() / xp
            expect = expect + f * xp * cg * al ** (2 * g - 1)
        got = store.get(g, 1).as_ratfun()
        res.record(f"omega_({g},1) equals the S-series closed form", got == expect)
    vanish = all(pd.is_zero() for (g, n), pd in store.omegas.items() if n >= 2)
    res.record("omega_(g,n) vanish for n >= 2", vanish)
    omega_property_suite(res, store)
    return res


def hurwitz_dagger_operator(q: int) -> OpExpr:
    return Add((
        Gen("y", "dagger"),
        Mul((sc(-1), hb(), sc(Fraction(1, 2)))),
        Mul((sc(-1), Exp(Mul((sc(q), Gen("x", "dagger")))))),
    ))


def fixture_hurwitz(q: int = 1, r: int = 2, order: int = 6, fast: bool = False) -> FixtureResult:
    res = FixtureResult(f"hurwitz-q{q}-r{r}", "symplectic+singular-limit")
    if fast:
        order = min(order, 4)
    x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
    y = _lr([0] * q + [1])
    curve = SpectralCurve("hurwitz-dagger", x, y)
    store = run_tr(curve, order - 1)
    wave = build_wave_data(store, ("main", INF), order)
    op = hurwitz_dagger_operator(q)
    rep = check_annihilation(op, wave, order)
    res.record(f"dagger operator annihilates sqrt(z) exp(z^q/(q hbar)) to hbar^{order}", rep.passed, rep.summary())
    # transport along x = x_dagger - y_dagger^r
    R = RatFun.make(P.poly([0] * r + [-1]))
    transported = sympl_dual_rewrite(op, R)
    emitted = simplify(singular_limit(transported, "inf", "inf"))
    res.emitted[f"hurwitz_q{q}_r{r}"] = op_text(emitted)
    # the engine emits exp(q(x + y^r)); the paper prints exp(q(x - y^r)).
    # resolve the sign on the classical values of the target curve, where
    # x = log z - z^{rq} and y = z^q: exp(q(x + y^r)) must be y
    x_t = LogRat.make(RatFun.make(P.poly([0] * (r * q) + [-1])), [(1, RatFun.var())])
    y_r = y.rat ** r
    ok_plus = exp_lograt((x_t + y_r).scale(q)) == y.rat
    ok_minus = True
    try:
        exp_lograt((x_t - y_r).scale(q))
    except WaveError:
        ok_minus = False  # the printed sign is not classically rational
    res.record("classical limit fixes the exponent sign to +y^r", ok_plus and not ok_minus)
    res.notes.append(
        "sign resolution: the transported exponent is q(x + y^r); the printed "
        "form q(x - y^r) fails the classical check on x = log z - z^{rq}"
    )
    expect = simplify(Add((
        Gen("y", "dagger"),
        Mul((sc(-1), hb(), sc(Fraction(1, 2)))),
        Mul((sc(-1), Exp(Add((Mul((sc(q), Gen("x", "dagger"))), Mul((sc(q), Pow(Gen("y", "dagger"), r)))))))),
    )))
    res.record("transported operator matches the sign-resolved form", emitted == expect, op_text(emitted))
    # BCH identity in the Weyl algebra
    for rr in (1, 2, 3):
        res.record(f"BCH identity to q^6 for r={rr}", _bch_holds(rr, 6))
    return res


def _bch_holds(r: int, q_order: int) -> bool:
    """exp(G) exp(q x) = exp(q(x - y^r)) to q^q_order, where
    G = ((y - q hbar)^{r+1} - y^{r+1}) / (hbar (r+1)).  Each side is a series
    in q whose coefficients are normal-ordered Weyl polynomials."""
    def exp(terms: dict) -> HSeries:
        for v in terms.values():
            v.check_no_negative_hbar()
        return HSeries.make(terms, q_order).exp(WeylPoly.one())

    # the q^j term of G: C(r+1, j) (-hbar)^j y^{r+1-j} / (hbar (r+1))
    G = {
        j: WeylPoly.monomial(0, r + 1 - j, Sym.hbar(j - 1).scale(Fraction((-1) ** j * comb(r + 1, j), r + 1)))
        for j in range(1, r + 2)
    }
    x = WeylPoly.monomial(1, 0)
    return exp(G) * exp({1: x}) == exp({1: x - WeylPoly.monomial(0, r)})


def fixture_homfly(order: int = 4, seed: int = 23, fast: bool = False) -> FixtureResult:
    res = FixtureResult("homfly-torus-knot", "symplectic+singular-limit")
    rng = random.Random(seed)
    A = Fraction(rng.randint(2, 7), rng.choice([1, 2, 3]))
    while A in (0, 1, -1):
        A = A + 1
    res.params["A"] = str(A)
    Pq, Qq = 2, 3
    x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
    # y = log f, f = (1 - z/A)/(1 - A z)
    f_num, f_den = P.poly([1, -1 / A]), P.poly([1, -A])
    y = LogRat.make(RatFun.const(0), [(1, RatFun.make(f_num)), (-1, RatFun.make(f_den))])
    curve = SpectralCurve("homfly-dagger", x, y)
    store = run_tr(curve, order - 1)
    res.omega_summary = _summary(store)
    wave = build_wave_data(store, ("main", INF), order)
    op_emit = sub(
        Exp(Mul((sc(Fraction(1, 2)), Gen("y", "dagger")))),
        Mul((
            Exp(Scalar(Sym.hbar().scale(Fraction(1, 2)))),
            RatSubst(f_num, f_den, Exp(Gen("x", "dagger"))),
            Exp(Mul((sc(Fraction(-1, 2)), Gen("y", "dagger")))),
        )),
    )
    rep = check_annihilation(op_emit, wave, order)
    res.record(f"dagger operator annihilates the Log-TR wave data to hbar^{order}", rep.passed, rep.summary())
    # transport x = x_dagger - (P/Q) y_dagger
    R = RatFun.make(P.poly([0, Fraction(-Pq, Qq)]))
    emitted = simplify(singular_limit(sympl_dual_rewrite(op_emit, R), "inf", None))
    res.emitted[f"homfly_P{Pq}_Q{Qq}"] = op_text(emitted)
    inner = Add((Gen("x", "dagger"), Mul((sc(Fraction(Pq, Qq)), Gen("y", "dagger")))))
    expect = simplify(sub(
        Exp(Mul((sc(Fraction(1, 2)), Gen("y", "dagger")))),
        Mul((
            Exp(Scalar(Sym.hbar().scale(Fraction(1, 2)))),
            RatSubst(f_num, f_den, Exp(inner)),
            Exp(Mul((sc(Fraction(-1, 2)), Gen("y", "dagger")))),
        )),
    ))
    res.record("transported operator matches the sign-resolved form", emitted == expect, op_text(emitted))
    # classical certification of the emitted operator
    y_t = y
    x_t = x - y_t.scale(Fraction(Pq, Qq))
    ok1 = exp_lograt(y_t) == RatFun.make(f_num, f_den)
    ok2 = exp_lograt(x_t + y_t.scale(Fraction(Pq, Qq))) == RatFun.var()
    ok3 = False
    try:
        exp_lograt(x_t - y_t.scale(Fraction(Pq, Qq)))
    except WaveError:
        ok3 = True  # the printed sign is not classically rational
    res.record("classical identities fix the exponent sign", ok1 and ok2 and ok3)
    res.notes.append("the engine exponent is x + (P/Q) y; the paper prints x - (P/Q) y")
    property_suite(res, wave, order)
    return res


def fixture_gaiotto(order: int = 4, seed: int = 31, fast: bool = False) -> FixtureResult:
    res = FixtureResult("gaiotto-r2", "xy-dual+shift-identity")
    rng = random.Random(seed)
    lam = Fraction(rng.randint(2, 5))
    p1, p2 = Fraction(rng.randint(1, 4)), Fraction(rng.randint(5, 8))
    q1 = Fraction(rng.randint(9, 12))
    res.params.update({"Lambda": str(lam), "P1": str(p1), "P2": str(p2), "Q1": str(q1)})
    # dual side: x = z, y = log(-Lam^2 (P1+z)(P2+z)/(Q1-z))
    ybig = LogRat.make(
        RatFun.const(0),
        [
            (1, RatFun.const(-(lam**2))),
            (1, RatFun.var() + p1),
            (1, RatFun.var() + p2),
            (-1, RatFun.const(-1) * (RatFun.var() - q1)),
        ],
    )
    curve = SpectralCurve("gaiotto-dual", _lr([0, 1]), ybig)
    store = run_tr(curve, order - 1)
    res.omega_summary = _summary(store)
    wave = build_wave_data(store, "generic", order)
    # difference-equation operator: e^{y0/2} + Lam^2 Pi(P+x0)/(Q1-x0) e^{-y0/2}
    num = P.mul(P.poly([p1, 1]), P.poly([p2, 1]))
    num = P.scale(num, lam**2)
    den = P.poly([q1, -1])
    x0, y0 = Gen("x0", "dual"), Gen("y0", "dual")
    opd = Add((
        Exp(Mul((sc(Fraction(1, 2)), y0))),
        Mul((RatSubst(num, den, x0), Exp(Mul((sc(Fraction(-1, 2)), y0))))),
    ))
    rep = check_annihilation(opd, wave, order)
    res.record(f"dual difference operator annihilates to hbar^{order}", rep.passed, rep.summary())
    # product form annihilates the half-shifted wave function, checked as
    # the composition with the half shift
    op_prod = Add((
        Mul((Add((sc(q1), Mul((sc(-1), x0)))), Exp(y0))),
        Mul((sc(lam**2), Add((sc(p1), x0)), Add((sc(p2), x0)))),
    ))
    rep2 = check_annihilation(Mul((op_prod, Exp(Mul((sc(Fraction(-1, 2)), y0))))), wave, order)
    res.record("product form annihilates the half-shifted wave function", rep2.passed, rep2.summary())
    # emission: dual rewrite, base at the pole Q1 of the tilde x
    transported = xy_dual_rewrite(op_prod)
    lim = simplify(singular_limit(transported, "inf", q1))
    final = gaiotto_shift_identity(lim)
    res.emitted["gaiotto_r2"] = op_text(final)
    expect = simplify(Add((
        Mul((Add((sc(Sym.const(q1) + Sym.hbar()), Mul((sc(-1), Y)))), Exp(X))),
        Mul((sc(lam**2), Add((sc(p1), Y)), Add((sc(p2), Y)))),
    )))
    res.record("scripted emission matches the Q + hbar shift pattern", final == expect, op_text(final))
    property_suite(res, wave, order)
    return res


def fixture_gentr_airy(order: int = 6, fast: bool = False) -> FixtureResult:
    res = FixtureResult("gentr-airy", "direct+saddle")
    if fast:
        order = min(order, 4)
    # empty special set: all stable differentials vanish
    curve = SpectralCurve("gentr-airy", _lr([0, 0, 1]), _lr([0, 1]), special_set=())
    store = run_tr(curve, order - 1)
    res.record("all stable differentials vanish", all(pd.is_zero() for pd in store.omegas.values()))
    wave = build_wave_data(store, "generic", order)
    zfun = RatFun.var()
    sqx = CoordMul("z", zfun)
    sqx0 = CoordMul("z0", zfun)
    sq_sum = Add((sqx, sqx0))
    op = Add((
        Pow(Y0, 2),
        Mul((sc(-1), X0)),
        Mul((hb(), Inv(sq_sum))),
        Mul((
            sc(Sym.hbar(2).scale(Fraction(1, 16))),
            Add((Mul((sc(3), sqx0)), Mul((sc(-5), sqx)))),
            Inv(Pow(X0, 2)),
            Inv(sq_sum),
        )),
    ))
    rep = check_annihilation(op, wave, order)
    res.record("explicit operator with hbar and hbar^2 corrections annihilates", rep.passed, rep.summary())
    # exactness: the symbol terminates, so passing at this order is an
    # all-orders statement; assert the streams are hbar-finite
    res.record("wave streams terminate at hbar^1", all(k <= 1 for k in wave.tail["w"].coeffs))

    # dual side at the doubly singular base: build the wave data by a
    # one-variable formal Gaussian transform of the regularized psi
    v = RatFun.var()
    one = RatFun.const(1)
    quad = [v * 2]
    vertices = {(3,): one * Fraction(2, 3)}
    # amplitude 2 sqrt(chi) around chi = -v, the constant factored out:
    # (1 + t/chi)^{1/2} with chi = -v
    amp: dict = {}
    coeff = one
    inv_chi = RatFun.const(-1) / v
    binom = Fraction(1)
    for k in range(0, 2 * order + 2):
        if k == 0:
            amp[(0,)] = one
            coeff = one
        else:
            binom = binom * (Fraction(1, 2) - (k - 1)) / k
            coeff = coeff * inv_chi
            amp[(k,)] = coeff * binom
    prob = SaddleProblem(quad, vertices, amp, one)
    series = saddle_expand(prob, order)
    s0 = series.coeff(0)
    norm = series.map(lambda c: c / s0)
    # Y = hbar d/dv log psi = v^2 + hbar * N'/N
    nprime = norm.map(lambda c: c.derivative())
    tail = (nprime * norm.invert()).shift(1).truncate(order)
    dual_wave = wave_from_streams(_lr([0, 1]), _lr([0, 0, 1]), tail, order)
    dual_op = Add((
        Mul((Pow(Y, 2), Pow(X, 2))),
        Mul((sc(-1), Pow(Y, 3))),
        sc(Sym.hbar(2).scale(Fraction(-5, 16))),
    ))
    rep2 = check_annihilation(dual_op, dual_wave, order)
    res.record(
        f"dual singular-base operator annihilates the transform to hbar^{order}",
        rep2.passed,
        rep2.summary(),
    )
    res.emitted["gentr_airy_dual"] = op_text(simplify(dual_op))
    property_suite(res, wave, order)
    return res


def fixture_rs_curve(r: int, order: int = 6, fast: bool = False) -> FixtureResult:
    """(r, s) curve at s = 2: base-variable wave data of the trivial dual
    side, Galois-averaging script, and the final dual emission.

    The paper's printed coefficients (3 hbar/4 in the base factor, the
    -9 hbar^2/16 term, -r hbar/2 y0) are inconsistent with its own
    pre-limit wave function; see the derivation notes.  The engine derives
    the base factor from the certified streams and scripts the rest.
    """
    s = 2
    res = FixtureResult(f"rs-curve-r{r}-s2", "scripted")
    if fast:
        order = min(order, 4)
    # dual side: x = z^{-2}, y = z^r, empty special set
    curve = SpectralCurve(
        f"rs-dual-r{r}",
        LogRat.from_ratfun(RatFun.make(P.ONE, P.poly([0, 0, 1]))),
        _lr([0] * r + [1]),
        special_set=(),
    )
    store = run_tr(curve, order - 1)
    wave = build_wave_data(store, ("base", INF), order)
    # streams fix the regularized psi: Y0 = w^r - (hbar/4) w^2
    expect_tail = Rf2.from_ratfun_w(RatFun.make(P.poly([0, 0, Fraction(-1, 4)])))
    res.record("regularized (0,2) stream equals -w^2/4 hbar", wave.tail["w"].coeff(1) == expect_tail)
    w_r = RatFun.make(P.poly([0] * r + [1]))
    w_2 = RatFun.make(P.poly([0, 0, 1]))
    u_op = CoordMul("z0", w_r)        # (x0)^{-r/2} via the pullback w^r
    inv_x0 = CoordMul("z0", w_2)      # (x0)^{-1} = w^2
    beta = Fraction(1, 4)
    base_factor = Add((Y0, Mul((sc(-1), u_op)), Mul((sc(Sym.hbar().scale(beta)), inv_x0))))
    conj_factor = Add((Y0, u_op, Mul((sc(Sym.hbar().scale(beta)), inv_x0))))
    # the script: the conjugate factor times the base factor, plus
    # -(r hbar/2) x0^{-1} times the base factor; the base factor and each
    # running operator are certified
    label = "Galois-averaging script certified at every step"
    step0 = simplify(Mul((conj_factor, base_factor)))
    final = simplify(Add((step0, Mul((Mul((sc(Sym.hbar().scale(Fraction(-r, 2))), inv_x0)), base_factor)))))
    for op, failure in (
        (base_factor, "initial operator does not annihilate"),
        (step0, "annihilation lost at step 0"),
        (final, "annihilation lost at step 1"),
    ):
        rep = check_annihilation(op, wave, order)
        if not rep.passed:
            res.record(label, False, f"{failure}: {rep.summary()}")
            return res
    res.record(label, True)
    # lint: the final operator must be free of fractional pullback powers
    nf = _base_normal_form(final)
    res.record("final operator is fraction-free in x0", nf is not None)
    derived = {
        (0, 2): Sym.const(1),
        (-r, 0): Sym.const(-1),
        (-1, 1): Sym.hbar().scale(Fraction(-(r - 1), 2)),
        (-2, 0): Sym.hbar(2).scale(Fraction(5 - 2 * r, 16)),
    }
    res.record("script reproduces the stream-derived operator", nf == derived, str(nf))
    paper = {
        (0, 2): Sym.const(1),
        (-r, 0): Sym.const(-1),
        (-1, 1): Sym.hbar().scale(Fraction(-r, 2)),
        (-2, 0): Sym.hbar(2).scale(Fraction(-9, 16)),
    }
    res.record(
        "script reproduces the printed operator with the 9 hbar^2/16 term",
        nf == paper,
        "printed coefficients are inconsistent with the printed wave function; see notes",
        kind="paper",
    )
    res.notes.append(
        "base factor carries hbar/4 (not 3 hbar/4): the printed regularized "
        "wave function drops the log x0 contribution of the third exponent "
        "term; at s = 1 the printed coefficient contradicts the negative "
        "r-spin quantum curve while the derived one reproduces it"
    )
    # final x-y dual emission at the singular base x0 = inf, y0 = 0
    def emit(nf: dict) -> OpExpr:
        dual = _relabel_dual(_base_normal_to_ops(nf, r))
        return normal_order_mul_rule(simplify(Mul((Pow(Y, r), singular_limit(xy_dual_rewrite(dual), "inf", 0)))))

    emitted = emit(derived)
    res.emitted[f"rs_r{r}_s2_final"] = op_text(emitted)
    res.record(
        "final emission matches the printed last display",
        emitted == emit(paper),
        "differs in the inherited hbar and hbar^2 coefficients",
        kind="paper",
    )
    return res


def _relabel_dual(e: OpExpr) -> OpExpr:
    return _map_gens(e, lambda g: Gen(g.kind, "dual"))


def _base_normal_form(e: OpExpr):
    """Collect a base-operator expression into {(x0 power, y0 power): Sym}.

    Pullback multipliers w^m (with w the coordinate and x0 = w^{-2}) are
    carried as half-integer x0 powers through the normal ordering; only
    the collected result must be even in w, else the operator is
    fractional and None is returned.
    """
    e = expand(e)
    terms = e.children if isinstance(e, Add) else (e,)
    out: dict = {}  # (m in w-units, y0 power) -> Sym

    def addterm(key, v):
        cur = out.get(key, Sym.const(0)) + v
        if cur.is_zero():
            out.pop(key, None)
        else:
            out[key] = cur

    for t in terms:
        pending = [(Sym.const(1), 0, 0, list(t.children) if isinstance(t, Mul) else [t])]
        while pending:
            c, m_, yp_, rest = pending.pop()
            if c.is_zero():
                continue
            if not rest:
                addterm((m_, yp_), c)
                continue
            f, rest = rest[0], rest[1:]
            power, base = _power_of(f)
            if isinstance(f, Scalar):
                pending.append((c * f.value, m_, yp_, rest))
            elif isinstance(base, Gen) and base.kind == "y0" and power > 0:
                pending.append((c, m_, yp_ + power, rest))
            elif isinstance(base, Gen) and base.kind == "x0":
                pending.append((c, m_, yp_, [CoordMul("z0", RatFun.var() ** (-2 * power))] + rest))
            elif isinstance(f, CoordMul) and f.var == "z0":
                m = _w_monomial(f.fn)
                if m is None:
                    return None
                # y0^n w^m = sum_j C(n,j) (m/2)^(j-falling) hbar^j w^(m+2j) y0^(n-j)
                # from [y0, x0^k] = -hbar k x0^(k-1) with k = -m/2
                k = Fraction(-m, 2)
                for j in range(yp_ + 1):
                    fall = Fraction(1)
                    for i in range(j):
                        fall *= k - i
                    cc = c * Sym.hbar(j).scale(Fraction(comb(yp_, j)) * fall * Fraction((-1) ** j))
                    pending.append((cc, m_ + m + 2 * j, yp_ - j, list(rest)))
            else:
                return None
    clean = {}
    for (m_, yp_), v in out.items():
        if v.is_zero():
            continue
        if m_ % 2:
            return None
        clean[(-m_ // 2, yp_)] = v
    return clean


def _w_monomial(f: RatFun):
    """Exponent m when f = w^m (possibly negative); None otherwise."""
    if P.degree(f.den) == 0:
        nz = [i for i, v in enumerate(f.num) if v]
        if len(nz) == 1 and f.num[nz[0]] == f.den[0]:
            return nz[0]
        return None
    if P.degree(f.num) == 0 and f.num:
        nz = [i for i, v in enumerate(f.den) if v]
        if len(nz) == 1 and f.den[nz[0]] == f.num[0]:
            return -nz[0]
    return None


def _base_normal_to_ops(nf: dict, r: int) -> OpExpr:
    """Rebuild an operator AST from the x0/y0 normal form."""
    terms = []
    for (xp_, yp_), c in sorted(nf.items()):
        factors = [sc(c)]
        if xp_ > 0:
            factors.append(Pow(X0, xp_) if xp_ > 1 else X0)
        elif xp_ < 0:
            factors.append(Inv(Pow(X0, -xp_)) if xp_ < -1 else Inv(X0))
        if yp_ > 0:
            factors.append(Pow(Y0, yp_) if yp_ > 1 else Y0)
        terms.append(Mul(tuple(factors)))
    return simplify(Add(tuple(terms)))


def fixture_extlaplace(order: int = 2, fast: bool = False) -> FixtureResult:
    res = FixtureResult("airy-extlaplace", "laplace")
    curve = SpectralCurve("airy", _lr([0, 0, 1]), _lr([0, 1]))
    store = run_tr(curve, max(order, 1))
    rep = check_extlaplace_airy(store, 1)
    res.record("exponent and prefactor match at order 0", rep.exponent_match and rep.prefactor_constant is not None)
    res.record("first correction matches", rep.matches.get(1, False))
    if order >= 2 and not fast:
        rep2 = check_extlaplace_airy(store, 2)
        res.record("second correction matches (stretch)", rep2.matches.get(2, False))
    res.record("transform-then-inverse is the identity at order 0", check_transform_inverse_airy())
    return res


# ---------------------------------------------------------------------------
# registry


FIXTURES = {
    "airy": fixture_airy,
    "bessel": fixture_bessel,
    "pq": fixture_pq,
    "rspin3": partial(fixture_rspin, 3),
    "rspin4": partial(fixture_rspin, 4),
    "rspin5": partial(fixture_rspin, 5),
    "neg-rspin3": partial(fixture_rspin, 3, negative=True),
    "neg-rspin4": partial(fixture_rspin, 4, negative=True),
    "neg-rspin5": partial(fixture_rspin, 5, negative=True),
    "logtr": fixture_logtr_closed_form,
    "hurwitz-q1": partial(fixture_hurwitz, q=1),
    "hurwitz-q2": partial(fixture_hurwitz, q=2),
    "homfly": fixture_homfly,
    "gaiotto": fixture_gaiotto,
    "gentr-airy": fixture_gentr_airy,
    "rs-r3": partial(fixture_rs_curve, 3),
    "rs-r5": partial(fixture_rs_curve, 5),
    "extlaplace": fixture_extlaplace,
}


def run_fixture(name: str, **kw) -> FixtureResult:
    """Run a registry entry.  A seed is dropped for an entry that takes
    none, so one seeded call serves every entry; any other keyword the
    entry does not take raises TypeError."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name}; known: {', '.join(sorted(FIXTURES))}")
    fn = FIXTURES[name]
    if "seed" not in inspect.signature(fn).parameters:
        kw.pop("seed", None)
    return fn(**kw)
