"""Wave-function symbol engine.

The wave function psi(x, x0) has two live variables: the main coordinate z,
on which y = hbar d/dx acts, and the base coordinate w, on which
y0 = -hbar d/dx0 acts.  Either one may instead be frozen at a (singular)
point.  psi itself is never materialized: for each live variable the engine
stores the log-derivative stream, Y = hbar d/dx log(psi) or
Y0 = -hbar d/dx0 log(psi), and evaluates operators P through the ratio
(P psi)/psi, a finite sum of terms (exponential prefactor) x (hbar-series of
bivariate rationals).  Annihilation holds when every merged prefactor class
carries the zero series.

Everything that tells z from w sits in the one table `_VARS`; every generator
action, stream and (0,2) piece has one code path for both variables.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    INF,
    HSeries,
    LogRat,
    RatFun,
    Rf2,
    rf2,
)
from .algebra import poly as P
from .algebra import poly2 as P2
from .curve import SpectralCurve
from .operators import (
    Add,
    CoordMul,
    Exp,
    Gen,
    Inv,
    Mul,
    OperatorError,
    OpExpr,
    Pow,
    RatSubst,
    Scalar,
    Sym,
    linear_form,
    op_text,
    simplify,
)
from .recursion import OmegaStore


class WaveError(ValueError):
    pass


# ---------------------------------------------------------------------------
# prefactor classes


def _factor_rational(k: Fraction) -> dict:
    """Rational constant as {prime: exponent}, with -1 carrying the sign."""
    out: dict = {}
    if k < 0:
        out[-1] = 1
        k = -k
    if k == 0:
        raise WaveError("zero constant in a prefactor")

    def fold(n: int, sgn: int) -> None:
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + sgn
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + sgn

    fold(k.numerator, 1)
    fold(k.denominator, -1)
    return {p: e for p, e in out.items() if e}


@dataclass(frozen=True)
class Prefactor:
    """exp(rho) * prod_i arg_i^{c_i} * prod_j base_j^{d_j}.

    rho is the rational part of the exponent; arg exponents and constant
    exponents are kept with fractional parts only (integer parts are folded
    into the series at construction).
    """

    rho: Rf2
    logs: tuple = ()    # ((poly2-key-tuple, Fraction), ...) sorted
    consts: tuple = ()  # ((int base, Fraction), ...) sorted

    def key(self) -> str:
        return f"{self.rho}|{self.logs}|{self.consts}"


def _canon_poly2(p: P2.Poly2) -> tuple:
    return tuple(sorted(p.items()))


def _uncanon(t: tuple) -> P2.Poly2:
    return dict(t)


def make_term(rho: Rf2, logs: dict, consts: dict, series: HSeries):
    """Fold integer exponent parts into the series; return (Prefactor, series)."""
    for argkey in list(logs):
        c = logs[argkey]
        n = math.floor(c)
        frac = c - n
        if n:
            series = series.map(lambda v, a=argkey, m=n: v * Rf2.make(_uncanon(a), P2.p2_const(1)) ** m)
        if frac:
            logs[argkey] = frac
        else:
            del logs[argkey]
    for base in list(consts):
        c = consts[base]
        n = math.floor(c)
        frac = c - n
        if n:
            series = series.scale(Fraction(base) ** n if base > 0 else Fraction(-1) ** n)
        if frac:
            consts[base] = frac
        else:
            del consts[base]
    pref = Prefactor(rho, tuple(sorted(logs.items())), tuple(sorted(consts.items())))
    return pref, series


Symbol = dict  # key -> (Prefactor, HSeries of Rf2)


def sym_unit(trunc: int) -> Symbol:
    pref = Prefactor(Rf2.const(0), (), ())
    return {pref.key(): (pref, HSeries({0: Rf2.const(1)}, trunc))}


def sym_insert(sym: Symbol, pref: Prefactor, series: HSeries) -> None:
    # zero series are kept too: they carry the truncation of honest zero results
    k = pref.key()
    if k in sym:
        p0, s0 = sym[k]
        sym[k] = (p0, s0 + series)
    else:
        sym[k] = (pref, series)


def sym_addinto(acc: Symbol, other: Symbol) -> None:
    for _k, (p, s) in other.items():
        sym_insert(acc, p, s)


def sym_scale_hseries(sym: Symbol, h: HSeries) -> Symbol:
    hh = h.map(lambda v: rf2(v))
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        sym_insert(out, p, s * hh)
    return out


def sym_scale_rf2(sym: Symbol, f: Rf2) -> Symbol:
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        sym_insert(out, p, s.map(lambda v: v * f))
    return out


def sym_mul_prefactor(sym: Symbol, rho: Rf2, logs: dict, consts: dict) -> Symbol:
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        nl = dict(p.logs)
        for a, c in logs.items():
            nl[a] = nl.get(a, Fraction(0)) + c
        nc = dict(p.consts)
        for b, c in consts.items():
            nc[b] = nc.get(b, Fraction(0)) + c
        pref, series = make_term(p.rho + rho, {a: c for a, c in nl.items() if c}, {b: c for b, c in nc.items() if c}, s)
        sym_insert(out, pref, series)
    return out


def sym_is_zero(sym: Symbol) -> tuple[bool, object]:
    for _k, (p, s) in sym.items():
        for j in sorted(s.coeffs):
            if not s.coeffs[j].is_zero():
                return False, (p, j, s.coeffs[j])
    return True, None


# ---------------------------------------------------------------------------
# the two variables


@dataclass(frozen=True)
class _Var:
    """What tells the main variable z from the base variable w."""

    suffix: str                             # of the names x, y (Gen) and z (CoordMul)
    sign: int                               # y = +hbar d/dx, y0 = -hbar d/dx0
    lift: Callable[[RatFun], Rf2]           # a function of this variable as an Rf2
    coord: Rf2
    deriv: Callable[[Rf2], Rf2]
    poly_lift: Callable[[P.Poly], P2.Poly2]


_VARS = {
    "z": _Var("", 1, Rf2.from_ratfun_z, Rf2.z(), Rf2.deriv_z, P2.from_z),
    "w": _Var("0", -1, Rf2.from_ratfun_w, Rf2.w(), Rf2.deriv_w, P2.from_w),
}
# generator kind or CoordMul variable ("x", "y0", "z0", ...) -> variable
_VAR_OF = {kind + v.suffix: var for var, v in _VARS.items() for kind in "xyz"}


# ---------------------------------------------------------------------------
# wave data


@dataclass
class WaveData:
    """Log-derivative streams of the perturbative wave function.

    The dicts are keyed by variable, "z" (main) or "w" (base).  `x[v]` is x
    as a function of v.  A live variable v has a stream: `y[v]`, its hbar^0
    part (a LogRat), and `tail[v]`, its hbar^1.. part (Rf2 coefficients).
    Both variables are live at a generic base point; a frozen (regularized)
    base point leaves only z live, a frozen main point only w.
    """

    trunc: int
    x: dict = field(default_factory=dict)
    y: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    _dx_cache: dict = field(default_factory=dict)

    # --- derivative streams -------------------------------------------------

    def x_derivs(self, var: str, k: int) -> RatFun:
        """k-th derivative of x as a function of `var`."""
        key = ("xd", var, k)
        if key not in self._dx_cache:
            prev = self.x[var] if k == 1 else self.x_derivs(var, k - 1)
            self._dx_cache[key] = prev.derivative()
        return self._dx_cache[key]

    def xprime(self, var: str) -> Rf2:
        return _VARS[var].lift(self.x_derivs(var, 1))

    def y_stream(self, var: str) -> tuple[LogRat, HSeries]:
        if var not in self.y:
            raise WaveError(f"no stream of the variable {var} in this wave data")
        return self.y[var], self.tail[var]

    def dY(self, var: str, k: int) -> tuple[object, HSeries]:
        """(d/dx)^k of the Y stream: (scalar part, tail series).

        The scalar part is a LogRat for k = 0 and an Rf2 for k >= 1.
        """
        key = ("dY", var, k)
        if key in self._dx_cache:
            return self._dx_cache[key]
        if k == 0:
            out = self.y_stream(var)
        else:
            v = _VARS[var]
            prev_main, prev_tail = self.dY(var, k - 1)
            xp = self.xprime(var)
            # the derivative of a LogRat is a RatFun
            main = v.lift(prev_main.derivative()) if k == 1 else v.deriv(prev_main)
            out = (main / xp, prev_tail.map(lambda f: v.deriv(f) / xp))
        self._dx_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# building wave data from an omega store


def _x_at(x: LogRat, at) -> Rf2 | None:
    """x at `at`: as a function of the coordinate "z" or "w", or its value at
    a rational point or INF; None where x diverges."""
    if at in _VARS:
        if x.has_logs():
            raise WaveError("generic base point needs a rational x; use a singular base")
        return _VARS[at].lift(x.rat)
    num, den = x.rat.num, x.rat.den
    if at == INF:
        diverges = any(P.degree(arg) >= 1 for _c, arg in x.logs) or P.degree(num) > P.degree(den)
    else:
        at = Fraction(at)
        diverges = any(P.evaluate(arg, at) == 0 for _c, arg in x.logs) or P.evaluate(den, at) == 0
    if diverges:
        return None
    if x.has_logs():
        raise WaveError("finite base value of a logarithmic x is transcendental")
    if at == INF:
        return Rf2.const(num[-1] / den[-1] if P.degree(num) == P.degree(den) else 0)
    return Rf2.const(x.rat.eval(at))


def _h02(curve: SpectralCurve, var: str, other) -> Rf2:
    """Regularized (0,2) piece of the `var` stream at hbar^1, before the
    generator sign.  `other` is the other coordinate at a generic base point,
    or the point where the other variable is frozen."""
    v = _VARS[var]
    xp = v.lift(curve.dx)
    total = v.lift(-curve.dx.derivative() / (2 * curve.dx))
    if other != INF:
        at = _VARS[other].coord if other in _VARS else Rf2.const(other)
        total = total - Rf2.const(1) / (v.coord - at)
    x_other = _x_at(curve.x, other)
    if x_other is not None:
        total = total + xp / (v.lift(curve.x.rat) - x_other)
    return total / xp


def build_wave_data(store: OmegaStore, base, trunc: int) -> WaveData:
    """Assemble the streams of the live variables from computed differentials.

    `base` is "generic", or ("main", p0) for a frozen (regularized) base
    point p0, or ("base", pm) for a frozen main variable (the symbol then
    lives in the base variable only).  A frozen point must not be a pole
    point of the omegas read, where the integrated slots diverge.
    """
    need = trunc - 1
    have = store.chi_max
    if need > have:
        raise WaveError(f"store covers chi <= {have}, order {trunc} needs chi <= {need}")
    # the ends (upper, lower) of every integrated slot: a variable or a frozen point
    if base == "generic":
        ends = ("z", "w")
    elif base[0] == "main":
        ends = ("z", base[1])
    elif base[0] == "base":
        ends = (base[1], "w")
    else:
        raise WaveError(f"unknown base mode {base}")
    # the stable omegas of the tail, hbar^j with j = 2g - 2 + n + 1 <= trunc
    omegas = [
        (2 * g + n - 1, n, pd)
        for (g, n), pd in sorted(store.omegas.items())
        if 2 * g + n - 1 <= trunc and not pd.is_zero()
    ]
    points = sorted({p for _j, _n, pd in omegas for p in pd.pole_points()})
    for end in ends:
        if end not in _VARS and end != INF and Fraction(end) in points:
            raise WaveError(
                f"{base[0]} mode frozen at {end}, a pole point of the omegas, where the integrated slots diverge"
            )
    curve = store.curve
    wd = WaveData(trunc, x={"z": curve.x, "w": curve.x})
    for var, other in (ends, ends[::-1]):
        if var in _VARS:
            wd.y[var] = curve.y
            wd.tail[var] = _assemble_tail(curve, omegas, points, var, other, ends, trunc)
    return wd


def _assemble_tail(curve: SpectralCurve, omegas: list, points: list, var: str, other, ends: tuple, trunc: int) -> HSeries:
    """hbar^1.. of the `var` stream; `other` as in `_h02`, `omegas` the
    (j, n, omega_{g,n}) of `build_wave_data` and `points` their sorted pole
    points.

    hbar^1 is the (0,2) piece.  hbar^j for j >= 2 sums the omega_{g,n} with
    2g - 1 + n = j, each with its first slot at `var` and the others
    integrated between the ends, over (n - 1)! dx(var).

    The denominator is known.  Each pole point p = a/b is rational and
    gives the primitive integer linear forms L = b*u - a, u in {z, w}.  A
    term of an omega, its integer numerator over the omega's den (folded
    into the omega's constant `fac`) with its slot points read from the
    omega's point table, is then a rational constant over a monomial in
    these forms (`_slot_difference`), and so is 1/dx at the pole points
    (`_split_at`).  The terms of one hbar order are added by their vector
    of form exponents, and `_over_forms` reduces the sum with no gcd.  A
    factor of dx away from the pole points is applied at the end: a factor
    of its denominator by one product, and one of its numerator (a zero of dx
    that is not a pole point) by one `Rf2` division.
    """
    v = _VARS[var]
    coeffs: dict = {}
    if trunc >= 1:
        h02 = _h02(curve, var, other)
        coeffs[1] = h02 if v.sign > 0 else -h02
    npts = len(points)
    index = {p: i for i, p in enumerate(points)}
    col = {u: h * npts for h, u in enumerate(_VARS)}  # the forms of u: col[u] + index[p]
    # 1/dx = scale * rest_den/rest_num * prod_p (u - p)^(-e_p), (u - p)^(-e) = b^e/L^e
    num_mult, rest_num = _split_at(curve.dx.num, points)
    den_mult, rest_den = _split_at(curve.dx.den, points)
    scale = Fraction(1)
    if P.degree(rest_num) == 0:
        scale, rest_num = scale / rest_num[0], P.ONE
    if P.degree(rest_den) == 0:
        scale, rest_den = scale * rest_den[0], P.ONE
    start = [0] * (2 * npts)
    for i, p in enumerate(points):
        e = num_mult[i] - den_mult[i]
        start[col[var] + i] = e
        scale *= Fraction(p.denominator) ** e
    sums: dict = {}   # j -> {form exponents: constant}
    by_table: dict = {}  # id of a point table -> {slot: _slot_difference}
    for j, n, pd in omegas:
        acc = sums.setdefault(j, {})
        table, diffs = pd.points, by_table.setdefault(id(pd.points), {})
        fac = scale / (math.factorial(n - 1) * pd.den)
        for key, c in pd.terms.items():
            p, k = table[key[0][0]], key[0][1]
            first = list(start)
            first[col[var] + index[p]] += k
            mons = {tuple(first): c * fac * p.denominator**k}
            for e in key[1:]:
                diff = diffs.get(e)
                if diff is None:
                    diff = diffs[e] = _slot_difference((table[e[0]], e[1]), ends, col, index)
                nxt: dict = {}
                for ex, c0 in mons.items():
                    for c1, i, m in diff:
                        if m:
                            ex1 = list(ex)
                            ex1[i] += m
                            ex1 = tuple(ex1)
                        else:
                            ex1 = ex
                        nxt[ex1] = nxt.get(ex1, 0) + c0 * c1
                mons = nxt
            for ex, c0 in mons.items():
                acc[ex] = acc.get(ex, 0) + c0
    for j in sorted(sums):
        f = _over_forms(sums[j], points, v.poly_lift(rest_den))
        if P.degree(rest_num) > 0 and f:
            f = f / v.lift(RatFun.make(rest_num, P.ONE))
        if f:
            coeffs[j] = f
    return HSeries.make(coeffs, trunc)


def _split_at(a: P.Poly, points: list) -> tuple[list, P.Poly]:
    """The multiplicity of each point as a root of a, and the rest of a."""
    mult = []
    for p in points:
        m = 0
        while True:
            q, r = P.divmod_(a, (-p, Fraction(1)))
            if r:
                break
            a, m = q, m + 1
        mult.append(m)
    return mult, a


def _slot_difference(entry: tuple, ends: tuple, col: dict, index: dict) -> list:
    """The primitive c/(u - p)^(k-1), c = -1/(k-1), of the slot (p, k),
    k >= 2, at ends[0] minus at ends[1], as [(constant, form, exponent)]: at a live
    end u the constant c*b^(k-1) over the form of (p, u), at a frozen
    rational q the constant c/(q - p)^(k-1) with exponent 0, at INF
    nothing."""
    p, k = entry
    c = Fraction(-1, k - 1)
    out = []
    const = Fraction(0)
    for sign, at in zip((1, -1), ends):
        if at in _VARS:
            out.append((sign * c * p.denominator ** (k - 1), col[at] + index[p], k - 1))
        elif at != INF:
            const += sign * c / (Fraction(at) - p) ** (k - 1)
    if const:
        out.append((const, None, 0))
    return out


def _over_forms(terms: dict, points: list, numer: P2.Poly2) -> Rf2:
    """numer * sum of c / prod_i L_i^e_i over {e: c}, in canonical form,
    with no gcd; numer must be coprime to every form.

    e lists the exponents of the z-forms of `points`, then those of the
    w-forms.  The sum goes over prod_i L_i^top_i, top_i the largest e_i
    (at least 0).  The forms are primitive, irreducible and pairwise
    coprime, and they are the only factors of that denominator.  So
    dividing each form out of the numerator while it divides exactly, at
    most top_i times, leaves a numerator coprime to the denominator, and
    `p2_clear` removes the common integer content.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return Rf2.const(0)
    npts = len(points)
    top = [max(0, *col) for col in zip(*terms)]
    clear = math.lcm(*(c.denominator for c in terms.values()))
    # the forms b*z - a, then b*w - a, and their powers
    forms = [
        {key: v for key, v in (((1, 0) if i < npts else (0, 1), p.denominator), ((0, 0), -p.numerator)) if v}
        for i, p in enumerate(points * 2)
    ]
    powers: dict = {}

    def product(ks) -> P2.Poly2:
        out = {(0, 0): 1}
        for i, k in enumerate(ks):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = P2.p2_pow(forms[i], k)
                out = P2.p2_mul(out, powers[i, k])
        return out

    num: dict = {}
    for e, c in terms.items():
        c = int(c * clear)
        for key, v in product([t - x for t, x in zip(top, e)]).items():
            num[key] = num.get(key, 0) + c * v
    num = {key: c for key, c in num.items() if c}
    if not num:
        return Rf2.const(0)
    for i in range(2 * npts):
        while top[i]:
            q = _divide_by_form(num, points[i % npts], i // npts)
            if q is None:
                break
            num, top[i] = q, top[i] - 1
    den = {key: clear * c for key, c in product(top).items()}
    if numer != {(0, 0): 1}:
        num = P2.p2_mul(num, numer)
    # the lex-leading coefficient of den, clear times a product of b's, is positive as Rf2 needs
    return Rf2(*P2.p2_clear(num, den))


def _divide_by_form(num: dict, p: Fraction, axis: int) -> dict | None:
    """num / (b*u - a) over Z for p = a/b, u = z (axis 0) or w (axis 1),
    or None unless the form divides num.

    Synthetic division of each coefficient in the other variable, from the
    top: c_i = b*q_(i-1) - a*q_i.  The form is primitive, so by Gauss's
    lemma an exact quotient has integer coefficients.
    """
    a, b = p.numerator, p.denominator
    rows: dict = {}  # exponent of the other variable -> {exponent of u: coefficient}
    for key, c in num.items():
        rows.setdefault(key[1 - axis], {})[key[axis]] = c
    out = {}
    for o, row in rows.items():
        q = 0
        for i in range(max(row), 0, -1):
            q, r = divmod(row.get(i, 0) + a * q, b)
            if r:
                return None
            if q:
                out[(i - 1, o) if axis == 0 else (o, i - 1)] = q
        if row.get(0, 0) + a * q:
            return None
    return out


def wave_from_streams(x: LogRat, y_main: LogRat, y_tail: HSeries, trunc: int, var: str = "z") -> WaveData:
    """Wave data from explicit streams (single live variable)."""
    return WaveData(trunc, x={var: x}, y={var: y_main}, tail={var: y_tail})


# ---------------------------------------------------------------------------
# operator application


def _lograt_exponent_data(f: LogRat, var: str, scale: Fraction):
    """Prefactor exponent data for exp(scale * f)."""
    v = _VARS[var]
    rho = v.lift(f.rat) * scale
    logs: dict = {}
    consts: dict = {}
    for c, arg in f.logs:
        key = _canon_poly2(v.poly_lift(arg))
        logs[key] = logs.get(key, Fraction(0)) + c * scale
    for c, k in f.const_logs:
        for base, e in _factor_rational(k).items():
            consts[base] = consts.get(base, Fraction(0)) + c * scale * e
    return rho, {k: v for k, v in logs.items() if v}, {b: v for b, v in consts.items() if v}


def _pref_deriv(pref: Prefactor, deriv) -> Rf2:
    """Plain derivative of the prefactor exponent (a rational function)."""
    out = deriv(pref.rho)
    for argkey, c in pref.logs:
        arg = Rf2.make(_uncanon(argkey), P2.p2_const(1))
        d = deriv(arg)
        if not d.is_zero():
            out = out + d / arg * c
    return out


def apply_dbar(sym: Symbol, wave: WaveData, var: str) -> Symbol:
    """The generator action: +hbar d/dx + (mult by Y) for the main variable,
    -hbar d/dx0 + (mult by Y0) for the base variable."""
    v = _VARS[var]
    y_main, y_tail = wave.y_stream(var)
    if y_main.logs or y_main.const_logs:
        raise WaveError(
            "bare derivative generator needs a rational y; use exponential form"
        )
    xp = wave.xprime(var)
    yfull = HSeries({0: v.lift(RatFun.make(y_main.rat.num, y_main.rat.den))}, wave.trunc) + y_tail
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        dp = _pref_deriv(p, v.deriv) / xp
        ds = s.map(lambda f: v.deriv(f) / xp) + s.map(lambda f: f * dp)
        total = ds.shift(1).truncate(wave.trunc).scale(Fraction(v.sign)) + s * yfull
        sym_insert(out, p, total)
    return out


def _flow_delta(wave: WaveData, var: str, c: Fraction) -> HSeries:
    """Solve x(v + delta) = x(v) + c hbar (main) or - c hbar (base)."""
    v = _VARS[var]
    target_c = v.sign * Fraction(c)
    N = wave.trunc
    xp = wave.xprime(var)
    inv_xp = Rf2.const(1) / xp
    target = HSeries({1: Rf2.const(target_c)}, N)
    delta = HSeries({1: Rf2.const(target_c) * inv_xp}, N)
    derivs = [v.lift(wave.x_derivs(var, j)) for j in range(1, N + 1)]
    for _ in range(N):
        acc = HSeries({}, N)
        dp = HSeries({0: Rf2.const(1)}, N)
        for j in range(1, N + 1):
            dp = (dp * delta).truncate(N)
            if dp.is_zero():
                break
            acc = acc + dp.scale(Fraction(1, math.factorial(j))).map(lambda f, d=derivs[j - 1]: f * d)
        resid = target - acc
        if resid.is_zero():
            break
        delta = delta + resid.map(lambda f: f * inv_xp)
    return delta


def _taylor_compose_series(s: HSeries, delta: HSeries, deriv, trunc: int) -> HSeries:
    """s with every coefficient shifted to v + delta."""
    out = s
    dp = HSeries({0: Rf2.const(1)}, trunc)
    ds = s
    for j in range(1, trunc + 1):
        dp = (dp * delta).truncate(trunc)
        ds = ds.map(deriv)
        if dp.is_zero() or ds.is_zero():
            break
        out = out + (dp * ds).scale(Fraction(1, math.factorial(j)))
    return out


def apply_shift(sym: Symbol, c: Fraction, wave: WaveData, var: str = "z") -> Symbol:
    """exp(c yhat) (var "z") or exp(c y0hat) (var "w") on a symbol."""
    c = Fraction(c)
    if not c:
        return dict(sym)
    v = _VARS[var]
    N = wave.trunc
    delta = _flow_delta(wave, var, c)
    y_main, y_tail = wave.y_stream(var)
    # exponent of psi(shifted)/psi minus its hbar^0 part c*y
    wexp = HSeries({}, N)
    if not y_tail.is_zero():
        wexp = wexp + y_tail.scale(c)
    for m in range(2, N + 2):
        main_k, tail_k = wave.dY(var, m - 1)
        fac = Fraction(v.sign * (v.sign * c) ** m, math.factorial(m))
        piece = HSeries({0: main_k}, N) + tail_k
        wexp = wexp + piece.shift(m - 1).truncate(N).scale(fac)

    def shifted(f: Rf2) -> HSeries:
        """f(v + delta) - f(v)."""
        f = HSeries.const(f, N)
        return _taylor_compose_series(f, delta, v.deriv, N) - f

    out: Symbol = {}
    for _k, (p, s) in sym.items():
        # compose the series part
        s1 = _taylor_compose_series(s, delta, v.deriv, N)
        # prefactor composition factors
        expo = shifted(p.rho)
        for argkey, ce in p.logs:
            arg = Rf2.make(_uncanon(argkey), P2.p2_const(1))
            expo = expo + shifted(arg).map(lambda f: f / arg).log1p().scale(ce)
        sym_insert(out, p, s1 * (expo + wexp).exp(Rf2.const(1)))
    return sym_mul_prefactor(out, *_lograt_exponent_data(y_main, var, c))


def apply_inverse(inner: OpExpr, target: Symbol, wave: WaveData) -> Symbol:
    """Solve inner * C = target order by order in hbar.

    inner must act on the unit as a plain series with a nonzero hbar^0
    coefficient sigma0.  Within a prefactor class inner acts linearly on
    the series and does not lower the hbar order, so the solve keeps the
    residual R = target - inner * C: step k adds c_k = R_k / sigma0 at
    hbar^k to C and subtracts inner applied to the one term c_k hbar^k
    from R.  inner thus meets each coefficient of C once, never the
    growing sum.  R must vanish through hbar^N at the end.
    """
    N = wave.trunc
    unit = sym_unit(N)
    s0_sym = evaluate_operator_on(inner, unit, wave)
    keys = [k for k, (_p, s) in s0_sym.items() if not s.is_zero()]
    if len(keys) != 1 or s0_sym[keys[0]][0].key() != Prefactor(Rf2.const(0), (), ()).key():
        raise WaveError("inverse needs an operator with a plain leading symbol")
    lead_series = s0_sym[keys[0]][1]
    if 0 not in lead_series.coeffs or lead_series.coeffs[0].is_zero():
        raise WaveError("inverse of an operator with vanishing leading coefficient")
    sigma0 = lead_series.coeffs[0]
    out: Symbol = {}
    for _k, (p, s) in target.items():
        csol = HSeries({}, N)
        resid = s
        for k in range(0, N + 1):
            rk = resid.coeffs.get(k)
            if rk is None or rk.is_zero():
                continue
            step = HSeries({k: rk / sigma0}, N)
            csol = csol + step
            resid = resid - _collect_class(evaluate_operator_on(inner, {p.key(): (p, step)}, wave), p)
        ok, _w = sym_is_zero({p.key(): (p, resid.truncate(N))})
        if not ok:
            raise WaveError("inverse solve failed to converge")
        sym_insert(out, p, csol)
    return out


def _collect_class(sym: Symbol, pref: Prefactor) -> HSeries:
    out = None
    for _k, (p, s) in sym.items():
        if p.key() == pref.key():
            out = s
        elif not s.is_zero():
            raise WaveError("operator left its prefactor class inside an inverse")
    return out if out is not None else HSeries({}, 10**9)


# ---------------------------------------------------------------------------
# full evaluation


def evaluate_operator_on(op: OpExpr, sym: Symbol, wave: WaveData) -> Symbol:
    if isinstance(op, Scalar):
        coeffs = op.value.hbar_coefficients()
        if any(k < 0 for k in coeffs):
            raise OperatorError("negative hbar power in a scalar coefficient")
        h = HSeries.make({k: v for k, v in coeffs.items()}, wave.trunc)
        return sym_scale_hseries(sym, h)
    if isinstance(op, Gen):
        kind, var = op.kind[:1], _VAR_OF.get(op.kind)
        if kind == "y" and var:
            return apply_dbar(sym, wave, var)
        if kind != "x" or not var:
            raise OperatorError(op.kind)
        x = wave.x.get(var)
        if x is None:
            raise WaveError(f"no {op.kind} in this wave data")
        if x.has_logs():
            raise WaveError(f"multiplication by a logarithmic {op.kind} is not a symbol; use exp form")
        return sym_scale_rf2(sym, _VARS[var].lift(RatFun.make(x.rat.num, x.rat.den)))
    if isinstance(op, CoordMul):
        return sym_scale_rf2(sym, _VARS[_VAR_OF[op.var]].lift(op.fn))
    if isinstance(op, Add):
        out: Symbol = {}
        for c in op.children:
            sym_addinto(out, evaluate_operator_on(c, sym, wave))
        return out
    if isinstance(op, Mul):
        cur = sym
        for c in reversed(op.children):
            cur = evaluate_operator_on(c, cur, wave)
        return cur
    if isinstance(op, Pow):
        if op.exp < 0:
            return evaluate_operator_on(Inv(Pow(op.child, -op.exp)), sym, wave)
        cur = sym
        for _ in range(op.exp):
            cur = evaluate_operator_on(op.child, cur, wave)
        return cur
    if isinstance(op, Inv):
        return apply_inverse(op.child, sym, wave)
    if isinstance(op, RatSubst):
        # p(child) and 1/q(child) commute; apply the inverse first
        cur = sym
        if P.degree(op.den) >= 1:
            den_op = Add(tuple(
                Mul((Scalar(Sym.const(v)), Pow(op.child, i))) for i, v in enumerate(op.den) if v
            ))
            cur = apply_inverse(den_op, cur, wave)
        elif op.den[0] != 1:
            cur = sym_scale_hseries(cur, HSeries.make({0: Fraction(1) / op.den[0]}, wave.trunc))
        powers = [cur]
        out: Symbol = {}
        for i, v in enumerate(op.num):
            while len(powers) <= i:
                powers.append(evaluate_operator_on(op.child, powers[-1], wave))
            if v:
                sym_addinto(out, sym_scale_hseries(powers[i], HSeries.make({0: Fraction(v)}, wave.trunc)))
        return out
    if isinstance(op, Exp):
        lin = linear_form(op.arg)
        if lin is None:
            raise OperatorError(
                f"exponential argument is not a scalar plus rational multiples of generators: {op_text(op.arg)}"
            )
        scal, gens = lin
        bad = set(gens) - {"x", "y", "x0", "y0"}
        if bad:
            raise OperatorError(f"unknown generators {bad}")
        cur = sym
        # scalar part
        hco = scal.hbar_coefficients()
        h0 = hco.pop(0, Fraction(0))
        if any(k < 0 for k in hco):
            raise OperatorError("negative hbar power in an exponential")
        if hco:
            hser = HSeries.make({k: Fraction(v) for k, v in hco.items()}, wave.trunc)
            cur = sym_scale_hseries(cur, hser.exp(Fraction(1)))
        # per variable: multiplication by x (coefficient a), shift by y (coefficient b)
        ab = {var: (gens.get("x" + v.suffix, 0), gens.get("y" + v.suffix, 0)) for var, v in _VARS.items()}
        # central correction from splitting mult and shift parts
        cc = sum((_VARS[var].sign * a * b for var, (a, b) in ab.items()), Fraction(0)) / 2
        if cc:
            cur = sym_scale_hseries(cur, HSeries.make({1: cc}, wave.trunc).exp(Fraction(1)))
        for var, (_a, b) in ab.items():
            if b:
                cur = apply_shift(cur, b, wave, var)
        # multiplication prefactors
        rho, logs, consts = Rf2.const(h0), {}, {}
        for var, (a, _b) in ab.items():
            if a:
                r2, l2, c2 = _lograt_exponent_data(wave.x[var], var, a)
                rho = rho + r2
                _merge_into(logs, l2)
                _merge_into(consts, c2)
        if not rho.is_zero() or logs or consts:
            cur = sym_mul_prefactor(cur, rho, logs, consts)
        return cur
    raise TypeError(type(op))


def _merge_into(d: dict, other: dict) -> None:
    for k, v in other.items():
        d[k] = d.get(k, Fraction(0)) + v
        if not d[k]:
            del d[k]


def evaluate_operator(op: OpExpr, wave: WaveData) -> Symbol:
    return evaluate_operator_on(simplify(op), sym_unit(wave.trunc), wave)


@dataclass
class AnnihilationReport:
    passed: bool
    order: int
    failures: list = field(default_factory=list)  # (hbar order, class key, coeff str)

    def summary(self) -> str:
        if self.passed:
            return f"zero through hbar^{self.order}"
        k, key, c = self.failures[0]
        return f"first nonzero at hbar^{k} in class [{key[:60]}]: {c[:120]}"


def check_annihilation(op: OpExpr, wave: WaveData, order: int | None = None) -> AnnihilationReport:
    n = wave.trunc if order is None else order
    if n > wave.trunc:
        raise WaveError(f"requested order {n} exceeds wave truncation {wave.trunc}")
    sym = evaluate_operator(op, wave)
    failures = []
    for _k, (p, s) in sorted(sym.items()):
        if s.trunc < n:
            raise WaveError(f"symbol truncation {s.trunc} below requested order {n}")
        for j in sorted(s.coeffs):
            if j <= n and not s.coeffs[j].is_zero():
                failures.append((j, p.key(), str(s.coeffs[j])))
    failures.sort()
    return AnnihilationReport(not failures, n, failures)


# ---------------------------------------------------------------------------
# classical (hbar -> 0) symbol, used for sign resolutions


def classical_symbol(op: OpExpr, x: LogRat, y: LogRat, x0=None, y0=None):
    """The leading symbol of op on the curve, as a LogRat; operators must
    classically commute, so this treats all generators as functions."""
    op = simplify(op)

    def ev(e: OpExpr) -> LogRat:
        if isinstance(e, Scalar):
            co = e.value.hbar_coefficients()
            return LogRat.from_ratfun(RatFun.const(co.get(0, Fraction(0))))
        if isinstance(e, Gen):
            if e.kind == "x":
                return x
            if e.kind == "y":
                return y
            if e.kind == "x0" and x0 is not None:
                return x0
            if e.kind == "y0" and y0 is not None:
                return y0
            raise WaveError(f"classical value of {e.kind} not provided")
        if isinstance(e, CoordMul):
            return LogRat.from_ratfun(e.fn)
        if isinstance(e, Add):
            out = LogRat.from_ratfun(RatFun.const(0))
            for c in e.children:
                out = out + ev(c)
            return out
        if isinstance(e, Mul):
            out = RatFun.const(1)
            logpart = None
            for c in e.children:
                v = ev(c)
                if v.has_logs():
                    if logpart is not None:
                        raise WaveError("classical product of two logarithmic factors")
                    logpart = v
                else:
                    out = out * v.rat
            if logpart is None:
                return LogRat.from_ratfun(out)
            if not out.is_const():
                raise WaveError("classical product of a function with a logarithm")
            return logpart.scale(out.const_value())
        if isinstance(e, Pow):
            v = ev(e.child)
            if v.has_logs():
                raise WaveError("classical power of a logarithmic value")
            return LogRat.from_ratfun(v.rat**e.exp)
        if isinstance(e, Inv):
            v = ev(e.child)
            if v.has_logs():
                raise WaveError("classical inverse of a logarithmic value")
            return LogRat.from_ratfun(RatFun.const(1) / v.rat)
        if isinstance(e, Exp):
            v = ev(e.arg)
            return LogRat.from_ratfun(exp_lograt(v))
        if isinstance(e, RatSubst):
            v = ev(e.child)
            if v.has_logs():
                raise WaveError("classical rational substitution of a logarithmic value")
            return LogRat.from_ratfun(RatFun(e.num, e.den).compose(v.rat))
        raise TypeError(type(e))

    return ev(op)


def exp_lograt(v: LogRat) -> RatFun:
    """exp of a LogRat when it is exactly rational (integer log coefficients,
    vanishing rational part)."""
    if not v.rat.is_zero():
        raise WaveError(f"exp of {v} is not rational (rational part {v.rat})")
    out = RatFun.const(1)
    for c, arg in v.logs:
        if c.denominator != 1:
            raise WaveError(f"exp of {c}*log(...) is not rational")
        out = out * RatFun.make(arg) ** int(c)
    for c, k in v.const_logs:
        if c.denominator != 1:
            raise WaveError(f"exp of {c}*log({k}) is not rational")
        out = out * RatFun.const(Fraction(k) ** int(c))
    return out
