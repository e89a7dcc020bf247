"""Wave-function symbol engine.

The wave function itself is never materialized: the engine stores the
log-derivative streams Y = hbar d/dx log(psi) and Y0 = -hbar d/dx0 log(psi)
and evaluates operators P through the ratio (P psi)/psi, a finite sum of
terms (exponential prefactor) x (hbar-series of bivariate rationals).
Annihilation holds when every merged prefactor class carries the zero
series.
"""

from __future__ import annotations

import math
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
    if series.is_zero():
        # keep the truncation information for honest zero results
        k = pref.key()
        if k not in sym:
            sym[k] = (pref, series)
        else:
            old_p, old_s = sym[k]
            sym[k] = (old_p, old_s + series)
        return
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
# wave data


@dataclass
class WaveData:
    """Log-derivative streams of the perturbative wave function.

    mode "generic": two live variables (z and the base w); "main": base
    point frozen (regularized), operators act on z only; "base": main
    variable frozen, operators act on the base variable only.
    """

    curve: SpectralCurve | None
    mode: str
    trunc: int
    # main-variable stream pieces
    y_main: LogRat | None = None        # hbar^0 of Y, function of z
    y_tail: HSeries | None = None       # hbar^1.. of Y, Rf2 coefficients
    x_main: LogRat | None = None
    # base-variable stream pieces (functions of w)
    y0_main: LogRat | None = None
    y0_tail: HSeries | None = None
    x_base: LogRat | None = None
    base_value: object = None           # frozen-base location (mode "main")
    _dx_cache: dict = field(default_factory=dict)

    # --- derivative streams -------------------------------------------------

    def x_derivs(self, var: str, k: int) -> RatFun:
        """k-th z-derivative of x (or of x as a function of the base var)."""
        key = ("xd", var, k)
        if key not in self._dx_cache:
            x = self.x_main if var == "z" else self.x_base
            if k == 1:
                self._dx_cache[key] = x.derivative()
            else:
                self._dx_cache[key] = self.x_derivs(var, k - 1).derivative()
        return self._dx_cache[key]

    def xprime(self, var: str) -> Rf2:
        f = self.x_derivs(var, 1)
        return Rf2.from_ratfun_z(f) if var == "z" else Rf2.from_ratfun_w(f)

    def y_stream(self, var: str) -> tuple[LogRat, HSeries]:
        if var == "z":
            if self.y_main is None:
                raise WaveError("no main-variable stream in this wave data")
            return self.y_main, self.y_tail
        if self.y0_main is None:
            raise WaveError("no base-variable stream in this wave data")
        return self.y0_main, self.y0_tail

    def dY(self, var: str, k: int) -> tuple[object, HSeries]:
        """(d/dx)^k of the Y stream: (scalar part, tail series).

        The scalar part is a LogRat for k = 0 and an Rf2 for k >= 1.
        """
        key = ("dY", var, k)
        if key in self._dx_cache:
            return self._dx_cache[key]
        if k == 0:
            main, tail = self.y_stream(var)
            out = (main, tail)
        else:
            prev_main, prev_tail = self.dY(var, k - 1)
            xp = self.xprime(var)
            if k == 1:
                d = prev_main.derivative()  # LogRat derivative: RatFun
                main = (Rf2.from_ratfun_z(d) if var == "z" else Rf2.from_ratfun_w(d)) / xp
            else:
                main = _deriv(prev_main, var) / xp
            tail = prev_tail.map(lambda v: _deriv(v, var) / xp)
            out = (main, tail)
        self._dx_cache[key] = out
        return out


def _deriv(f: Rf2, var: str) -> Rf2:
    return f.deriv_z() if var == "z" else f.deriv_w()


# ---------------------------------------------------------------------------
# building wave data from an omega store


def _primitive_value(entry, at):
    """Antiderivative of 1/(u-p)^k evaluated at `at` ("z", "w", a rational,
    or INF); orders k >= 2 only, so the primitive is rational."""
    p, k = entry
    c = Fraction(-1, k - 1)
    if at == "z":
        return Rf2.const(c) / (Rf2.z() - Rf2.const(p)) ** (k - 1)
    if at == "w":
        return Rf2.const(c) / (Rf2.w() - Rf2.const(p)) ** (k - 1)
    if at == INF:
        return Rf2.const(0)
    return Rf2.const(c / (Fraction(at) - p) ** (k - 1))


def _slot_factor(entry, var: str) -> Rf2:
    p, k = entry
    v = Rf2.z() if var == "z" else Rf2.w()
    return Rf2.const(1) / (v - Rf2.const(p)) ** k


def _h02_generic(curve: SpectralCurve) -> Rf2:
    """Regularized (0,2) contribution to Y at a generic base point."""
    if curve.x.has_logs():
        raise WaveError("generic base point needs a rational x; use a singular base")
    x = RatFun.make(curve.x.rat.num, curve.x.rat.den)
    xp, xpp = x.derivative(), x.derivative().derivative()
    xz = Rf2.from_ratfun_z(x)
    xw = Rf2.from_ratfun_w(x)
    xpz = Rf2.from_ratfun_z(xp)
    diag = Rf2.from_ratfun_z(-xpp / (2 * xp))
    bound = Rf2.const(-1) / (Rf2.z() - Rf2.w()) + xpz / (xz - xw)
    return (diag + bound) / xpz


def _x_diverges_at(x: LogRat, p0) -> bool:
    for _c, arg in x.logs:
        if p0 == INF:
            if P.degree(arg) >= 1:
                return True
        elif P.evaluate(arg, Fraction(p0)) == 0:
            return True
    if p0 == INF:
        return P.degree(x.rat.num) > P.degree(x.rat.den)
    return P.evaluate(x.rat.den, Fraction(p0)) == 0


def _x_value_at(x: LogRat, p0) -> Fraction:
    for _c, arg in x.logs:
        if p0 == INF:
            raise WaveError("logarithm of x does not converge at infinity")
        if P.evaluate(arg, Fraction(p0)) != 1:
            raise WaveError(f"x has a transcendental value at the base point {p0}")
    if x.const_logs:
        raise WaveError("x has a transcendental constant term")
    if p0 == INF:
        if P.degree(x.rat.num) > P.degree(x.rat.den):
            raise WaveError("x diverges at infinity")
        if P.degree(x.rat.num) == P.degree(x.rat.den):
            return x.rat.num[-1] / x.rat.den[-1]
        return Fraction(0)
    return x.rat.eval(Fraction(p0))


def _h02_regularized(curve: SpectralCurve, p0, var: str) -> Rf2:
    """Regularized (0,2) stream piece at a frozen point p0 of the OTHER
    variable; result depends only on `var`."""
    x = curve.x
    xp = x.derivative()
    xpp = xp.derivative()
    lift = Rf2.from_ratfun_z if var == "z" else Rf2.from_ratfun_w
    v = Rf2.z() if var == "z" else Rf2.w()
    diag = lift(-xpp / (2 * xp))
    if p0 == INF:
        b1 = Rf2.const(0)
    else:
        b1 = Rf2.const(-1) / (v - Rf2.const(p0))
    if _x_diverges_at(x, p0):
        b2 = Rf2.const(0)
    else:
        x0v = _x_value_at(x, p0)
        if x.has_logs():
            raise WaveError("finite base value of a logarithmic x is transcendental")
        b2 = lift(xp) / (lift(RatFun.make(x.rat.num, x.rat.den)) - Rf2.const(x0v))
    return (diag + b1 + b2) / lift(xp)


def build_wave_data(store: OmegaStore, base, trunc: int) -> WaveData:
    """Assemble Y and Y0 streams from computed differentials.

    `base` is "generic", or ("main", p0) for a frozen (regularized) base
    point p0, or ("base", pm) for a frozen main variable (the symbol then
    lives in the base variable only).
    """
    curve = store.curve
    need = trunc - 1
    have = store.chi_max
    if need > have:
        raise WaveError(f"store covers chi <= {have}, order {trunc} needs chi <= {need}")
    if base == "generic":
        mode, frozen, live = "generic", None, ("z", "w")
    elif base[0] == "main":
        mode, frozen, live = "main", base[1], ("z",)
    elif base[0] == "base":
        mode, frozen, live = "base", base[1], ("w",)
    else:
        raise WaveError(f"unknown base mode {base}")

    wd = WaveData(curve, mode, trunc, x_main=curve.x, x_base=curve.x, base_value=frozen)

    if "z" in live:
        wd.y_main = curve.y
        wd.y_tail = _assemble_tail(store, curve, "z", mode, frozen, trunc)
    if "w" in live:
        wd.y0_main = curve.y
        wd.y0_tail = _assemble_tail(store, curve, "w", mode, frozen, trunc)
    return wd


def _assemble_tail(store: OmegaStore, curve: SpectralCurve, var: str, mode: str, frozen, trunc: int) -> HSeries:
    coeffs: dict = {}

    def addc(j: int, v: Rf2) -> None:
        if j <= trunc:
            coeffs[j] = coeffs.get(j, Rf2.const(0)) + v

    # (0,2) piece at hbar^1
    if mode == "generic":
        h02 = _h02_generic(curve)
        addc(1, h02 if var == "z" else -h02.swap())
    else:
        other_frozen = frozen
        piece = _h02_regularized(curve, other_frozen, var)
        addc(1, piece if var == "z" else -piece)
    # stable pieces
    lift = Rf2.from_ratfun_z if var == "z" else Rf2.from_ratfun_w
    xp = lift(curve.dx)
    for (g, n), pd in sorted(store.omegas.items()):
        j = 2 * g + n - 1
        if j > trunc or pd.is_zero():
            continue
        fac = Fraction(1, math.factorial(n - 1))
        total = Rf2.const(0)
        for key, v in pd.terms.items():
            term = _slot_factor(key[0], var)
            for e in key[1:]:
                if mode == "generic":
                    upper, lower = _primitive_value(e, "z"), _primitive_value(e, "w")
                elif mode == "main":
                    upper, lower = _primitive_value(e, "z"), _primitive_value(e, frozen)
                else:  # frozen main point, live base variable
                    upper, lower = _primitive_value(e, frozen), _primitive_value(e, "w")
                term = term * (upper - lower)
            total = total + term * v
        if not total.is_zero():
            addc(j, total / xp * fac)
    return HSeries.make(coeffs, trunc)


def wave_from_streams(x: LogRat, y_main: LogRat, y_tail: HSeries, trunc: int, var: str = "z") -> WaveData:
    """Wave data from explicit streams (single live variable)."""
    wd = WaveData(None, "main" if var == "z" else "base", trunc)
    if var == "z":
        wd.x_main, wd.y_main, wd.y_tail = x, y_main, y_tail
    else:
        wd.x_base, wd.y0_main, wd.y0_tail = x, y_main, y_tail
    return wd


# ---------------------------------------------------------------------------
# operator application


def _lift(var: str):
    return Rf2.from_ratfun_z if var == "z" else Rf2.from_ratfun_w


def _poly_lift(arg: P.Poly, var: str) -> tuple:
    p2 = P2.from_z(arg) if var == "z" else P2.from_w(arg)
    return _canon_poly2(p2)


def _lograt_exponent_data(f: LogRat, var: str, scale: Fraction):
    """Prefactor exponent data for exp(scale * f)."""
    rho = _lift(var)(f.rat) * scale
    logs: dict = {}
    consts: dict = {}
    for c, arg in f.logs:
        key = _poly_lift(arg, var)
        logs[key] = logs.get(key, Fraction(0)) + c * scale
    for c, k in f.const_logs:
        for base, e in _factor_rational(k).items():
            consts[base] = consts.get(base, Fraction(0)) + c * scale * e
    return rho, {k: v for k, v in logs.items() if v}, {b: v for b, v in consts.items() if v}


def _pref_deriv(pref: Prefactor, var: str) -> Rf2:
    """Plain d/dvar of the prefactor exponent (a rational function)."""
    out = _deriv(pref.rho, var)
    for argkey, c in pref.logs:
        arg = Rf2.make(_uncanon(argkey), P2.p2_const(1))
        d = _deriv(arg, var)
        if not d.is_zero():
            out = out + d / arg * c
    return out


def apply_dbar(sym: Symbol, wave: WaveData, var: str) -> Symbol:
    """The generator action: +hbar d/dx + (mult by Y) for the main variable,
    -hbar d/dx0 + (mult by Y0) for the base variable."""
    sgn = 1 if var == "z" else -1
    y_main, y_tail = wave.y_stream(var)
    if y_main.logs or y_main.const_logs:
        raise WaveError(
            "bare derivative generator needs a rational y; use exponential form"
        )
    xp = wave.xprime(var)
    y0 = _lift(var)(RatFun.make(y_main.rat.num, y_main.rat.den))
    yfull = HSeries({0: y0}, wave.trunc) + (y_tail if y_tail is not None else HSeries({}, wave.trunc))
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        dp = _pref_deriv(p, var) / xp
        ds = s.map(lambda v: _deriv(v, var) / xp) + s.map(lambda v: v * dp)
        total = ds.shift(1).truncate(wave.trunc).scale(Fraction(sgn)) + s * yfull
        sym_insert(out, p, total)
    return out


def _flow_delta(wave: WaveData, var: str, c: Fraction) -> HSeries:
    """Solve x(v + delta) = x(v) + c hbar (main) or - c hbar (base)."""
    target_c = Fraction(c) if var == "z" else -Fraction(c)
    N = wave.trunc
    lift = _lift(var)
    xp = lift(wave.x_derivs(var, 1))
    inv_xp = Rf2.const(1) / xp
    target = HSeries({1: Rf2.const(target_c)}, N)
    delta = HSeries({1: Rf2.const(target_c) * inv_xp}, N)
    derivs = [lift(wave.x_derivs(var, j)) for j in range(1, N + 1)]
    for _ in range(N):
        acc = HSeries({}, N)
        dp = HSeries({0: Rf2.const(1)}, N)
        for j in range(1, N + 1):
            dp = (dp * delta).truncate(N)
            if dp.is_zero():
                break
            acc = acc + dp.scale(Fraction(1, math.factorial(j))).map(lambda v, d=derivs[j - 1]: v * d)
        resid = target - acc
        if resid.is_zero():
            break
        delta = delta + resid.map(lambda v: v * inv_xp)
    return delta


def _taylor_compose_series(s: HSeries, delta: HSeries, var: str, trunc: int) -> HSeries:
    """s with every coefficient shifted to v + delta."""
    out = s
    dp = HSeries({0: Rf2.const(1)}, trunc)
    ds = s
    for j in range(1, trunc + 1):
        dp = (dp * delta).truncate(trunc)
        ds = ds.map(lambda v: _deriv(v, var))
        if dp.is_zero() or ds.is_zero():
            break
        out = out + (dp * ds).scale(Fraction(1, math.factorial(j)))
    return out


def apply_shift(sym: Symbol, c: Fraction, wave: WaveData, var: str = "z") -> Symbol:
    """exp(c yhat) (var "z") or exp(c y0hat) (var "w") on a symbol."""
    c = Fraction(c)
    if not c:
        return dict(sym)
    N = wave.trunc
    delta = _flow_delta(wave, var, c)
    y_main, y_tail = wave.y_stream(var)
    # exponent of psi(shifted)/psi minus its hbar^0 part c*y
    wexp = HSeries({}, N)
    if y_tail is not None and not y_tail.is_zero():
        wexp = wexp + y_tail.scale(c)
    sgn_m = (lambda m: c**m) if var == "z" else (lambda m: -((-c) ** m))
    for m in range(2, N + 2):
        main_k, tail_k = wave.dY(var, m - 1)
        fac = Fraction(sgn_m(m), math.factorial(m))
        piece = HSeries({0: main_k}, N) + tail_k
        wexp = wexp + piece.shift(m - 1).truncate(N).scale(fac)
    # sanity: for the base variable the m = 1 tail coefficient enters with +c
    out: Symbol = {}
    y_logdata = _lograt_exponent_data(y_main, var, c)

    def shifted(f: Rf2) -> HSeries:
        """f(v + delta) - f(v)."""
        f = HSeries.const(f, N)
        return _taylor_compose_series(f, delta, var, N) - f

    for _k, (p, s) in sym.items():
        # compose the series part
        s1 = _taylor_compose_series(s, delta, var, N)
        # prefactor composition factors
        expo = shifted(p.rho)
        for argkey, ce in p.logs:
            arg = Rf2.make(_uncanon(argkey), P2.p2_const(1))
            expo = expo + shifted(arg).map(lambda v: v / arg).log1p().scale(ce)
        expo = expo + wexp
        s2 = s1 * expo.exp(Rf2.const(1))
        rho_add, logs_add, consts_add = y_logdata
        nl = dict(p.logs)
        for a, cc in logs_add.items():
            nl[a] = nl.get(a, Fraction(0)) + cc
        nc = dict(p.consts)
        for b, cc in consts_add.items():
            nc[b] = nc.get(b, Fraction(0)) + cc
        pref, series = make_term(p.rho + rho_add, {a: v for a, v in nl.items() if v}, {b: v for b, v in nc.items() if v}, s2)
        sym_insert(out, pref, series)
    return out


def apply_inverse(inner: OpExpr, target: Symbol, wave: WaveData) -> Symbol:
    """Solve inner * C = target order by order in hbar."""
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
        for k in range(0, N + 1):
            applied = evaluate_operator_on(inner, {p.key(): (p, csol)}, wave)
            resid = s + (-_collect_class(applied, p))
            rk = resid.coeffs.get(k)
            if rk is None or rk.is_zero():
                continue
            csol = csol + HSeries({k: rk / sigma0}, N)
        applied = evaluate_operator_on(inner, {p.key(): (p, csol)}, wave)
        resid = s + (-_collect_class(applied, p))
        ok, _w = sym_is_zero({p.key(): (p, resid)})
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


def _parse_exp_arg(arg: OpExpr):
    from .operators import _split_coeff

    arg = simplify(arg)
    terms = arg.children if isinstance(arg, Add) else (arg,)
    scal = Sym.const(0)
    gens: dict = {}
    for t in terms:
        coeff, core = _split_coeff(t)
        if isinstance(core, Scalar):
            scal = scal + coeff * core.value
        elif isinstance(core, Gen):
            try:
                val = coeff.const_value()
            except OperatorError:
                raise OperatorError(f"exponential with non-rational generator coefficient: {coeff}")
            gens[core.kind] = gens.get(core.kind, Fraction(0)) + val
        else:
            raise OperatorError(f"unsupported exponential argument term: {op_text(core)}")
    return scal, gens


def evaluate_operator_on(op: OpExpr, sym: Symbol, wave: WaveData) -> Symbol:
    if isinstance(op, Scalar):
        coeffs = op.value.hbar_coefficients()
        if any(k < 0 for k in coeffs):
            raise OperatorError("negative hbar power in a scalar coefficient")
        h = HSeries.make({k: v for k, v in coeffs.items()}, wave.trunc)
        return sym_scale_hseries(sym, h)
    if isinstance(op, Gen):
        if op.kind == "x":
            x = wave.x_main
            if x is None:
                raise WaveError("no main variable in this wave data")
            if x.has_logs():
                raise WaveError("multiplication by a logarithmic x is not a symbol; use exp form")
            return sym_scale_rf2(sym, Rf2.from_ratfun_z(RatFun.make(x.rat.num, x.rat.den)))
        if op.kind == "x0":
            x = wave.x_base
            if x is None:
                raise WaveError("no base variable in this wave data")
            if x.has_logs():
                raise WaveError("multiplication by a logarithmic x0 is not a symbol; use exp form")
            return sym_scale_rf2(sym, Rf2.from_ratfun_w(RatFun.make(x.rat.num, x.rat.den)))
        if op.kind == "y":
            return apply_dbar(sym, wave, "z")
        if op.kind == "y0":
            return apply_dbar(sym, wave, "w")
        raise OperatorError(op.kind)
    if isinstance(op, CoordMul):
        f = op.fn
        return sym_scale_rf2(sym, Rf2.from_ratfun_z(f) if op.var == "z" else Rf2.from_ratfun_w(f))
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
        scal, gens = _parse_exp_arg(op.arg)
        bad = set(gens) - {"x", "y", "x0", "y0"}
        if bad:
            raise OperatorError(f"unknown generators {bad}")
        a, a0 = gens.get("x", Fraction(0)), gens.get("x0", Fraction(0))
        b, b0 = gens.get("y", Fraction(0)), gens.get("y0", Fraction(0))
        cur = sym
        # scalar part
        hco = scal.hbar_coefficients()
        h0 = hco.pop(0, Fraction(0))
        if any(k < 0 for k in hco):
            raise OperatorError("negative hbar power in an exponential")
        if hco:
            hser = HSeries.make({k: Fraction(v) for k, v in hco.items()}, wave.trunc)
            cur = sym_scale_hseries(cur, hser.exp(Fraction(1)))
        # central correction from splitting mult and shift parts
        cc = (a * b - a0 * b0) * Fraction(1, 2)
        if cc:
            cur = sym_scale_hseries(cur, HSeries.make({1: cc}, wave.trunc).exp(Fraction(1)))
        # shifts
        if b:
            cur = apply_shift(cur, b, wave, "z")
        if b0:
            cur = apply_shift(cur, b0, wave, "w")
        # multiplication prefactors
        rho, logs, consts = Rf2.const(h0), {}, {}
        if a:
            r2, l2, c2 = _lograt_exponent_data(wave.x_main, "z", a)
            rho = rho + r2
            _merge_into(logs, l2)
            _merge_into(consts, c2)
        if a0:
            r2, l2, c2 = _lograt_exponent_data(wave.x_base, "w", a0)
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
            num = RatFun.const(0)
            den = RatFun.const(0)
            for i, c in enumerate(e.num):
                num = num + v.rat**i * c
            for i, c in enumerate(e.den):
                den = den + v.rat**i * c
            return LogRat.from_ratfun(num / den)
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
