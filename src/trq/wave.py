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

The series coefficients are `Factored`: an integer numerator over a
constant times powers of the forms of the wave data's one `FormBase`,
built once from the curve (`_form_base`) and shared like the point table
of the omegas.  No sum, product, derivative or quotient of them takes a
polynomial gcd; a reduction only trial-divides by forms.  A function from
outside (x, x', y, a `CoordMul` function, a log argument, the leading
symbol of an inverse, the tail of `wave_from_streams`) is lifted onto the
base once, and so is the prefactor exponent rho.  Canonical `Rf2` is made
at the boundary only: the text of rho in a prefactor key, a failure text
of `check_annihilation` and a comparison of a coefficient with an `Rf2`
or across two wave data each take one `Rf2.make`.  The stable part of
log psi (`stable_log_psi`, read by the Airy Laplace check) is integrated
by the one slot integrator of the streams, `_slot_sums`, over that base.
It reads the omegas by symmetric orbit, as `recursion` stores them: the
integrated slots enter symmetrically, so an orbit takes one pass per
distinct slot at the live variable, weighted by the permutations of the
others, or one pass in all when every slot is integrated.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (
    INF,
    Factored,
    FormBase,
    HSeries,
    LogRat,
    RatFun,
    Rf2,
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
from .recursion import OmegaStore, orbit_size, takeouts


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

    rho is the rational part of the exponent, over the wave data's form
    base; its text in the key is the canonical `Rf2`.  arg exponents and
    constant exponents are kept with fractional parts only (integer parts
    are folded into the series at construction).  A `Factored` cannot be
    hashed, and neither can a Prefactor: classes are told apart by key.
    """

    rho: Factored
    logs: tuple = ()    # ((poly2-key-tuple, Fraction), ...) sorted
    consts: tuple = ()  # ((int base, Fraction), ...) sorted

    def key(self) -> str:
        return self._key

    @cached_property
    def _key(self) -> str:
        return f"{self.rho}|{self.logs}|{self.consts}"


def _canon_poly2(p: P2.Poly2) -> tuple:
    return tuple(sorted(p.items()))


def _lift_arg(base: FormBase, argkey: tuple) -> Factored:
    """A log argument, a canonical poly2 key, over the form base."""
    return base.lift(Rf2(*P2.p2_clear(dict(argkey), {(0, 0): 1})))


def make_term(rho: Factored, logs: dict, consts: dict, series: HSeries, base: FormBase):
    """Fold integer exponent parts into the series; return (Prefactor, series)."""
    for argkey in list(logs):
        c = logs[argkey]
        n = math.floor(c)
        frac = c - n
        if n:
            f = _lift_arg(base, argkey) ** n
            series = series.map(lambda v: v * f)
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


Symbol = dict  # key -> (Prefactor, HSeries of Factored)

_ONE = Factored.const(1)
_PLAIN = Prefactor(Factored.const(0))


def sym_unit(trunc: int) -> Symbol:
    return {_PLAIN.key(): (_PLAIN, HSeries({0: _ONE}, trunc))}


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
    """sym times a series with rational coefficients."""
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        sym_insert(out, p, s * h)
    return out


def sym_scale_by(sym: Symbol, f: Factored) -> Symbol:
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        sym_insert(out, p, s.map(lambda v: v * f))
    return out


def sym_mul_prefactor(sym: Symbol, rho: Factored, logs: dict, consts: dict, base: FormBase) -> Symbol:
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        nl = dict(p.logs)
        for a, c in logs.items():
            nl[a] = nl.get(a, Fraction(0)) + c
        nc = dict(p.consts)
        for b, c in consts.items():
            nc[b] = nc.get(b, Fraction(0)) + c
        pref, series = make_term(
            p.rho + rho, {a: c for a, c in nl.items() if c}, {b: c for b, c in nc.items() if c}, s, base
        )
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
    deriv: Callable[[Factored], Factored]
    poly_lift: Callable[[P.Poly], P2.Poly2]


_VARS = {
    "z": _Var("", 1, Rf2.from_ratfun_z, Rf2.z(), Factored.deriv_z, P2.from_z),
    "w": _Var("0", -1, Rf2.from_ratfun_w, Rf2.w(), Factored.deriv_w, P2.from_w),
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
    part (a LogRat), and `tail[v]`, its hbar^1.. part (Factored
    coefficients over `base`).  Both variables are live at a generic base
    point; a frozen (regularized) base point leaves only z live, a frozen
    main point only w.
    """

    trunc: int
    x: dict = field(default_factory=dict)
    y: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    base: FormBase = field(default_factory=FormBase)
    _dx_cache: dict = field(default_factory=dict)

    def lift(self, var: str, f: RatFun) -> Factored:
        """A function of `var` over the form base."""
        return self.base.lift(_VARS[var].lift(f))

    # --- derivative streams -------------------------------------------------

    def x_derivs(self, var: str, k: int) -> RatFun:
        """k-th derivative of x as a function of `var`."""
        key = ("xd", var, k)
        if key not in self._dx_cache:
            prev = self.x[var] if k == 1 else self.x_derivs(var, k - 1)
            self._dx_cache[key] = prev.derivative()
        return self._dx_cache[key]

    def xprime(self, var: str) -> Factored:
        key = ("xp", var)
        if key not in self._dx_cache:
            self._dx_cache[key] = self.lift(var, self.x_derivs(var, 1))
        return self._dx_cache[key]

    def inv_xprime(self, var: str) -> Factored:
        key = ("1/xp", var)
        if key not in self._dx_cache:
            self._dx_cache[key] = self.xprime(var).inverse()
        return self._dx_cache[key]

    def y_stream(self, var: str) -> tuple[LogRat, HSeries]:
        if var not in self.y:
            raise WaveError(f"no stream of the variable {var} in this wave data")
        return self.y[var], self.tail[var]

    def dY(self, var: str, k: int) -> tuple[object, HSeries]:
        """(d/dx)^k of the Y stream: (scalar part, tail series).

        The scalar part is a LogRat for k = 0 and a Factored for k >= 1.
        """
        key = ("dY", var, k)
        if key in self._dx_cache:
            return self._dx_cache[key]
        if k == 0:
            out = self.y_stream(var)
        else:
            v = _VARS[var]
            prev_main, prev_tail = self.dY(var, k - 1)
            ixp = self.inv_xprime(var)
            # the derivative of a LogRat is a RatFun
            main = self.lift(var, prev_main.derivative()) if k == 1 else v.deriv(prev_main)
            out = (main * ixp, prev_tail.map(lambda f: v.deriv(f) * ixp))
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


def _h02(wd: WaveData, curve: SpectralCurve, var: str, other) -> Factored:
    """Regularized (0,2) piece of the `var` stream at hbar^1, before the
    generator sign.  `other` is the other coordinate at a generic base point,
    or the point where the other variable is frozen."""
    v = _VARS[var]
    total = wd.lift(var, -curve.dx.derivative() / (2 * curve.dx))
    if other != INF:
        at = wd.base.lift(_VARS[other].coord) if other in _VARS else Factored.const(other)
        total = total - (wd.base.lift(v.coord) - at).inverse()
    x_other = _x_at(curve.x, other)
    if x_other is not None:
        total = total + wd.xprime(var) * (wd.lift(var, curve.x.rat) - wd.base.lift(x_other)).inverse()
    return total * wd.inv_xprime(var)


def _form_base(points: list, x: LogRat, y: LogRat, ends: tuple) -> FormBase:
    """The forms of the symbols on a curve with the integrated slots between
    `ends`, and `points` the pole points of the omegas read.

    First the pole-point forms b*z - a, then b*w - a (the columns of the
    exponent vectors of `_assemble_tail`).  Then, in each live variable,
    the factors of dx's numerator and denominator, of y's denominator and,
    at a frozen end q where x is finite, of x(u) - x(q): a linear form for
    each rational root and one form for the rest of each factor, made
    pairwise coprime by `_coprime_factors`.  At a generic base last z - w
    and (x(z) - x(w))/(z - w), which share no factor with any of those
    (at z = w the second is x'(z) times a square).
    """
    base = FormBase.of_points(points)
    live = [u for u in ends if u in _VARS]
    dx = x.derivative()
    sources = [dx.num, dx.den, y.rat.den]
    for q in ends:
        if q not in _VARS and not x.has_logs() and (xq := _x_at(x, q)) is not None:
            sources.append((x.rat - RatFun.const(xq.const_value())).num)
    for f in _coprime_factors(sources):
        for u in live:
            base.add_poly(_VARS[u].poly_lift(f))
    if len(live) == 2 and not x.has_logs():
        z_w = {(1, 0): 1, (0, 1): -1}
        base.add(z_w)
        num, den = x.rat.num, x.rat.den
        diff = P2.p2_sub(P2.p2_mul(P2.from_z(num), P2.from_w(den)), P2.p2_mul(P2.from_w(num), P2.from_z(den)))
        rest = P2._divide(*P2.p2_clear(diff), z_w)
        if not (len(rest) == 1 and (0, 0) in rest):
            base.add_poly(rest)
    return base


def _coprime_factors(polys: list) -> list:
    """Squarefree, pairwise coprime factors of the nonconstant polys, each
    of which is a constant times a product of their powers: the factor
    refinement of Bach, Driscoll and Shallit by univariate gcds, then each
    rational root split off as its own linear factor."""
    out: list = []
    todo = [p for p in polys if P.degree(p) >= 1]
    while todo:
        a = todo.pop()
        s = P.gcd(a, P.derivative(a))
        parts = [s, P.divexact(a, s)] if P.degree(s) >= 1 else None
        for k, b in enumerate(out if parts is None else ()):
            g = P.gcd(a, b)
            if P.degree(g) >= 1:
                del out[k]
                parts = [g, P.divexact(a, g), P.divexact(b, g)]
                break
        if parts is None:
            out.append(a)
        else:
            todo += [p for p in parts if P.degree(p) >= 1]
    factors = []
    for a in out:
        for r, _m in P.rational_roots(a):
            factors.append(P.poly([-r, 1]))
            a = P.divexact(a, factors[-1])
        if P.degree(a) >= 1:
            factors.append(a)
    return factors


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
    omegas, points = _stable_omegas(store, trunc)
    for end in ends:
        if end not in _VARS and end != INF and Fraction(end) in points:
            raise WaveError(
                f"{base[0]} mode frozen at {end}, a pole point of the omegas, where the integrated slots diverge"
            )
    curve = store.curve
    wd = WaveData(trunc, x={"z": curve.x, "w": curve.x}, base=_form_base(points, curve.x, curve.y, ends))
    for var, other in (ends, ends[::-1]):
        if var in _VARS:
            wd.y[var] = curve.y
            wd.tail[var] = _assemble_tail(wd, curve, omegas, points, var, other, ends)
    return wd


def _stable_omegas(store: OmegaStore, trunc: int) -> tuple[list, list]:
    """The nonzero (j, n, omega_{g,n}) with j = 2g - 1 + n <= trunc, the
    hbar order they reach in a stream, and their sorted pole points."""
    omegas = [
        (2 * g + n - 1, n, pd)
        for (g, n), pd in sorted(store.omegas.items())
        if 2 * g + n - 1 <= trunc and not pd.is_zero()
    ]
    return omegas, sorted({p for _j, _n, pd in omegas for p in pd.pole_points()})


def stable_log_psi(store: OmegaStore, order: int) -> tuple[HSeries, FormBase]:
    """The stable part of log psi at a generic base point to hbar^order,
    s_k = sum_{2g-2+n=k} (1/n!) int_w^z ... int_w^z omega_{g,n} for k >= 1,
    `Factored` over the form base that `build_wave_data` builds, and that
    base.  d/dz s_k is x'(z) times hbar^(k+1) of the z stream."""
    if store.chi_max < order:
        raise WaveError(f"store covers chi <= {store.chi_max}, log psi to hbar^{order} needs chi <= {order}")
    omegas, points = _stable_omegas(store, order + 1)
    base = _form_base(points, store.curve.x, store.curve.y, ("z", "w"))
    sums = _slot_sums(omegas, points, ("z", "w"), None)
    return HSeries.make({j - 1: _over_forms(t, base) for j, t in sums.items()}, order), base


def _assemble_tail(wd: WaveData, curve: SpectralCurve, omegas: list, points: list, var: str, other, ends: tuple) -> HSeries:
    """hbar^1.. of the `var` stream, to wd.trunc; `other` as in `_h02`,
    `omegas` the (j, n, omega_{g,n}) of `build_wave_data` and `points`
    their sorted pole points.

    hbar^1 is the (0,2) piece.  hbar^j for j >= 2 sums the omega_{g,n} with
    2g - 1 + n = j, each with its first slot at `var` and the others
    integrated between the ends, over (n - 1)! dx(var): `_slot_sums` gives
    the sum of each order by its vector of form exponents, `_over_forms`
    turns it into one `Factored` by the one sum of that type, with no gcd,
    and one product with `wd.inv_xprime` divides it by dx.
    """
    v = _VARS[var]
    trunc = wd.trunc
    coeffs: dict = {}
    if trunc >= 1:
        h02 = _h02(wd, curve, var, other)
        coeffs[1] = h02 if v.sign > 0 else -h02
    sums = _slot_sums(omegas, points, ends, var)
    for j in sorted(sums):
        f = _over_forms(sums[j], wd.base) * wd.inv_xprime(var)
        if f:
            coeffs[j] = f
    return HSeries.make(coeffs, trunc)


def _slot_sums(omegas: list, points: list, ends: tuple, first: str | None) -> dict:
    """The one slot integrator: {j: {form exponents: constant}}, the terms
    of the (j, n, omega_{g,n}) of `omegas` summed by j, with the first slot
    at the variable `first` over (n - 1)! and the other slots integrated
    between `ends`, or with `first` None every slot integrated, over n!.

    The omegas are read by orbit.  The integrated slots enter symmetrically,
    so an orbit S with numerator v takes one pass per distinct first slot e,
    with the rest R = S - e integrated and weight v P(R), P the number of
    distinct permutations (`orbit_size`); with every slot integrated, one
    pass with weight v P(S).

    Each pole point p = a/b of the sorted `points` gives the integer forms
    b*u - a, u in {z, w}, the first forms of a `_form_base`; a pass (its
    numerator over the omega's den, folded into `fac`) is a constant over
    a monomial in them (`_slot_difference`), the denominator known.
    """
    npts = len(points)
    index = {p: i for i, p in enumerate(points)}
    col = {u: h * npts for h, u in enumerate(_VARS)}  # the forms of u: col[u] + index[p]
    sums: dict = {}
    by_table: dict = {}  # id of a point table -> {slot: _slot_difference}
    for j, n, pd in omegas:
        acc = sums.setdefault(j, {})
        table, diffs = pd.points, by_table.setdefault(id(pd.points), {})
        fac = Fraction(1, math.factorial(n if first is None else n - 1) * pd.den)
        for orbit, v in pd.orbits.items():
            for head, key in [(None, orbit)] if first is None else takeouts(orbit):
                e0 = [0] * (2 * npts)
                c = v * orbit_size(key)
                if head is not None:
                    i, k = head
                    e0[col[first] + index[table[i]]] = k
                    c *= table[i].denominator**k
                mons = {tuple(e0): c * fac}
                for e in key:
                    diff = diffs.get(e)
                    if diff is None:
                        diff = diffs[e] = _slot_difference((table[e[0]], e[1]), ends, col, index)
                    nxt: dict = {}
                    for ex, c0 in mons.items():
                        for c1, i, m in diff:
                            ex1 = ex[:i] + (ex[i] + m,) + ex[i + 1:] if m else ex
                            nxt[ex1] = nxt.get(ex1, 0) + c0 * c1
                    mons = nxt
                for ex, c0 in mons.items():
                    acc[ex] = acc.get(ex, 0) + c0
    return sums


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


def _over_forms(terms: dict, base: FormBase) -> Factored:
    """The sum of c / prod_i f_i^e_i over {e: c}, by the one sum of
    `Factored`, with no gcd.

    e lists the exponents of the first forms of `base`; an exponent below 0
    puts its form in the term's numerator.
    """
    parts = []
    for e, c in terms.items():
        c = Fraction(c)
        if c:
            up = {i: -k for i, k in enumerate(e) if k < 0}
            num = {key: v * c.numerator for key, v in base.product(up).items()} if up else {(0, 0): c.numerator}
            parts.append(Factored(base, num, c.denominator, {i: k for i, k in enumerate(e) if k > 0}))
    return base.sum(parts)


def wave_from_streams(x: LogRat, y_main: LogRat, y_tail: HSeries, trunc: int, var: str = "z") -> WaveData:
    """Wave data from explicit streams (single live variable), the tail's
    `RatFun` coefficients in `var` lifted onto the forms of x and y."""
    wd = WaveData(trunc, x={var: x}, y={var: y_main}, base=_form_base([], x, y_main, (var,)))
    wd.tail[var] = y_tail.map(lambda f: wd.lift(var, f))
    return wd


# ---------------------------------------------------------------------------
# operator application


def _lograt_exponent_data(f: LogRat, wave: WaveData, var: str, scale: Fraction):
    """Prefactor exponent data for exp(scale * f), f a function of `var`."""
    v = _VARS[var]
    rho = wave.lift(var, f.rat) * scale
    logs: dict = {}
    consts: dict = {}
    for c, arg in f.logs:
        key = _canon_poly2(v.poly_lift(arg))
        logs[key] = logs.get(key, Fraction(0)) + c * scale
    for c, k in f.const_logs:
        for base, e in _factor_rational(k).items():
            consts[base] = consts.get(base, Fraction(0)) + c * scale * e
    return rho, {k: v for k, v in logs.items() if v}, {b: v for b, v in consts.items() if v}


def _pref_deriv(pref: Prefactor, wave: WaveData, var: str) -> Factored:
    """d/dx of the prefactor exponent (a rational function), along `var`."""
    key = ("dp", pref.key(), var)
    if key not in wave._dx_cache:
        deriv = _VARS[var].deriv
        out = deriv(pref.rho)
        for argkey, c in pref.logs:
            arg = _lift_arg(wave.base, argkey)
            d = deriv(arg)
            if d:
                out = out + d / arg * c
        wave._dx_cache[key] = out * wave.inv_xprime(var)
    return wave._dx_cache[key]


def apply_dbar(sym: Symbol, wave: WaveData, var: str) -> Symbol:
    """The generator action: +hbar d/dx + (mult by Y) for the main variable,
    -hbar d/dx0 + (mult by Y0) for the base variable."""
    v = _VARS[var]
    y_main, y_tail = wave.y_stream(var)
    if y_main.logs or y_main.const_logs:
        raise WaveError(
            "bare derivative generator needs a rational y; use exponential form"
        )
    ixp = wave.inv_xprime(var)
    yfull = HSeries({0: wave.lift(var, y_main.rat)}, wave.trunc) + y_tail
    out: Symbol = {}
    for _k, (p, s) in sym.items():
        dp = _pref_deriv(p, wave, var)
        ds = s.map(lambda f: v.deriv(f) * ixp + f * dp)
        total = ds.shift(1).truncate(wave.trunc).scale(Fraction(v.sign)) + s * yfull
        sym_insert(out, p, total)
    return out


def _flow_delta(wave: WaveData, var: str, c: Fraction) -> HSeries:
    """Solve x(v + delta) = x(v) + c hbar (main) or - c hbar (base)."""
    v = _VARS[var]
    target_c = v.sign * Fraction(c)
    N = wave.trunc
    inv_xp = wave.inv_xprime(var)
    target = HSeries({1: Factored.const(target_c)}, N)
    delta = HSeries({1: inv_xp * target_c}, N)
    derivs = [wave.lift(var, wave.x_derivs(var, j)) for j in range(1, N + 1)]
    for _ in range(N):
        acc = HSeries({}, N)
        dp = HSeries({0: _ONE}, N)
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
    dp = HSeries({0: _ONE}, trunc)
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

    def shifted(f: Factored) -> HSeries:
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
            arg = _lift_arg(wave.base, argkey)
            inv = arg.inverse()
            expo = expo + shifted(arg).map(lambda f: f * inv).log1p().scale(ce)
        sym_insert(out, p, s1 * (expo + wexp).exp(_ONE))
    return sym_mul_prefactor(out, *_lograt_exponent_data(y_main, wave, var, c), wave.base)


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
    if len(keys) != 1 or keys[0] != _PLAIN.key():
        raise WaveError("inverse needs an operator with a plain leading symbol")
    lead_series = s0_sym[keys[0]][1]
    if 0 not in lead_series.coeffs or lead_series.coeffs[0].is_zero():
        raise WaveError("inverse of an operator with vanishing leading coefficient")
    inv_sigma0 = lead_series.coeffs[0].inverse()
    out: Symbol = {}
    for _k, (p, s) in target.items():
        csol = HSeries({}, N)
        resid = s
        for k in range(0, N + 1):
            rk = resid.coeffs.get(k)
            if rk is None or rk.is_zero():
                continue
            step = HSeries({k: rk * inv_sigma0}, N)
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
        return sym_scale_by(sym, wave.lift(var, x.rat))
    if isinstance(op, CoordMul):
        return sym_scale_by(sym, wave.lift(_VAR_OF[op.var], op.fn))
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
        rho, logs, consts = Factored.const(h0), {}, {}
        for var, (a, _b) in ab.items():
            if a:
                r2, l2, c2 = _lograt_exponent_data(wave.x[var], wave, var, a)
                rho = rho + r2
                _merge_into(logs, l2)
                _merge_into(consts, c2)
        if not rho.is_zero() or logs or consts:
            cur = sym_mul_prefactor(cur, rho, logs, consts, wave.base)
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
