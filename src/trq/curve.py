"""Spectral curves on P^1: ramification points, the local deck
transformation at each, and the vital points of dy.

A curve is (x, y) as log-rational functions of the global coordinate z,
with all bound parameters already substituted as exact rationals.  Points
at infinity are handled through the chart w = 1/z.  Orders of vanishing of
dx at a point come from `_form_order`; local expansions are `LocalSeries`,
with the logarithms of x expanded through `log1p`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebra import INF, LocalSeries, LogRat, RatFun, series_at
from .algebra import poly as P


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralCurve:
    name: str
    x: LogRat
    y: LogRat
    # the branch points to run on, in place of the zeros of dx in Q: (a, ...)
    declared_ram: tuple | None = None
    # the special set P of Gen-TR: None is classical TR (the branch points
    # and the vital points of dy), () the empty set, under which every
    # stable omega vanishes; run_tr refuses any other set
    special_set: tuple | None = None

    def __post_init__(self):
        if self.special_set is not None:
            # a list or any other iterable is the same set as its tuple
            object.__setattr__(self, "special_set", tuple(self.special_set))
        if self.dx.is_zero():
            raise CurveError("dx vanishes identically")
        if self.dy.is_zero():
            raise CurveError("dy vanishes identically")

    @cached_property
    def dx(self) -> RatFun:
        return self.x.derivative()

    @cached_property
    def dy(self) -> RatFun:
        return self.y.derivative()

    @cached_property
    def _x_expansions(self) -> dict:
        return {}  # (p, order) -> x_series(p, order)

    def x_series(self, p, order: int) -> LocalSeries:
        """Series of x(p+t) - x(p) in t; log parts expanded via log(1+u).
        Kept per (p, order): a branch point's sigma and its x' read the same
        expansion.

        Only valid when no log argument of x vanishes at p (otherwise the
        difference is not a power series).
        """
        if p == INF:
            raise CurveError("x_series at infinity is not needed for ramification work")
        p = Fraction(p)
        got = self._x_expansions.get((p, order))
        if got is None:
            got = self._x_expansions[(p, order)] = self._expand_x(p, order)
        return got

    def _expand_x(self, p: Fraction, order: int) -> LocalSeries:
        rat = self.x.rat
        out = series_at(rat, p, order) - LocalSeries.make(p, {0: rat.eval(p)}, order)
        for c, arg in self.x.logs:
            a0 = P.evaluate(arg, p)
            if a0 == 0:
                raise CurveError(f"log argument of x vanishes at {p}")
            u = series_at(RatFun.make(arg), p, order).scale(1 / a0) - LocalSeries.make(p, {0: 1}, order)
            out = out + u.log1p().scale(c)
        return out

    def hash_key(self) -> str:
        import hashlib

        # the "[]" is part of the key's text, which is the "curve" field of
        # every omega text and so of every stored digest: it stays as it is
        text = f"{self.x}|{self.y}|[]|{self.special_set}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class RamPoint:
    location: Fraction
    order: int               # order of vanishing of dx (1 = simple)
    y_flag: str              # "regular" or "simple-pole"


def find_ramification(curve: SpectralCurve) -> list[RamPoint]:
    """All zeros of dx in Q, with multiplicity and the local type of y."""
    dx = curve.dx
    if curve.declared_ram is not None:
        locs = []
        for p in curve.declared_ram:
            p = Fraction(p)
            m = _form_order(dx, p)
            if m < 1:
                raise CurveError(f"declared ramification point {p} has dx({p}) != 0")
            locs.append((p, m))
    else:
        roots = P.rational_roots(dx.num)
        leftover = P.remainder_factor(dx.num)
        if P.degree(leftover) > 0:
            raise CurveError(
                "dx has zeros outside Q; irreducible factor "
                f"{P.to_str(leftover)} (declare ramification points explicitly)"
            )
        locs = [(p, m) for p, m in roots if _form_order(dx, p) >= 1]
    if _form_order(dx, INF) >= 1:
        raise CurveError("dx vanishes at infinity; ramification at infinity is unsupported")
    out = []
    for p, m in locs:
        out.append(RamPoint(p, m, _y_type_at(curve, p)))
    return out


def _y_type_at(curve: SpectralCurve, p: Fraction) -> str:
    """Classify y at a ramification point: regular (dy != 0) or simple pole."""
    for c, arg in curve.y.logs:
        if P.evaluate(arg, p) == 0:
            raise CurveError(f"logarithmic singularity of y at ramification point {p}")
    yr = curve.y.rat
    dp = P.evaluate(yr.den, p)
    if dp != 0:
        dyv = curve.dy
        if P.evaluate(dyv.den, p) == 0 or dyv.eval(p) == 0:
            raise CurveError(f"y regular at {p} but dy({p}) = 0 or singular")
        return "regular"
    s = series_at(yr, p, 0)
    if s.order() == -1:
        return "simple-pole"
    raise CurveError(f"y has a pole of order {-s.order()} > 1 at ramification point {p}")


def galois_series(curve: SpectralCurve, p: RamPoint, order: int) -> LocalSeries:
    """Local deck transformation sigma(t) = -t + c2 t^2 + ... at a simple
    ramification point, exact to t^order: the root of u(sigma) = u(t), with
    u(t) = x(p+t) - x(p) = a_2 (t^2 + sum_(k >= 3) b_k t^k), a_2 != 0.

    The coefficients come one at a time.  [t^(j+1)] of u(sigma) - u(t)
    reads c_j only through 2 a_2 c_1 c_j = -2 a_2 c_j, so

        2 c_j = sum_(3 <= k <= j+1) b_k [t^(j+1)] sigma^k
                + sum_(2 <= i <= j-1) c_i c_(j+1-i) - b_(j+1),

    whose right side reads c_1 .. c_(j-1) only.  In s = lam t, with lam four
    times the common denominator of the b_k, sigma is
    (1/lam) sum_j C_j s^j with C_j = c_j lam^(j-1), and the same equation
    holds with b_k lam^(k-2) for b_k.  Those are multiples of 4, and so, by
    induction from C_1 = -1, is every term on the right: each C_j, j >= 2,
    is an even integer.  Only the nonzero b_k and C_i are visited, so
    sigma = -t (x quadratic in t) costs one pass over empty sums."""
    if p.order != 1:
        raise CurveError(
            f"ramification order {p.order + 1} at {p.location}: only simple branching is supported"
        )
    u = curve.x_series(p.location, order + 1)
    if u.coeff(1) != 0 or u.coeff(2) == 0:
        raise CurveError(f"x does not branch quadratically at {p.location}")
    b = {k: v / u.coeffs[2] for k, v in u.coeffs.items() if k >= 3}
    lam = 4 * lcm(*(v.denominator for v in b.values()))
    b = {k: int(v * lam ** (k - 2)) for k, v in b.items()}
    c = {1: -1}
    # pw[k] = {n: [s^n] of (sum_j C_j s^j)^k} for the n whose C_i are known,
    # k = 2 .. the largest k with b_k != 0; it reads C_1 .. C_(n-k+1)
    top = max(b, default=1)
    pw = {k: {} for k in range(2, top + 1)}

    def extend(j: int) -> None:
        """[s^(j+k-1)] of the k-th power for each k, which C_j has made known."""
        for k in range(2, min(top, order + 2 - j) + 1):
            n, low = j + k - 1, pw.get(k - 1, c)
            acc = sum(ci * low[n - i] for i, ci in c.items() if n - i in low)
            if acc:
                pw[k][n] = acc

    extend(1)
    for j in range(2, order + 1):
        r = sum(v * pw[k][j + 1] for k, v in b.items() if j + 1 in pw[k]) - b.get(j + 1, 0)
        r += sum(ci * c[j + 1 - i] for i, ci in c.items() if 2 <= i <= j - 1 and j + 1 - i in c)
        if r:
            c[j] = r // 2
        extend(j)
    return LocalSeries({j: Fraction(v, lam ** (j - 1)) for j, v in c.items()}, order, p.location)


def _form_order(f: RatFun, p) -> int:
    """Order of vanishing of the differential f dz at p (negative = pole)."""
    if f.is_zero():
        raise CurveError("zero differential")
    if p == INF:
        d = P.degree(f.num) - P.degree(f.den)
        return -d - 2
    p = Fraction(p)
    k = 0
    num, den = f.num, f.den
    while not P.is_zero(num) and P.evaluate(num, p) == 0:
        num = P.divexact(num, (-p, Fraction(1)))
        k += 1
    while not P.is_zero(den) and P.evaluate(den, p) == 0:
        den = P.divexact(den, (-p, Fraction(1)))
        k -= 1
    return k


def find_logvital(curve: SpectralCurve) -> list[tuple[Fraction, Fraction]]:
    """Points where dy has a simple pole (residue 1/alpha) and dx is regular."""
    dy = curve.dy
    dx = curve.dx
    leftover = P.remainder_factor(dy.den)
    if P.degree(leftover) > 0:
        raise CurveError(
            f"dy has poles outside Q; irreducible factor {P.to_str(leftover)}"
        )
    out = []
    for a, m in P.rational_roots(dy.den):
        if m != 1:
            continue
        if P.evaluate(dx.den, a) == 0:
            continue  # dx has a pole there; the singularity is not vital
        res = series_at(dy, a, -1).coeff(-1)
        if res:
            out.append((a, 1 / res))
    return sorted(out)
