"""Formal Gaussian (saddle-point) expansion at desk scale.

Used to cross-validate the operator-level dualities on the Airy-type
fixtures: the two-variable extended Laplace transform between the wave
function and its dual, and the one-variable transform producing the dual
wave data of the empty-special-set Airy curve.  All comparisons are
normalized against the order-zero term, which eliminates the 2 pi hbar
and Hessian square-root prefactors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from .algebra import HSeries, RatFun, Rf2
from .recursion import OmegaStore


class SaddleError(ValueError):
    pass


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = (2k)!/(2^k k!)."""
    return factorial(2 * k) // (2**k * factorial(k))


@dataclass
class SaddleProblem:
    """Data of a formal Gaussian integral around a critical point.

    The phase is (phase_crit - sum_i quad[i] t_i^2 / 2 + V(t)) / hbar with
    V collecting the cubic and higher Taylor terms (`vertices`); the
    amplitude is a t-Taylor expansion around the critical point.  The
    Hessian must be diagonal in the given variables.
    """

    quad: list
    vertices: dict          # exponent tuple -> coefficient
    amplitude: dict         # exponent tuple -> coefficient
    one: object = Fraction(1)

    def nvars(self) -> int:
        return len(self.quad)


def saddle_expand(prob: SaddleProblem, order: int) -> HSeries:
    """The hbar-series sum of Wick contractions, amplitude included.

    The caller supplies truncated Taylor data; vertices and amplitude terms
    beyond total degree 3*(2*order) and 2*order respectively cannot
    contribute to hbar^order and may be omitted.
    """
    n = prob.nvars()
    for a in prob.quad:
        if not a:
            raise SaddleError("degenerate quadratic form")
    for e, _c in prob.vertices.items():
        if sum(e) < 3:
            raise SaddleError("vertex of degree below three; fold into quad or crit")
    inv_a = [prob.one / a for a in prob.quad]
    out: dict = {}
    vkeys = sorted(prob.vertices)
    max_j = 2 * order
    for j in range(0, max_j + 1):
        for combo in combinations_with_replacement(vkeys, j):
            vdeg = sum(sum(e) for e in combo)
            # hbar order of this combo with an amplitude term of degree d:
            # (vdeg + d)/2 - j; minimal at d = 0
            if vdeg % 2 == 0 and (vdeg // 2) - j > order:
                continue
            if (vdeg + 1) // 2 - j > order:
                continue
            mult: dict = {}
            for e in combo:
                mult[e] = mult.get(e, 0) + 1
            sym = Fraction(factorial(j))
            for m in mult.values():
                sym /= factorial(m)
            vcoeff = prob.one * (sym / factorial(j))
            for e in combo:
                vcoeff = vcoeff * prob.vertices[e]
            for aexp, acoeff in prob.amplitude.items():
                tot = [aexp[i] + sum(e[i] for e in combo) for i in range(n)]
                if any(t % 2 for t in tot):
                    continue
                horder = sum(tot) // 2 - j
                if horder > order:
                    continue
                val = vcoeff * acoeff
                for i in range(n):
                    k = tot[i] // 2
                    if k:
                        val = val * Fraction(double_factorial_odd(k))
                        for _ in range(k):
                            val = val * inv_a[i]
                cur = out.get(horder)
                out[horder] = val if cur is None else cur + val
    return HSeries.make(out, order)


# ---------------------------------------------------------------------------
# Airy extended-Laplace cross-check


def _taylor_inverse_linear(c0, c1_list, order: int, one):
    """Taylor of 1/(c0 + sum_i c1_list[i] t_i) to total degree `order`."""
    # 1/(c0 (1 + u)) with u = sum c1 t / c0
    inv0 = one / c0
    out: dict = {}
    n = len(c1_list)
    # expand sum_k (-1)^k u^k via multinomials
    for k in range(order + 1):
        for exps in _compositions(k, n):
            coeff = one * Fraction(factorial(k))
            for i, e in enumerate(exps):
                coeff = coeff * Fraction(1, factorial(e))
                for _ in range(e):
                    coeff = coeff * (c1_list[i] * inv0)
            coeff = coeff * Fraction((-1) ** k)
            key = tuple(exps)
            cur = out.get(key)
            val = coeff * inv0
            out[key] = val if cur is None else cur + val
    return {k: v for k, v in out.items() if v}


def _compositions(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


@dataclass
class LaplaceReport:
    exponent_match: bool
    prefactor_constant: object
    orders_checked: int
    matches: dict = field(default_factory=dict)  # hbar order -> bool

    @property
    def passed(self) -> bool:
        return self.exponent_match and self.prefactor_constant is not None and all(self.matches.values())


def airy_wave_exponent_series(store: OmegaStore, order: int) -> HSeries:
    """exp(sum_k hbar^k s_k) with s_k the fully integrated stable part of
    log psi for the Airy curve; coefficients are Rf2 in (z, z0)."""
    coeffs: dict = {}
    for (g, n), pd in store.omegas.items():
        k = 2 * g + n - 2
        if k > order or pd.is_zero():
            continue
        total = Rf2.const(0)
        for key, v in pd.terms.items():
            term = Rf2.const(v)
            for (a, kk) in key:
                c, p = Fraction(-1, kk - 1), pd.points[a]
                up = Rf2.const(c) / (Rf2.z() - Rf2.const(p)) ** (kk - 1)
                lo = Rf2.const(c) / (Rf2.w() - Rf2.const(p)) ** (kk - 1)
                term = term * (up - lo)
            total = total + term
        if not total.is_zero():
            cur = coeffs.get(k, Rf2.const(0))
            coeffs[k] = cur + total * Fraction(1, factorial(n) * pd.den)
    s = HSeries.make(coeffs, order)
    return s.exp(Rf2.const(1))


def check_extlaplace_airy(store: OmegaStore, order: int = 1) -> LaplaceReport:
    """Compare psi/(x - x0) with the formal Gaussian transform of the dual
    (trivial) wave function on the Airy curve, order by order in hbar."""
    if order > 2:
        raise SaddleError("only orders up to 2 are wired for the Airy check")
    z, w = Rf2.z(), Rf2.w()
    one = Rf2.const(1)
    # left side: exponent (2/3)(z^3 - w^3), prefactor e^{s0}/(x-x0),
    # corrections from the omega store
    lhs_exp = (z**3 - w**3) * Fraction(2, 3)
    lhs_series = airy_wave_exponent_series(store, order)

    # right side: saddle of the chi-integral at (chi, chi0) = (w, z)
    # phase: z^2 chi0 - w^2 chi + (chi^3 - chi0^3)/3
    phase_crit = z * z * z - w * w * w - (z**3 - w**3) * Fraction(1, 3)
    exponent_match = phase_crit == lhs_exp
    # quadratic data: expansion chi = w + t1, chi0 = z + t0
    a1 = Rf2.const(-2) * w   #  phase gains + w t1^2  => -a/2 = w
    a2 = Rf2.const(2) * z    #  phase gains - z t0^2
    vertices = {(3, 0): one * Fraction(1, 3), (0, 3): -one * Fraction(1, 3)}
    # amplitude 1/(chi - chi0) = 1/((w - z) + t1 - t0)
    amp = _taylor_inverse_linear(w - z, [one, -one], 2 * order + 1, one)
    prob = SaddleProblem([a1, a2], vertices, amp, one)
    rhs = saddle_expand(prob, order)
    rhs0 = rhs.coeff(0)
    if rhs0.is_zero():
        raise SaddleError("vanishing leading saddle term")
    # prefactor check: (lhs hbar^0 prefactor / rhs hbar^0 prefactor)^2 times
    # the Hessian product must be an absolute constant:
    # e^{2 s0} (chi-chi0)^2/(x-x0)^2 * (a1 a2) = a1 a2 / (x'(z) x'(w))
    xp_z, xp_w = Rf2.const(2) * z, Rf2.const(2) * w
    pref = (a1 * a2) / (xp_z * xp_w)
    pref_const = pref.const_value() if pref.is_const() else None
    matches = {}
    for k in range(1, order + 1):
        lk = lhs_series.coeffs.get(k, Rf2.const(0))
        rk = rhs.coeffs.get(k, Rf2.const(0)) / rhs0
        matches[k] = lk == rk
    return LaplaceReport(exponent_match, pref_const, order, matches)


def check_transform_inverse_airy() -> bool:
    """Order-zero round trip: the inverse transform of the forward critical
    exponent reproduces the dual exponent (and conversely)."""
    z, w = Rf2.z(), Rf2.w()
    # forward: dual exponent (chi^3 - chi0^3)/3 at saddle (w, z) plus kernel
    fwd = z * z * z - w * w * w - (z**3 - w**3) * Fraction(1, 3)
    if fwd != (z**3 - w**3) * Fraction(2, 3):
        return False
    # inverse: psi exponent (2/3)(chi^3 - chi0^3) with the y-side kernel
    # y(z) x(chi0) - y(w) x(chi) at saddle (chi, chi0) = (w, z)
    inv = z * (z * z) - w * (w * w) - (z**3 - w**3) * Fraction(2, 3)
    return inv == (z**3 - w**3) * Fraction(1, 3)
