"""Formal Gaussian (saddle-point) expansion at desk scale.

Used to cross-validate the operator-level dualities on the Airy-type
fixtures: the two-variable extended Laplace transform between the wave
function and its dual, and the one-variable transform producing the dual
wave data of the empty-special-set Airy curve.  All comparisons are
normalized against the order-zero term, which eliminates the 2 pi hbar
and Hessian square-root prefactors.  `saddle_expand` is generic over the
coefficient ring; the Airy checks are `Factored`, over the wave's form
base (log psi from `wave.stable_log_psi`) or, for polynomials, none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from .algebra import Factored, FormBase, HSeries
from .recursion import OmegaStore
from .wave import stable_log_psi


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


def _taylor_inverse_linear(c0, c1_list, order: int) -> dict:
    """Taylor of 1/(c0 + sum_i c1_list[i] t_i) to total degree `order`:
    sum_k (-u)^k / c0 with u = sum_i c1_list[i] t_i / c0, by multinomials."""
    inv0 = c0.inverse()
    ratios = [-c * inv0 for c in c1_list]
    out: dict = {}
    for exps in product(range(order + 1), repeat=len(ratios)):
        if sum(exps) <= order:
            val = inv0 * factorial(sum(exps))
            for r, e in zip(ratios, exps):
                if e:
                    val = val * r**e * Fraction(1, factorial(e))
            if val:
                out[exps] = val
    return out


@dataclass
class LaplaceReport:
    exponent_match: bool
    prefactor_constant: object
    orders_checked: int
    matches: dict = field(default_factory=dict)  # hbar order -> bool

    @property
    def passed(self) -> bool:
        return self.exponent_match and self.prefactor_constant is not None and all(self.matches.values())


def airy_wave_exponent_series(store: OmegaStore, order: int) -> tuple[HSeries, FormBase]:
    """exp(sum_k hbar^k s_k), s_k the stable part of log psi at a generic
    base point (`stable_log_psi`), `Factored` over the wave's form base,
    and that base."""
    s, base = stable_log_psi(store, order)
    return s.exp(Factored.const(1)), base


def check_extlaplace_airy(store: OmegaStore, order: int = 1) -> LaplaceReport:
    """Compare psi/(x - x0) with the formal Gaussian transform of the dual
    (trivial) wave function on the Airy curve, order by order in hbar.
    Both sides are `Factored` over the one form base of the wave."""
    if store.chi_max < order:
        raise SaddleError(f"store covers chi <= {store.chi_max}, order {order} needs chi <= {order}")
    # left side: exponent (2/3)(z^3 - w^3), prefactor e^{s0}/(x-x0),
    # corrections from the omega store
    lhs_series, base = airy_wave_exponent_series(store, order)
    z, w = Factored(base, {(1, 0): 1}), Factored(base, {(0, 1): 1})
    lhs_exp = (z**3 - w**3) * Fraction(2, 3)

    # right side: saddle of the chi-integral at (chi, chi0) = (w, z)
    # phase: z^2 chi0 - w^2 chi + (chi^3 - chi0^3)/3
    phase_crit = z * z * z - w * w * w - (z**3 - w**3) * Fraction(1, 3)
    exponent_match = phase_crit == lhs_exp
    # quadratic data: expansion chi = w + t1, chi0 = z + t0
    a1 = w * -2   #  phase gains + w t1^2  => -a/2 = w
    a2 = z * 2    #  phase gains - z t0^2
    vertices = {(3, 0): Fraction(1, 3), (0, 3): Fraction(-1, 3)}
    # amplitude 1/(chi - chi0) = 1/((w - z) + t1 - t0)
    amp = _taylor_inverse_linear(w - z, [1, -1], 2 * order + 1)
    rhs = saddle_expand(SaddleProblem([a1, a2], vertices, amp, Factored.const(1)), order)
    rhs0 = rhs.coeff(0)
    if not rhs0:
        raise SaddleError("vanishing leading saddle term")
    # prefactor check: (lhs hbar^0 prefactor / rhs hbar^0 prefactor)^2 times
    # the Hessian product must be an absolute constant:
    # e^{2 s0} (chi-chi0)^2/(x-x0)^2 * (a1 a2) = a1 a2 / (x'(z) x'(w))
    pref = (a1 * a2) / (z * 2 * (w * 2))
    inv0 = rhs0.inverse()
    matches = {k: rhs.coeff(k) * inv0 == lhs_series.coeff(k) for k in range(1, order + 1)}
    return LaplaceReport(exponent_match, pref.const_value(), order, matches)


def check_transform_inverse_airy() -> bool:
    """Order-zero round trip: the inverse transform of the forward critical
    exponent reproduces the dual exponent (and conversely)."""
    z, w = Factored(None, {(1, 0): 1}), Factored(None, {(0, 1): 1})
    # forward: dual exponent (chi^3 - chi0^3)/3 at saddle (w, z) plus kernel
    fwd = z * z * z - w * w * w - (z**3 - w**3) * Fraction(1, 3)
    if fwd != (z**3 - w**3) * Fraction(2, 3):
        return False
    # inverse: psi exponent (2/3)(chi^3 - chi0^3) with the y-side kernel
    # y(z) x(chi0) - y(w) x(chi) at saddle (chi, chi0) = (w, z)
    inv = z * (z * z) - w * (w * w) - (z**3 - w**3) * Fraction(2, 3)
    return inv == (z**3 - w**3) * Fraction(1, 3)
