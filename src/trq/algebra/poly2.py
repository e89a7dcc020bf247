"""Sparse bivariate polynomials over exact rationals.

A Poly2 is a dict {(i, j): Fraction} mapping (z-degree, w-degree) to a
nonzero coefficient; the second variable is the spectator (base point).

`p2_gcd` tries three methods in turn:
1. specialisation shortcut: if the univariate gcd at one w-sample that keeps
   both z-degrees is constant, the gcd is the gcd of the w-contents;
2. univariate gcds at integer w-samples, interpolated in w on one shared
   Lagrange basis; the candidate counts only if it divides both operands
   exactly;
3. otherwise a primitive remainder sequence over Q[w][z].
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import poly as P

Poly2 = dict  # dict[tuple[int, int], Fraction]


def p2(d) -> Poly2:
    return {k: Fraction(v) for k, v in d.items() if v}


def p2_const(v) -> Poly2:
    v = Fraction(v)
    return {(0, 0): v} if v else {}


P2_ZERO: Poly2 = {}


def p2_is_zero(a: Poly2) -> bool:
    return not a


def from_z(p: P.Poly) -> Poly2:
    return {(i, 0): v for i, v in enumerate(p) if v}


def from_w(p: P.Poly) -> Poly2:
    return {(0, j): v for j, v in enumerate(p) if v}


def p2_add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p2_neg(a: Poly2) -> Poly2:
    return {k: -v for k, v in a.items()}


def p2_sub(a: Poly2, b: Poly2) -> Poly2:
    return p2_add(a, p2_neg(b))


def p2_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            s = out.get(key, Fraction(0)) + u * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def p2_scale(a: Poly2, c) -> Poly2:
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def p2_pow(a: Poly2, n: int) -> Poly2:
    r = p2_const(1)
    b = a
    while n:
        if n & 1:
            r = p2_mul(r, b)
        b = p2_mul(b, b)
        n >>= 1
    return r


def p2_deriv_z(a: Poly2) -> Poly2:
    return {(i - 1, j): v * i for (i, j), v in a.items() if i}


def p2_deriv_w(a: Poly2) -> Poly2:
    return {(i, j - 1): v * j for (i, j), v in a.items() if j}


def p2_swap(a: Poly2) -> Poly2:
    return {(j, i): v for (i, j), v in a.items()}


def deg_z(a: Poly2) -> int:
    return max((i for i, _ in a), default=-1)


def deg_w(a: Poly2) -> int:
    return max((j for _, j in a), default=-1)


def lead_key(a: Poly2) -> tuple[int, int]:
    """Lex-leading monomial, z-major."""
    return max(a)


def subst_w_const(a: Poly2, w0) -> P.Poly:
    """Evaluate the spectator variable at a rational point."""
    return _subst(a, w0, 1)


def subst_z_const(a: Poly2, z0) -> P.Poly:
    return _subst(a, z0, 0)


def _subst(a: Poly2, x, axis: int) -> P.Poly:
    """Put x = p/q for the variable at key position `axis`.

    Every term goes over the one denominator lcm(denominators) * q^n, n the
    degree in that variable, so the sums run over ints with the powers
    p^e q^(n-e) computed once.
    """
    if not a:
        return P.ZERO
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    n = max(k[axis] for k in a)
    pw = [1] * (n + 1)
    for e in range(1, n + 1):
        pw[e] = pw[e - 1] * p
    qe = 1
    for e in range(n - 1, -1, -1):
        qe *= q
        pw[e] *= qe
    den = lcm(*[v.denominator for v in a.values()])
    out = [0] * (max(k[1 - axis] for k in a) + 1)
    for k, v in a.items():
        out[k[1 - axis]] += v.numerator * (den // v.denominator) * pw[k[axis]]
    while out and not out[-1]:
        out.pop()
    den *= qe
    return tuple([Fraction(c, den) for c in out])  # a list: see poly.gcd


def to_z_coeffs(a: Poly2) -> list[P.Poly]:
    """Coefficients of z^i as polynomials in the spectator variable."""
    n = deg_z(a)
    out: list[list[Fraction]] = [[] for _ in range(n + 1)]
    for (i, j), v in a.items():
        row = out[i]
        while len(row) <= j:
            row.append(Fraction(0))
        row[j] = v
    return [P.poly(row) for row in out]


def from_z_coeffs(coeffs: list[P.Poly]) -> Poly2:
    out: Poly2 = {}
    for i, c in enumerate(coeffs):
        for j, v in enumerate(c):
            if v:
                out[(i, j)] = v
    return out


def _content_w(a: Poly2) -> P.Poly:
    """Gcd over Q[w] of the z-coefficients."""
    g = P.ZERO
    for c in to_z_coeffs(a):
        if not P.is_zero(c):
            g = P.gcd(g, c)
        if P.degree(g) == 0:
            break
    return g if g else P.ONE


def _primitive_part(a: Poly2) -> Poly2:
    g = _content_w(a)
    if P.degree(g) == 0:
        return a
    return from_z_coeffs([P.divexact(c, g) if c else P.ZERO for c in to_z_coeffs(a)])


def _pseudo_rem(a: list[P.Poly], b: list[P.Poly]) -> list[P.Poly]:
    """Pseudo-remainder of a by b, both as z-coefficient lists in Q[w]."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and any(not P.is_zero(c) for c in a):
        while a and P.is_zero(a[-1]):
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        k = len(a) - 1 - db
        # a <- lb*a - la*z^k*b
        a = [P.mul(lb, c) for c in a]
        for i, c in enumerate(b):
            a[k + i] = P.sub(a[k + i], P.mul(la, c))
        while a and P.is_zero(a[-1]):
            a.pop()
    return a


_GCD_CACHE: dict = {}


def p2_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Gcd, normalized so the lex-leading coefficient is 1 (memoized)."""
    if not a:
        return _monic_lex(b)
    if not b:
        return _monic_lex(a)
    ka = tuple(sorted(a.items()))
    kb = tuple(sorted(b.items()))
    key = (ka, kb) if ka <= kb else (kb, ka)
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return dict(hit)
    g = _p2_gcd_impl(a, b)
    if len(_GCD_CACHE) > 200000:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = dict(g)
    return g


def _p2_gcd_impl(a: Poly2, b: Poly2) -> Poly2:
    if deg_z(a) == 0 and deg_z(b) == 0:
        g = P.gcd(subst_z_const(a, 0), subst_z_const(b, 0))
        return from_z_coeffs([g])
    if deg_w(a) == 0 and deg_w(b) == 0:
        g = P.gcd(subst_w_const(a, 0), subst_w_const(b, 0))
        return from_z(g)
    # specialization shortcut: a degree-preserving w-sample with a trivial
    # univariate gcd proves the gcd has z-degree 0
    da, db = deg_z(a), deg_z(b)
    for w0 in (Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2)):
        fa, fb = subst_w_const(a, w0), subst_w_const(b, w0)
        if P.degree(fa) == da and P.degree(fb) == db:
            if P.degree(P.gcd(fa, fb)) == 0:
                cw = P.gcd(_content_w(a), _content_w(b))
                return _monic_lex(from_z_coeffs([cw])) if P.degree(cw) >= 0 else p2_const(1)
            break
    g = _gcd_interpolate(a, b)
    if g is not None:
        return _monic_lex(g)
    ca, cb = _content_w(a), _content_w(b)
    pa, pb = _primitive_part(a), _primitive_part(b)
    u, v = to_z_coeffs(pa), to_z_coeffs(pb)
    if len(u) < len(v):
        u, v = v, u
    while True:
        v = [c for c in v]
        while v and P.is_zero(v[-1]):
            v.pop()
        if not v:
            break
        if len(v) == 1:
            # content-only remainder: primitive gcd in z is trivial
            u = [P.ONE]
            break
        r = _pseudo_rem(u, v)
        u = v
        v = to_z_coeffs(_primitive_part(from_z_coeffs(r))) if r else []
    gz = _primitive_part(from_z_coeffs(u))
    g = p2_mul(gz, from_z_coeffs([P.gcd(ca, cb)]))
    return _monic_lex(g)


def _monic_lex(a: Poly2) -> Poly2:
    if not a:
        return {}
    return p2_scale(a, 1 / a[lead_key(a)])


def _lead_z_coeff(a: Poly2) -> P.Poly:
    d = deg_z(a)
    return P.poly([a.get((d, j), Fraction(0)) for j in range(deg_w(a) + 1)])


def _gcd_interpolate(a: Poly2, b: Poly2):
    """Gcd by univariate sampling at integer w and Lagrange interpolation.

    Returns None when sampling is inconclusive (caller falls back to the
    remainder sequence); a returned value is verified by exact division.
    """
    da, db = deg_z(a), deg_z(b)
    la, lb = _lead_z_coeff(a), _lead_z_coeff(b)
    lg = P.gcd(la, lb)
    bound = min(deg_w(a), deg_w(b)) + P.degree(lg) + 2
    samples = []
    dg = None
    w0 = 2
    tried = 0
    while len(samples) < bound + 1 and tried < 8 * (bound + 2):
        tried += 1
        w0 += 1
        fa, fb = subst_w_const(a, w0), subst_w_const(b, w0)
        if P.degree(fa) != da or P.degree(fb) != db:
            continue
        g1 = P.gcd(fa, fb)
        d1 = P.degree(g1)
        if dg is None or d1 < dg:
            dg = d1
            samples = []
        if d1 == dg:
            lv = P.evaluate(lg, w0)
            samples.append((w0, P.scale(g1, lv)))
    if dg is None or len(samples) < bound + 1:
        return None
    if dg == 0:
        cw = P.gcd(_content_w(a), _content_w(b))
        return from_z_coeffs([cw])
    # interpolate each z-coefficient as a polynomial in w, all on one basis;
    # a column's terms share one denominator, so the sums run over ints
    basis = _lagrange_basis([s[0] for s in samples])
    cand2: Poly2 = {}
    for i in range(dg + 1):
        terms = [(s[1][i], qd) for s, qd in zip(samples, basis) if i < len(s[1]) and s[1][i]]
        if not terms:
            continue
        den = lcm(*[y.denominator * d for y, (_, d) in terms])
        acc = [0] * len(samples)
        for y, (q, d) in terms:
            c = y.numerator * (den // (y.denominator * d))
            for j, qj in enumerate(q):
                acc[j] += c * qj
        for j, v in enumerate(acc):
            if v:
                cand2[(i, j)] = Fraction(v, den)
    cand2 = _primitive_part(cand2)
    if not cand2:
        return None
    try:
        p2_divexact(a, cand2)
        p2_divexact(b, cand2)
    except (ValueError, ZeroDivisionError):
        return None
    cw = P.gcd(_content_w(a), _content_w(b))
    return p2_mul(cand2, from_z_coeffs([cw]))


def _lagrange_basis(xs: list[int]) -> list[tuple[list[int], int]]:
    """The Lagrange basis on distinct integer points, as integers.

    For each x_k: the coefficients of M(w)/(w - x_k), M = prod_j (w - x_j),
    by synthetic division of the one M, and d_k = prod_{j != k} (x_k - x_j).
    The k-th basis polynomial is M(w)/(w - x_k) divided by d_k.
    """
    m = [1]
    for x in xs:
        m = [0] + m
        for i in range(len(m) - 1):
            m[i] -= x * m[i + 1]
    n = len(xs)
    out = []
    for x in xs:
        q = [0] * n
        q[-1] = 1
        for j in range(n - 1, 0, -1):
            q[j - 1] = m[j] + x * q[j]
        d = 1
        for xj in xs:
            if xj != x:
                d *= x - xj
        out.append((q, d))
    return out


def p2_divexact(a: Poly2, b: Poly2) -> Poly2:
    """Exact division; raises if not divisible."""
    if not b:
        raise ZeroDivisionError
    if not a:
        return {}
    out: Poly2 = {}
    rem = dict(a)
    lk = lead_key(b)
    lv = b[lk]
    while rem:
        k = lead_key(rem)
        qk = (k[0] - lk[0], k[1] - lk[1])
        if qk[0] < 0 or qk[1] < 0:
            raise ValueError("inexact bivariate division")
        c = rem[k] / lv
        out[qk] = out.get(qk, Fraction(0)) + c
        rem = p2_sub(rem, p2_mul({qk: c}, b))
    return p2(out)


def p2_str(a: Poly2, vz: str = "z", vw: str = "w") -> str:
    if not a:
        return "0"
    parts = []
    for (i, j) in sorted(a, reverse=True):
        v = a[(i, j)]
        mono = []
        if i:
            mono.append(vz if i == 1 else f"{vz}^{i}")
        if j:
            mono.append(vw if j == 1 else f"{vw}^{j}")
        m = "*".join(mono)
        parts.append(f"{v}*{m}" if m and v != 1 else (m or str(v)))
    return " + ".join(parts)
