"""Sparse bivariate polynomials with exact coefficients.

A Poly2 is a dict {(i, j): coefficient} mapping (z-degree, w-degree) to a
nonzero coefficient; the second variable is the spectator (base point).
The ring operations take ints or Fractions and keep integer inputs
integer.  `p2_clear` turns rational polynomials into proportional integer
ones, once, where they enter `Rf2`, which stores only polynomials over Z.

`p2_gcd(a, b)` is the gcd over Z[z, w]: for integer a and b it returns
(g, a/g, b/g) exactly, where g has a positive lex-leading coefficient and
carries the integer gcd of the two contents, so the cofactors are coprime
integer polynomials.  A constant operand is answered from the integer gcd
alone.  Other results are memoized in `_GCD_CACHE` on the unordered pair of
integer term tuples; `Rf2` meets the same pairs many times over, and the
benchmark's tracer reports the memo's size and hit ratio.  On a miss
`_p2_gcd_impl` splits off the two contents and tries two methods in turn on
the primitive parts:
1. the heuristic gcd GCDHEU (`_heu_gcd`): evaluate at w = x and z = y, take
   one integer gcd and read the candidate back from its balanced base-y and
   base-x digits; it counts only if it divides both operands exactly over
   the integers, and those quotients are the cofactors.  Up to six growing
   points are tried;
2. otherwise a primitive remainder sequence over Q[w][z] (`_prs_gcd`),
   whose result is divided out of both operands the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import isqrt, lcm

from . import poly as P

Poly2 = dict  # dict[tuple[int, int], int | Fraction]


def p2(d) -> Poly2:
    return {k: Fraction(v) for k, v in d.items() if v}


def p2_const(v) -> Poly2:
    v = Fraction(v)
    return {(0, 0): v} if v else {}


def p2_is_zero(a: Poly2) -> bool:
    return not a


def from_z(p: P.Poly) -> Poly2:
    return {(i, 0): v for i, v in enumerate(p) if v}


def from_w(p: P.Poly) -> Poly2:
    return {(0, j): v for j, v in enumerate(p) if v}


def p2_add(a: Poly2, b: Poly2) -> Poly2:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
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
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def p2_pow(a: Poly2, n: int) -> Poly2:
    r = {(0, 0): 1}
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
    """Evaluate the spectator variable at a rational point w0 = p/q.

    Every term goes over the one denominator lcm(denominators) * q^n, n the
    degree in w, so the sums run over ints with the powers p^e q^(n-e)
    computed once.
    """
    if not a:
        return P.ZERO
    w0 = Fraction(w0)
    p, q = w0.numerator, w0.denominator
    n = deg_w(a)
    pw = [1] * (n + 1)
    for e in range(1, n + 1):
        pw[e] = pw[e - 1] * p
    qe = 1
    for e in range(n - 1, -1, -1):
        qe *= q
        pw[e] *= qe
    den = lcm(*[v.denominator for v in a.values()])
    out = [0] * (deg_z(a) + 1)
    for (i, j), v in a.items():
        out[i] += v.numerator * (den // v.denominator) * pw[j]
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


def p2_clear(*ps: Poly2) -> list[Poly2]:
    """The polynomials times one positive rational, chosen so that their
    coefficients are integers with no common factor."""
    vs = [v for p in ps for v in p.values()]
    d = lcm(*[v.denominator for v in vs])
    n = igcd(*[v.numerator for v in vs]) or 1
    return [{k: v.numerator * (d // v.denominator) // n for k, v in p.items()} for p in ps]


# the bench tracer reports the size and the hit ratio of this memo
_GCD_CACHE: dict = {}


def p2_gcd(a: Poly2, b: Poly2) -> tuple[Poly2, Poly2, Poly2]:
    """(g, a/g, b/g) for integer a and b: the gcd g over Z[z, w], with a
    positive lex-leading coefficient, and the cofactors (memoized).
    gcd(0, b) is b or -b; gcd(0, 0) is 0, and then both cofactors are 0
    too."""
    if not a or not b:
        c = a or b
        if not c:
            return {}, {}, {}
        one = {(0, 0): 1}
        if c[lead_key(c)] < 0:
            c, one = p2_neg(c), {(0, 0): -1}
        return c, (one if a else {}), (one if b else {})
    if len(a) == 1 and (0, 0) in a or len(b) == 1 and (0, 0) in b:
        c = igcd(*a.values(), *b.values())
        return {(0, 0): c}, _exquo(a, c), _exquo(b, c)
    ka = tuple(sorted(a.items()))
    kb = tuple(sorted(b.items()))
    swap = kb < ka
    if swap:
        a, b, ka, kb = b, a, kb, ka
    hit = _GCD_CACHE.get((ka, kb))
    if hit is None:
        out = _p2_gcd_impl(a, b)
        if len(_GCD_CACHE) > 200000:
            _GCD_CACHE.clear()
        # a coprime pair is its own cofactors: only the marker () is kept
        _GCD_CACHE[ka, kb] = () if out[0] == _UNIT else tuple(tuple(p.items()) for p in out)
    elif hit:
        out = tuple(dict(p) for p in hit)
    else:
        out = {(0, 0): 1}, a, b
    g, qa, qb = out
    return (g, qb, qa) if swap else (g, qa, qb)


def _p2_gcd_impl(a: Poly2, b: Poly2) -> tuple[Poly2, Poly2, Poly2]:
    """`p2_gcd` of nonconstant integer a and b, without the cache."""
    ca, cb = igcd(*a.values()), igcd(*b.values())
    a, b = _exquo(a, ca), _exquo(b, cb)
    found = _heu_gcd(a, b)
    if found is None:
        h = _prs_gcd(a, b)
        found = h, _divide(a, h), _divide(b, h)
    h, qa, qb = found
    c = igcd(ca, cb)
    return _times(h, c), _times(qa, ca // c), _times(qb, cb // c)


def _exquo(a: Poly2, c: int) -> Poly2:
    return a if c == 1 else {k: v // c for k, v in a.items()}


def _times(a: Poly2, c: int) -> Poly2:
    return a if c == 1 else {k: v * c for k, v in a.items()}


_HEU_TRIES = 6
_UNIT = {(0, 0): 1}


def _heu_gcd(a: dict, b: dict):
    """The heuristic gcd GCDHEU of primitive integer polynomials a and b:
    (h, a/h, b/h) with h primitive, or None when no point verifies.

    Both are evaluated at w = x and z = y, with |.| the largest absolute
    coefficient and
        x >= 2*min(|a|, |b|) + 2,  y >= max(x, 2*max(|a(z, x)|, |b(z, x)|) + 2);
    the max puts y beyond every root of a(z, x) and b(z, x), so neither
    value is 0 unless its polynomial is (with min, z - w would vanish at
    y = x for small norms).  The integer gcd of the two values is read back as h(z, w):
    its balanced base-y digits are the z-coefficients at w = x, and their
    balanced base-x digits the coefficients of h.  Then h(y, x) is that
    integer gcd and every coefficient of h is at most x/2 in size.  If the
    primitive part of h divides a and b over the integers, it is their gcd:
    a further primitive factor c would divide the content of h, at most
    x/2, while the root bounds of Cauchy that x and y leave behind make
    |c(y, x)| > x/2 (the argument of Char, Geddes and Gonnet, J. Symb.
    Comput. 7, 1989, one variable at a time).  The exact divisions give the
    cofactors.
    """
    # the margin beyond the bound keeps small integer factors shared by
    # the two values within single digits, so pp(h) removes them
    x = 2 * min(_norm(a.values()), _norm(b.values())) + 29
    for _ in range(_HEU_TRIES):
        ea, eb = _eval_w(a, x), _eval_w(b, x)
        y = max(x, 2 * max(_norm(ea), _norm(eb)) + 29)
        va, vb = _horner(ea, y), _horner(eb, y)
        if va and vb:
            h = {}
            for i, c in enumerate(_digits(igcd(va, vb), y)):
                for j, d in enumerate(_digits(c, x)):
                    if d:
                        h[(i, j)] = d
            s = igcd(*h.values())
            if h[lead_key(h)] < 0:
                s = -s
            h = {k: v // s for k, v in h.items()}
            if h == _UNIT:
                return h, a, b
            qa = _divide(a, h)
            if qa is not None:
                qb = _divide(b, h)
                if qb is not None:
                    return h, qa, qb
        x = x * isqrt(isqrt(x)) * 73794 // 27011
    return None


def _norm(vs) -> int:
    return max(map(abs, vs))


def _eval_w(a: dict, x: int) -> list[int]:
    """z-coefficients of a(z, x), lowest first."""
    pw = [1]
    for _ in range(deg_w(a)):
        pw.append(pw[-1] * x)
    out = [0] * (deg_z(a) + 1)
    for (i, j), v in a.items():
        out[i] += v * pw[j]
    return out


def _horner(c: list[int], y: int) -> int:
    acc = 0
    for v in reversed(c):
        acc = acc * y + v
    return acc


def _digits(n: int, x: int) -> list[int]:
    """Balanced base-x digits of n, lowest first, each in (-x/2, x/2]."""
    out = []
    while n:
        d = n % x
        if d > x // 2:
            d -= x
        out.append(d)
        n = (n - d) // x
    return out


def _divide(a: dict, b: dict):
    """a/b over Z[z, w], or None unless b divides a exactly.

    Lex-leading terms are cancelled one by one on a single remainder dict;
    each step only adds terms below the one it removes.
    """
    lk = lead_key(b)
    lv = b[lk]
    rem = dict(a)
    out = {}
    while rem:
        k = lead_key(rem)
        i, j = k[0] - lk[0], k[1] - lk[1]
        if i < 0 or j < 0:
            return None
        c, r = divmod(rem[k], lv)
        if r:
            return None
        out[(i, j)] = c
        for (bi, bj), v in b.items():
            key = (bi + i, bj + j)
            s = rem.get(key, 0) - c * v
            if s:
                rem[key] = s
            else:
                del rem[key]
    return out


def _prs_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Primitive gcd over Z of nonzero a and b, with a positive lex-leading
    coefficient, by a primitive remainder sequence over Q[w][z]; the
    fallback of `_p2_gcd_impl` when no GCDHEU point verifies."""
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
    (g,) = p2_clear(p2_mul(gz, from_z_coeffs([P.gcd(ca, cb)])))
    return g if g[lead_key(g)] > 0 else p2_neg(g)


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
