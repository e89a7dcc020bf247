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
2. otherwise a primitive remainder sequence over Z[w][z] (`_prs_gcd`) on
   ints, whose result is divided out of both operands the same way; its
   contents in w come from `poly.gcd_ints`, the integer core of `poly.gcd`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd as igcd
from math import isqrt, lcm

from . import poly as P

# dict[tuple[int, int], int | Fraction]; ints only inside `Rf2` and the gcd
Poly2 = dict


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
    coefficient: the gcd of the primitive parts in Z[w][z], by a primitive
    remainder sequence, times the gcd of the contents in Z[w].  It runs on
    the swapped operands, with the roles of z and w exchanged, when the
    smaller of the two degrees in w is below the smaller of the two in z."""
    swap = min(deg_w(a), deg_w(b)) < min(deg_z(a), deg_z(b))
    if swap:
        a, b = p2_swap(a), p2_swap(b)
    (ca, a), (cb, b) = _split_w(a), _split_w(b)
    if deg_z(a) < deg_z(b):
        a, b = b, a
    # a primitive b free of z is a unit
    while deg_z(b) > 0 and (r := _pseudo_rem_z(a, b)):
        a, (_, b) = b, _split_w(r)
    g = p2_mul(b, from_w(P.gcd_ints(ca, cb)))
    g = p2_swap(g) if swap else g
    return g if g[lead_key(g)] > 0 else p2_neg(g)


def _split_w(a: Poly2) -> tuple[list[int], Poly2]:
    """(c, a/c) for nonzero integer a: its content c in Z[w] up to sign, as
    a list of w-coefficients, and its primitive part."""
    a = _exquo(a, igcd(*a.values()))
    rows: dict = {}
    for (i, j), v in sorted(a.items()):
        row = rows.setdefault(i, [])
        row += [0] * (j - len(row)) + [v]
    c = reduce(P.gcd_ints, rows.values())
    return ([1], a) if len(c) == 1 else (c, _divide(a, from_w(c)))


def _pseudo_rem_z(u: Poly2, v: Poly2) -> Poly2:
    """A nonzero Z[w] multiple of u mod v in z, for deg_z u >= deg_z v."""
    dv = deg_z(v)
    lv = {(0, j): c for (i, j), c in v.items() if i == dv}
    while u and (du := deg_z(u)) >= dv:
        lu = {(du - dv, j): c for (i, j), c in u.items() if i == du}
        u = p2_sub(p2_mul(lv, u), p2_mul(lu, v))
    return u


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
