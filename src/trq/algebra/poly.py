"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of Fractions, lowest degree first, with no trailing
zeros.  The zero polynomial is the empty tuple.  All operations are exact.
Coefficients that are already Fractions are not wrapped again, and `scale`
by 1 returns its (tuple) operand itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import lcm
from typing import Iterable, Sequence

Poly = tuple  # tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def poly(coeffs: Iterable) -> Poly:
    """Build a normalized polynomial from low-to-high coefficients."""
    c = [v if isinstance(v, Fraction) else Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def const(v) -> Poly:
    v = Fraction(v)
    return (v,) if v else ()


def degree(p: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return poly(out)


def neg(a: Poly) -> Poly:
    return tuple(-v for v in a)


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, neg(b))


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[i + j] += u * v
    return poly(out)


def scale(a: Poly, c) -> Poly:
    """c * a; a itself when c is 1 and a is a tuple."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    if not c:
        return ZERO
    if c == 1 and isinstance(a, tuple):
        return a
    return tuple([v * c for v in a])


def pow_(a: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative polynomial power")
    r = ONE
    b = a
    while n:
        if n & 1:
            r = mul(r, b)
        b = mul(b, b)
        n >>= 1
    return r


def divmod_(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact euclidean division of the polynomial a by a nonzero b.

    Division by `ONE` returns a itself with a zero remainder.  A monic
    divisor, as every canonical `RatFun` denominator is, reads each
    quotient coefficient off the remainder without a division.  Each step
    drops the leading term of the remainder, which cancels exactly, and
    updates the rest at the divisor's nonzero coefficients only."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if b == ONE:
        return tuple(a), ZERO
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    db = degree(b)
    lb = b[-1]
    monic = lb == 1
    low = [(i, v) for i, v in enumerate(b[:-1]) if v]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r.pop() if monic else r.pop() / lb
        q[k] = c
        for i, v in low:
            r[k + i] -= c * v
        while r and r[-1] == 0:
            r.pop()
    return poly(q), poly(r)


def divexact(a: Poly, b: Poly) -> Poly:
    q, r = divmod_(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: `gcd_ints` of the operands cleared of denominators, made
    monic over Q.  The monic gcd is unique, so it equals the one euclid's
    algorithm over Q gives.  gcd(0, 0) is 0."""
    if not a or not b:
        return monic(a or b)
    v = gcd_ints(_cleared(a), _cleared(b))
    lc = v[-1]
    # Build tuples and argument lists from lists, not generators: a tuple
    # made from a generator is allocated at a guessed size and resized, so
    # every call takes fresh memory and the free lists of small tuples fill
    # up, which raises peak memory.
    return tuple([Fraction(c, lc) for c in v])


def _cleared(a: Poly) -> list[int]:
    d = lcm(*[v.denominator for v in a])
    return [v.numerator * (d // v.denominator) for v in a]


def gcd_ints(u: list[int], v: list[int]) -> list[int]:
    """The primitive gcd over Z, up to sign, of nonzero int coefficient
    lists (lowest degree first): the integer core of `gcd` and of
    `poly2._prs_gcd`.  A remainder sequence that divides each operand and
    each pseudo-remainder by its integer content, so no step normalises a
    rational (Brown, J. ACM 18, 1971)."""
    u, v = _primitive(u), _primitive(v)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1 and (r := _pseudo_rem_int(u, v)):
        u, v = v, _primitive(r)
    return v if len(v) > 1 else [1]


def _primitive(r: list[int]) -> list[int]:
    g = igcd(*r)
    return r if g == 1 else [c // g for c in r]


def _pseudo_rem_int(u: list[int], v: list[int]) -> list[int]:
    """A nonzero integer multiple of u mod v, for int lists with deg u >= deg v.

    Each step scales by lc(v)/g rather than lc(v), g the gcd of the two
    leading coefficients, which keeps the intermediate integers smaller.
    """
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    while len(r) > dv:
        lr = r[-1]
        g = igcd(lr, lv)
        sv, sr = lv // g, lr // g
        k = len(r) - 1 - dv
        if sv != 1:
            r = [c * sv for c in r]
        for i, c in enumerate(v[:-1]):
            r[k + i] -= sr * c
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def derivative(a: Poly) -> Poly:
    return poly(v * (i + 1) for i, v in enumerate(a[1:]))


def evaluate(a: Poly, x) -> Fraction:
    acc = Fraction(0)
    for v in reversed(a):
        acc = acc * x + v
    return acc


def compose(a: Poly, b: Poly) -> Poly:
    """a(b(z)) by Horner."""
    acc: Poly = ZERO
    for v in reversed(a):
        acc = add(mul(acc, b), const(v))
    return acc


def shift(a: Poly, p) -> Poly:
    """a(z + p), by repeated synthetic division in integers.

    With p = r/b and a = A/D, A integral of degree n, g(u) = sum_i A_i
    b^(n-i) u^i is D b^n a(u/b), so [u^k] g(u + r) is D b^(n-k) times the
    coefficient k of a(z + p).  g = sum_k c_k (u - r)^k with c_k = [u^k]
    g(u + r), so dividing g by u - r leaves c_0 as the remainder, dividing
    the quotient leaves c_1, and so on; done in place (Horner's Taylor
    shift), the remainders stay in g.
    """
    if not a:
        return ZERO
    p = Fraction(p)
    r, b = p.numerator, p.denominator
    n = len(a) - 1
    d = lcm(*[v.denominator for v in a])
    bpow = [1]
    for _ in range(n):
        bpow.append(bpow[-1] * b)
    g = [v.numerator * (d // v.denominator) * bpow[n - i] for i, v in enumerate(a)]
    if r:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                g[j] += r * g[j + 1]
    return tuple(Fraction(v, d * bpow[n - k]) for k, v in enumerate(g))


def monic(a: Poly) -> Poly:
    if not a:
        return ZERO
    return scale(a, 1 / a[-1])


def content_int(a: Sequence[Fraction]) -> Fraction:
    """Positive rational c so that a/c has coprime integer coefficients."""
    num = igcd(*[v.numerator for v in a])
    if num == 0:
        return Fraction(1)
    return Fraction(num, lcm(*[v.denominator for v in a]))


def rational_roots(a: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted.

    The cofactor left after dividing the roots out may still be nonconstant;
    callers decide whether leftover irrational roots are an error.
    """
    if not a:
        raise ValueError("zero polynomial has no well-defined roots")
    roots: list[tuple[Fraction, int]] = []
    work = a
    # root at 0
    k = 0
    while len(work) > 1 and work[0] == 0:
        work = work[1:]
        k += 1
    if k:
        roots.append((Fraction(0), k))
    work = scale(work, 1 / content_int(work))
    # integer-coefficient candidates p/q with p | a0, q | an
    while degree(work) >= 1:
        a0 = work[0].numerator
        an = work[-1].numerator
        found = None
        for p in _divisors(abs(a0)):
            for q in _divisors(abs(an)):
                for s in (1, -1):
                    cand = Fraction(s * p, q)
                    if evaluate(work, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        mult = 0
        while True:
            q_, r_ = divmod_(work, (-found, Fraction(1)))
            if r_:
                break
            work = q_
            mult += 1
        roots.append((found, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def remainder_factor(a: Poly) -> Poly:
    """The monic cofactor of a after removing all rational roots."""
    work = monic(a)
    for r, m in rational_roots(a):
        for _ in range(m):
            work = divexact(work, (-r, Fraction(1)))
    return work


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def to_str(a: Poly, var: str = "z") -> str:
    if not a:
        return "0"
    parts = []
    for i, v in enumerate(a):
        if not v:
            continue
        if i == 0:
            parts.append(str(v))
        elif i == 1:
            parts.append(f"{v}*{var}" if v != 1 else var)
        else:
            parts.append(f"{v}*{var}^{i}" if v != 1 else f"{var}^{i}")
    return " + ".join(parts)
