"""Bivariate rational functions over a shared base of forms.

The symbols of the wave layer share their denominators: each one factors
over a few forms that the curve gives (the pole-point forms b*u - a, the
factors of dx, z - w and (x(z) - x(w))/(z - w)).  A `FormBase` holds such
forms once, for every function built over it; a `Factored` is an integer
numerator over a positive integer constant times a product of powers of
forms of its base.  No operation takes a polynomial gcd:

- a sum goes over the largest exponent of each form, the terms multiplied
  by memoized products of powers of the forms (`_sum`, the one sum, for
  two terms or for the many of `FormBase.sum`);
- a product adds the exponents;
- a derivative follows the quotient rule over the known factorization,
  (n/prod f^e)' = (n' prod f - n sum_i e_i f_i' prod_{j != i} f_j) / prod f^(e+1);
- a quotient lifts the divisor's numerator onto the base: it is
  trial-divided by every form, and a cofactor left over joins the base as
  a new form (`FormBase.split`).  An `Rf2` from outside is lifted the same
  way, by its denominator.

A `Factored` is kept reduced: its numerator has no integer factor in
common with its constant, and no form of its denominator divides it.
Exact trial division (`FormBase.divide`) keeps it so, only where a form
can divide when the forms are irreducible and pairwise coprime: in a sum,
a form whose largest exponent two or more terms reach; in a product, a
form of one factor's denominator against the other factor's numerator; in
a derivative, a form free of its variable.  `trq.wave` makes the forms of
a curve so (by factor refinement, Bach, Driscoll and Shallit, J.
Algorithms 15, 1993), and then a reduced quotient is in lowest terms.
Exactness never depends on it: any forms give a correct common
denominator, only maybe not the least.  The canonical `Rf2` is made only
where a text or a comparison with an `Rf2` needs it (`Factored.rf2`,
`str`, `num`/`den`, `==` with an `Rf2` or across two bases).  It takes
no gcd when every form of the denominator is linear and does not divide
the numerator, and one gcd otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import lcm

from . import poly2 as P2
from .ratfun2 import RF2_ZERO, Rf2

_ONE = {(0, 0): 1}


def _is_const(a: P2.Poly2) -> bool:
    return len(a) == 1 and (0, 0) in a


def _is_linear(f: P2.Poly2) -> bool:
    """A nonconstant f of total degree 1, so irreducible."""
    return all(i + j <= 1 for i, j in f)


class FormBase:
    """Primitive integer forms f_0, f_1, ... in (z, w), each with a positive
    lex-leading coefficient, and the memoized products, derivatives and
    splittings over them.  Forms are only ever appended, so an index names
    the same form for the life of the base."""

    def __init__(self, forms=()) -> None:
        self.forms: list = []
        self._index: dict = {}     # sorted terms of a form -> its index
        self._plans: list = []     # per form: how `divide` divides by it
        self._derivs: list = []    # per form: (d/dz, d/dw)
        self._swaps: dict = {}     # form -> (index of the swapped form, sign)
        self._products: dict = {}  # sorted (form, exponent) pairs -> product
        self._rules: dict = {}     # (axis, sorted (form, exponent) pairs) -> quotient-rule parts
        self._splits: dict = {}    # sorted terms of a polynomial -> (constant, exponents)
        for f in forms:
            self.add(f)

    @staticmethod
    def of_points(points) -> "FormBase":
        """The forms b*z - a of the points a/b, then the forms b*w - a."""
        return FormBase(
            {k: v for k, v in ((key, p.denominator), ((0, 0), -p.numerator)) if v}
            for key in ((1, 0), (0, 1))
            for p in points
        )

    def add(self, f: P2.Poly2) -> int:
        """The index of f, a primitive integer polynomial with a positive
        lex-leading coefficient; a new form is appended."""
        key = tuple(sorted(f.items()))
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.forms)
            self.forms.append(f)
            self._plans.append(_division_plan(f))
            self._derivs.append((P2.p2_deriv_z(f), P2.p2_deriv_w(f)))
        return i

    def add_poly(self, f: P2.Poly2) -> int:
        """`add` of the primitive part of a nonconstant integer or rational
        polynomial, its sign made positive."""
        (f,) = P2.p2_clear(f)
        return self.add(f if f[P2.lead_key(f)] > 0 else P2.p2_neg(f))

    def divide(self, n: P2.Poly2, i: int) -> P2.Poly2 | None:
        """n / f_i over Z for nonzero n, or None unless f_i divides n."""
        plan = self._plans[i]
        return P2._divide(n, self.forms[i]) if plan is None else _long_divide(n, *plan)

    def divide_out(self, n: P2.Poly2, i: int, k: int) -> tuple[P2.Poly2, int]:
        """(n / f_i^m, k - m): f_i divided out of n while it divides, at
        most k times."""
        while k:
            q = self.divide(n, i)
            if q is None:
                break
            n, k = q, k - 1
        return n, k

    def product(self, e: dict) -> P2.Poly2:
        """prod_i f_i^e_i for exponents e_i >= 1."""
        key = tuple(sorted(e.items()))
        out = self._products.get(key)
        if out is None:
            if len(key) == 1:
                (i, k), = key
                out = self.forms[i] if k == 1 else P2.p2_mul(self.product({i: k - 1}), self.forms[i])
            else:
                i, k = key[-1]
                out = P2.p2_mul(self.product(dict(key[:-1])), self.product({i: k}))
            self._products[key] = out
        return out

    def split(self, d: P2.Poly2) -> tuple:
        """(c, e) with d = c * prod f_i^e_i exactly, for a nonzero integer
        polynomial d; what is left of d after trial division by every form
        joins the base as a new form.  e is shared: do not change it."""
        key = tuple(sorted(d.items()))
        hit = self._splits.get(key)
        if hit is None:
            c = igcd(*d.values())
            d = {k: v // c for k, v in d.items()}
            e: dict = {}
            for i in range(len(self.forms)):
                while not _is_const(d):
                    q = self.divide(d, i)
                    if q is None:
                        break
                    d, e[i] = q, e.get(i, 0) + 1
            if _is_const(d):
                c *= d[(0, 0)]
            else:
                if d[P2.lead_key(d)] < 0:
                    d, c = P2.p2_neg(d), -c
                i = self.add(d)
                e[i] = e.get(i, 0) + 1
            hit = self._splits[key] = (c, e)
        return hit

    def lift(self, f: Rf2) -> "Factored":
        """A canonical `Rf2` over this base."""
        if _is_const(f.den):
            return Factored(self, f.num, f.den[(0, 0)])
        c, e = self.split(f.den)
        return _make(self, f.num, c, dict(e))

    def sum(self, terms) -> "Factored":
        """The sum of Factored terms over this base, by the one sum."""
        terms = [t for t in terms if t.n]
        if not terms:
            return Factored(self, {})
        return terms[0] if len(terms) == 1 else _sum(self, terms)

    def _swapped(self, i: int) -> tuple[int, int]:
        """(j, s): f_i with z and w exchanged is s * f_j."""
        hit = self._swaps.get(i)
        if hit is None:
            f = P2.p2_swap(self.forms[i])
            s = 1 if f[P2.lead_key(f)] > 0 else -1
            hit = self._swaps[i] = (self.add(f if s > 0 else P2.p2_neg(f)), s)
        return hit

    def _rule(self, axis: int, s: dict) -> tuple:
        """(prod_i f_i, sum_i s_i f_i' prod_{j != i} f_j) over the forms of s,
        the derivative taken along `axis` (0 for z, 1 for w)."""
        key = (axis, tuple(sorted(s.items())))
        hit = self._rules.get(key)
        if hit is None:
            prod, total = _ONE, {}
            for i, k in key[1]:
                f, df = self.forms[i], self._derivs[i][axis]
                total = P2.p2_add(P2.p2_mul(total, f), P2.p2_mul(df, {key0: v * k for key0, v in prod.items()}))
                prod = P2.p2_mul(prod, f)
            hit = self._rules[key] = (prod, total)
        return hit


def _division_plan(f: P2.Poly2):
    """How to divide by f: (axis, d, b, rows) when f = b*u^d + sum_k r_k u^k
    with an integer b, u the variable of `axis` and rows the (k, r_k) with
    r_k as {exponent of the other variable: coefficient}; None when neither
    variable has a constant leading coefficient."""
    best = None
    for axis in (0, 1):
        d = max(k[axis] for k in f)
        lead = {k[1 - axis]: v for k, v in f.items() if k[axis] == d}
        if d and lead.keys() == {0} and (best is None or d < best[1]):
            rows: dict = {}
            for k, v in f.items():
                if k[axis] < d:
                    rows.setdefault(k[axis], {})[k[1 - axis]] = v
            best = (axis, d, lead[0], list(rows.items()))
    return best


def _long_divide(n: P2.Poly2, axis: int, d: int, b: int, lower: list) -> P2.Poly2 | None:
    """n / f over Z, f as in `_division_plan`, or None unless f divides n.

    Long division in u, one row (a polynomial in the other variable) at a
    time from the top.  f is primitive, so by Gauss's lemma an exact
    quotient has integer coefficients: a row that b does not divide means
    f does not divide n.  This generalizes the synthetic division by a
    linear form b*u - a.
    """
    rows: dict = {}
    for key, v in n.items():
        rows.setdefault(key[axis], {})[key[1 - axis]] = v
    out = {}
    for i in range(max(rows), d - 1, -1):
        row = rows.pop(i, None)
        if not row:
            continue
        if b != 1:
            q = {}
            for j, v in row.items():
                t, r = divmod(v, b)
                if r:
                    return None
                q[j] = t
            row = q
        s = i - d
        for j, t in row.items():
            out[(s, j) if axis == 0 else (j, s)] = t
        for k, frow in lower:
            target = rows.setdefault(s + k, {})
            for j1, t in row.items():
                for j2, v in frow.items():
                    j = j1 + j2
                    r = target.get(j, 0) - t * v
                    if r:
                        target[j] = r
                    else:
                        del target[j]
    return None if any(rows.values()) else out


class Factored:
    """n / (c * prod_i f_i^e_i): n an integer polynomial in (z, w), c a
    positive integer, e {form index: exponent >= 1} over `base`.

    A constant or a polynomial may have no base (None); it takes the base
    of whatever it meets.  Arithmetic accepts ints, Fractions and `Rf2`
    (lifted onto the base).  Instances are immutable.
    """

    __slots__ = ("base", "n", "c", "e", "_rf2")

    def __init__(self, base: FormBase | None, n: P2.Poly2, c: int = 1, e: dict | None = None) -> None:
        self.base, self.n, self.c, self.e = base, n, c, e or {}
        self._rf2 = None

    @staticmethod
    def const(v) -> "Factored":
        v = Fraction(v)
        return Factored(None, {(0, 0): v.numerator} if v else {}, v.denominator)

    # --- predicates and the canonical form ------------------------------------

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    def const_value(self) -> Fraction | None:
        """The value of a constant, else None."""
        if self.e or self.n.keys() - {(0, 0)}:
            return None
        return Fraction(self.n.get((0, 0), 0), self.c)

    def rf2(self) -> Rf2:
        """The canonical `Rf2`.  Over linear forms that do not divide the
        numerator it takes no gcd: each such form is irreducible, so the
        numerator and denominator share at most an integer, the content of
        n with c.  Otherwise (a nonlinear form, which may be reducible, or
        a form that divides n over a base whose forms are not coprime) it
        takes one."""
        if self._rf2 is None:
            n, c, e = self.n, self.c, self.e
            if not n:
                self._rf2 = RF2_ZERO
            elif not e:
                self._rf2 = Rf2(n, {(0, 0): c})
            else:
                base = self.base
                lowest = all(_is_linear(base.forms[i]) and base.divide(n, i) is None for i in e)
                if lowest:
                    g = igcd(c, *n.values())
                    if g != 1:
                        n, c = {k: v // g for k, v in n.items()}, c // g
                # c > 0 and every form has a positive lex-leading coefficient
                den = {k: v * c for k, v in base.product(e).items()}
                self._rf2 = Rf2(n, den) if lowest else Rf2.make(n, den)
        return self._rf2

    @property
    def num(self) -> P2.Poly2:
        """The numerator of the canonical form."""
        return self.rf2().num

    @property
    def den(self) -> P2.Poly2:
        """The denominator of the canonical form."""
        return self.rf2().den

    def __str__(self) -> str:
        return str(self.rf2())

    def __repr__(self) -> str:
        return f"Factored({self.rf2()})"

    def __eq__(self, o) -> bool:
        if isinstance(o, Rf2):
            return self.rf2() == o
        o = self._other(o)
        if o is NotImplemented:
            return o
        if o.base is not None and self.base is not None and o.base is not self.base:
            return self.rf2() == o.rf2()
        return not (self - o).n

    __hash__ = None

    # --- arithmetic -------------------------------------------------------------

    def _other(self, o):
        """o as a Factored that can meet self, or NotImplemented."""
        if isinstance(o, Factored):
            return o
        if isinstance(o, (int, Fraction)):
            return Factored.const(o)
        if isinstance(o, Rf2):
            if self.base is not None:
                return self.base.lift(o)
            if _is_const(o.den):
                return Factored(None, o.num, o.den[(0, 0)])
            raise TypeError("an Rf2 with a denominator meets a Factored without a form base")
        return NotImplemented

    def _base(self, o: "Factored") -> FormBase | None:
        if self.base is None:
            return o.base
        if o.base is not None and o.base is not self.base:
            raise ValueError("Factored over two different form bases")
        return self.base

    def __add__(self, o) -> "Factored":
        o = self._other(o)
        if o is NotImplemented:
            return o
        if not o.n:
            return self
        if not self.n:
            return o
        return _sum(self._base(o), (self, o))

    __radd__ = __add__

    def __neg__(self) -> "Factored":
        return Factored(self.base, P2.p2_neg(self.n), self.c, self.e)

    def __sub__(self, o) -> "Factored":
        o = self._other(o)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, o) -> "Factored":
        o = self._other(o)
        return o if o is NotImplemented else o + (-self)

    def _scaled(self, v) -> "Factored":
        if not isinstance(v, Fraction):
            v = Fraction(v)
        if not v or not self.n:
            return Factored(self.base, {})
        if v == 1:
            return self
        n = self.n if v.numerator == 1 else {k: x * v.numerator for k, x in self.n.items()}
        return _make(self.base, n, self.c * v.denominator, self.e)

    def __mul__(self, o) -> "Factored":
        if isinstance(o, (int, Fraction)):
            return self._scaled(o)
        o = self._other(o)
        if o is NotImplemented:
            return o
        base = self._base(o)
        if not self.n or not o.n:
            return Factored(base, {})
        na, nb, ea, eb = self.n, o.n, self.e, o.e
        e = dict(ea)
        for i, k in eb.items():
            e[i] = e.get(i, 0) + k
        # a form of one denominator can only divide the other numerator
        if eb and not _is_const(na):
            na = _cancel(base, na, eb, ea, e)
        if ea and not _is_const(nb):
            nb = _cancel(base, nb, ea, eb, e)
        return _make(base, P2.p2_mul(na, nb), self.c * o.c, {i: k for i, k in e.items() if k})

    __rmul__ = __mul__

    def inverse(self) -> "Factored":
        """1/self: its numerator split over the base, which may grow."""
        if not self.n:
            raise ZeroDivisionError("inverse of zero")
        if _is_const(self.n):
            c, e = self.n[(0, 0)], {}
        elif self.base is None:
            raise TypeError("the inverse of a polynomial needs a form base")
        else:
            c, e = self.base.split(self.n)
        num = self.base.product(self.e) if self.e else _ONE
        m = self.c if c > 0 else -self.c
        return _make(self.base, {k: v * m for k, v in num.items()}, abs(c), dict(e))

    def __truediv__(self, o) -> "Factored":
        if isinstance(o, (int, Fraction)):
            return self._scaled(1 / Fraction(o))
        o = self._other(o)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, o) -> "Factored":
        o = self._other(o)
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, k: int) -> "Factored":
        if k < 0:
            return self.inverse() ** (-k)
        return Factored(self.base, P2.p2_pow(self.n, k), self.c**k, {i: m * k for i, m in self.e.items()})

    # --- calculus and symmetry ----------------------------------------------------

    def deriv_z(self) -> "Factored":
        return self._deriv(0)

    def deriv_w(self) -> "Factored":
        return self._deriv(1)

    def _deriv(self, axis: int) -> "Factored":
        n = self.n
        if not n:
            return self
        dn = (P2.p2_deriv_z if axis == 0 else P2.p2_deriv_w)(n)
        e = dict(self.e)
        s = {i: k for i, k in e.items() if self.base._derivs[i][axis]}
        if s:
            prod, total = self.base._rule(axis, s)
            dn = P2.p2_sub(P2.p2_mul(dn, prod), P2.p2_mul(n, total))
            for i in s:
                e[i] += 1
        # a form that the variable does not appear in may divide n' and not n
        return _reduced(self.base, dn, self.c, e, [i for i in e if i not in s])

    def swap(self) -> "Factored":
        """Exchange the two variables."""
        n, e = P2.p2_swap(self.n), {}
        for i, k in self.e.items():
            j, s = self.base._swapped(i)
            e[j] = k
            if s < 0 and k % 2:
                n = P2.p2_neg(n)
        return Factored(self.base, n, self.c, e)


def _make(base: FormBase | None, n: P2.Poly2, c: int, e: dict) -> Factored:
    """n / (c * prod f^e) with the integer content shared by n and c removed."""
    if not n:
        return Factored(base, {})
    if c != 1:
        g = igcd(c, *n.values())
        if g != 1:
            n, c = {k: v // g for k, v in n.items()}, c // g
    return Factored(base, n, c, e)


def _cancel(base: FormBase, n: P2.Poly2, forms: dict, other: dict, e: dict) -> P2.Poly2:
    """n with each form of `forms` that `other` lacks divided out while it
    divides, at most its exponent times; e, the exponents of the product,
    loses what was divided out."""
    for i, k in forms.items():
        if i not in other:
            n, left = base.divide_out(n, i, k)
            e[i] -= k - left
    return n


def _sum(base: FormBase | None, terms) -> Factored:
    """The sum of nonzero reduced terms over one base, reduced.

    The common denominator is the lcm of the constants times each form to
    its largest exponent.  A form can divide the numerator of the sum only
    if two or more terms reach that exponent: a term alone at the top has
    a numerator the form does not divide, and every other term is a
    multiple of the form.
    """
    top: dict = {}
    ties: dict = {}
    for t in terms:
        for i, k in t.e.items():
            m = top.get(i, 0)
            if k > m:
                top[i], ties[i] = k, 1
            elif k == m:
                ties[i] += 1
    c = lcm(*[t.c for t in terms])
    num: dict = {}
    for t in terms:
        m = c // t.c
        rest = {i: k - t.e.get(i, 0) for i, k in top.items() if k != t.e.get(i, 0)}
        mult = base.product(rest) if rest else _ONE
        for (i, j), u in t.n.items():
            u *= m
            for (k, l), v in mult.items():
                key = (i + k, j + l)
                num[key] = num.get(key, 0) + u * v
    return _reduced(base, {k: v for k, v in num.items() if v}, c, top, [i for i, n in ties.items() if n > 1])


def _reduced(base: FormBase | None, n: P2.Poly2, c: int, e: dict, check) -> Factored:
    """`_make` of n / (c * prod f^e) after dividing each form of `check` out
    of n while it divides, at most its exponent times; e is changed."""
    if not n:
        return Factored(base, {})
    for i in check:
        n, k = base.divide_out(n, i, e[i])
        if k:
            e[i] = k
        else:
            del e[i]
    return _make(base, n, c, e)
