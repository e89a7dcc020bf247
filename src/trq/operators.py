"""Quantum-curve operator expressions and their duality rewrites.

Operators are noncommutative expression trees over the generators
x, y (acting on the main variable) and x0, y0 (acting on the base point),
with exact scalar coefficients that may involve hbar and named parameters.
The duality substitutions are literal: no normal ordering is ever applied
by a rewrite.

Canonical form.  `simplify` rebuilds a tree bottom-up, once, and returns a
fixed point: simplify(simplify(e)) == simplify(e) as nodes.  Its rules:

- A sum is flat: nested sums are spliced, like terms are collected by
  their core node (the term without its scalar coefficient), and terms
  are ordered by the text of their cores.  A sum keeps the sign of its
  first term: no -1 is ever taken out of a sum as a whole.
- Terms that are rational functions of one base (its powers, inverse
  powers and RatSubst nodes) are merged when one of them is a RatSubst:
  the constant, one term per power of the polynomial part, and the
  proper part as one RatSubst, or as inverse powers when its denominator
  is a power of t.
- Signs go into factor position only.  A sum that is a factor of a
  product, or the base of an inverse, a power or a RatSubst, is divided by
  the leading rational coefficient of its first term; that coefficient
  moves into the enclosing scalar (raised to k for a power, composed into
  R for a RatSubst).  So 1/(12 - y) is -1/(y - 12), and (1 - y)^3 is
  -(y - 1)^3.  A scalar times a single sum is that sum, scaled term by
  term.
- A product is flat, with at most one scalar, first; adjacent factors
  that are functions of one base are merged (y^2 * 1/y is y).
- Powers and inverses of scalars, coordinate multipliers and function
  nodes are evaluated or composed; a RatSubst has a monic numerator, its
  leading coefficient a scalar factor.

`expand` returns the canonical form with every product distributed over
sums: a flat sum of products of atoms.  expand(a - b) == sc(0) proves
a = b.  For polynomial expressions in the generators the converse holds
too, as equality of noncommutative polynomials: expand never normal-orders,
so y x - x y - hbar does not expand to 0.

Work done once.  Nodes are immutable, so what is derived from one is kept
on it, in slots that are not fields (they take no part in equality, hash or
repr):
- `_hash`: every node and every `Sym` computes its hash on first use, so the
  memo, the like terms and the function groups, all keyed by node, hash
  each node once (a `Sym` hashes each coefficient as its numerator and
  denominator);
- `_canon`: set on every node that `simplify` returns, which is a fixed
  point, so a later call returns it at once, also as a subtree of a new
  tree;
- `_form`: set on every node that `simplify` was given, to its result, so
  simplifying the same object again (as `expand` does) costs one read;
- `_expanded`: set on every node that `expand` was given, to its result, so
  expanding the same object again costs one read;
- `_text`: set by `op_text` on first use, so sorting the terms of a sum
  reads each core's text;
- `_split`: set by `_split_coeff` on a product with a scalar in front, to
  (coefficient, core), so a term that meets many sums gives one core
  object, whose hash and text are computed once.
Within one call `simplify` also keeps a memo from each node it has rebuilt
to the result, so structurally equal but distinct subtrees, which a literal
rewrite puts in many places, are rebuilt once.

Rewrites.  `_kids(e)` gives the operator children of a node in order and
`_rebuild(e, kids)` builds a node of the same kind, with its own exponent or
rational function, over new children; leaves have no children and rebuild
to themselves.  The literal substitutions (`_map_gens`), the singular limits
(`_limit`) and the Weyl identities (`normal_order_mul_rule`,
`gaiotto_shift_identity`) reach children only through this pair, so a match
is found below every kind of node, inside RatSubst and Exp too.
`linear_form(e)` reads a canonical form that is a scalar plus rational
multiples of generators as (scalar, {kind: coefficient}), or gives None; the
base-shift match and the evaluation of exponentials read it.  `_simp`,
`_terms` and `_text_of` are hot paths and keep their own dispatch, with one
constructor call per kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .algebra import RatFun
from .algebra import poly as P


class OperatorError(ValueError):
    pass


def _cached_hash(self) -> int:
    """The dataclass hash of a frozen instance, computed on first use only."""
    h = self._hash
    if h is None:
        h = hash(tuple([getattr(self, f) for f in self.__dataclass_fields__]))
        object.__setattr__(self, "_hash", h)
    return h


# ---------------------------------------------------------------------------
# scalars: Laurent polynomials in hbar and named parameters over Q

class _Unit:
    """`Sym.unit`, whether a scalar is 1, read without comparing Fractions:
    computed on the first read and kept on the instance, where every later
    read finds it as a plain attribute (a non-data descriptor).  This is
    `functools.cached_property` without its lock, which before Python 3.12
    costs about 1 us per first read: some 3 % of a rewrite run."""

    def __get__(self, s, owner=None):
        if s is None:
            return self
        terms = s.terms
        unit = len(terms) == 1 and not terms[0][0] and terms[0][1].denominator == 1 and terms[0][1].numerator == 1
        s.__dict__["unit"] = unit
        return unit


@dataclass(frozen=True)
class Sym:
    """A Laurent polynomial in hbar and named parameters over Q.

    Normal form, which every constructor keeps and the fast paths of `+`,
    `*` and `scale` rely on: `terms` is a tuple of (monomial, coefficient)
    sorted by monomial, each monomial a tuple of (name, exponent) sorted by
    name with no zero exponent, each coefficient a nonzero `Fraction`, no
    monomial twice.  Equal scalars have equal terms.
    """

    terms: tuple = ()  # tuple[(monomial, Fraction)], monomial = tuple[(name, int)]

    _hash = None  # set on first use by __hash__

    unit = _Unit()  # whether this is the scalar 1

    def __hash__(self) -> int:
        """The hash of the terms with each coefficient as its numerator and
        denominator, computed on first use only."""
        h = self._hash
        if h is None:
            h = hash(tuple([(m, c.numerator, c.denominator) for m, c in self.terms]))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(d: dict) -> "Sym":
        """The normal form of {monomial: coefficient}, a name that appears
        twice in a monomial taking the sum of its exponents."""
        clean: dict = {}
        for mono, c in d.items():
            exps: dict = {}
            for n, e in mono:
                exps[n] = exps.get(n, 0) + e
            mono = tuple(sorted((n, e) for n, e in exps.items() if e))
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if not c:
                continue
            old = clean.get(mono)
            clean[mono] = c if old is None else old + c
        return Sym(tuple(sorted((m, c) for m, c in clean.items() if c)))

    @staticmethod
    def const(v) -> "Sym":
        if not isinstance(v, Fraction):
            v = Fraction(v)
        return Sym(((tuple(), v),)) if v else Sym()

    @staticmethod
    def var(name: str, exp: int = 1) -> "Sym":
        return Sym(((((name, exp),), Fraction(1)),)) if exp else Sym.const(1)

    @staticmethod
    def hbar(exp: int = 1) -> "Sym":
        return Sym.var("hbar", exp)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(not m for m, _ in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise OperatorError(f"scalar {self} is not a plain rational")
        return self.terms[0][1]

    def __add__(self, o: "Sym") -> "Sym":
        """The two sorted term lists merged, like monomials added and zeros
        dropped: the result is sorted without a sort."""
        a, b = self.terms, o.terms
        if not b:
            return self
        if not a:
            return o
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ma, mb = a[i][0], b[j][0]
            if ma == mb:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((ma, c))
                i += 1
                j += 1
            elif ma < mb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out += a[i:]
        out += b[j:]
        return Sym(tuple(out))

    def __neg__(self) -> "Sym":
        return Sym(tuple([(m, -c) for m, c in self.terms]))

    def __sub__(self, o: "Sym") -> "Sym":
        return self + (-o)

    def __mul__(self, o: "Sym") -> "Sym":
        a, b = self.terms, o.terms
        if not b or self.unit:
            return o
        if not a or o.unit:
            return self
        # a plain rational scales each coefficient: monomials, their order
        # and the nonzero coefficients stay
        if len(a) == 1 and not a[0][0]:
            v = a[0][1]
            return Sym(tuple([(m, c * v) for m, c in b]))
        if len(b) == 1 and not b[0][0]:
            v = b[0][1]
            return Sym(tuple([(m, c * v) for m, c in a]))
        d: dict = {}
        for m1, c1 in a:
            e1 = dict(m1)
            for m2, c2 in b:
                e = dict(e1)
                for n, k in m2:
                    e[n] = e.get(n, 0) + k
                key = tuple(sorted((n, k) for n, k in e.items() if k))
                old = d.get(key)
                d[key] = c1 * c2 if old is None else old + c1 * c2
        return Sym(tuple(sorted((m, c) for m, c in d.items() if c)))

    def scale(self, v) -> "Sym":
        if not isinstance(v, Fraction):
            v = Fraction(v)
        if not v:
            return Sym()
        return Sym(tuple([(m, c * v) for m, c in self.terms]))

    def pow(self, n: int) -> "Sym":
        if n < 0:
            if len(self.terms) != 1:
                raise OperatorError("negative power of a non-monomial scalar")
            (m, c), = self.terms
            return Sym.make({tuple((nm, e * n) for nm, e in m): Fraction(1) / c ** (-n)})
        out = Sym.const(1)
        for _ in range(n):
            out = out * self
        return out

    def hbar_coefficients(self) -> dict:
        """hbar exponent -> Fraction; requires all parameters substituted."""
        out: dict = {}
        for m, c in self.terms:
            names = dict(m)
            h = names.pop("hbar", 0)
            if names:
                raise OperatorError(f"unbound parameters {sorted(names)} in scalar")
            out[h] = out.get(h, Fraction(0)) + c
        return out

    def lead_coeff(self) -> Fraction:
        return self.terms[0][1] if self.terms else Fraction(0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)


HBAR = Sym.hbar()
ONE = Sym.const(1)


# ---------------------------------------------------------------------------
# expression nodes


@dataclass(frozen=True)
class OpExpr:
    # derived values, kept on the node (see the module docstring)
    _hash = None   # set on first use by _cached_hash
    _canon = False  # True on every node that simplify returns
    _form = None   # the node's canonical form, once simplify has been given it
    _expanded = None  # the node's expanded form, once expand has been given it
    _text = None   # set by op_text on first use
    _split = None  # (coefficient, core) of a scalar-led product, set by _split_coeff


@dataclass(frozen=True)
class Scalar(OpExpr):
    value: Sym

    __hash__ = _cached_hash
    _canon = True  # every scalar and generator is its own canonical form


@dataclass(frozen=True)
class Gen(OpExpr):
    kind: str          # "x", "y", "x0", "y0"
    side: str = ""     # "", "dual", "dagger"

    __hash__ = _cached_hash
    _canon = True


@dataclass(frozen=True)
class CoordMul(OpExpr):
    """Multiplication by a rational function of the parametrizing coordinate."""

    var: str           # "z" or "z0"
    fn: RatFun

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Add(OpExpr):
    children: tuple

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Mul(OpExpr):
    children: tuple    # composition order: leftmost acts last

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Inv(OpExpr):
    child: OpExpr

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Pow(OpExpr):
    child: OpExpr
    exp: int

    __hash__ = _cached_hash


@dataclass(frozen=True)
class Exp(OpExpr):
    arg: OpExpr        # scalar plus linear combination of generators

    __hash__ = _cached_hash


@dataclass(frozen=True)
class RatSubst(OpExpr):
    """R(child) for a rational R with exact coefficients."""

    num: tuple         # polynomial, low-to-high Fractions
    den: tuple
    child: OpExpr

    __hash__ = _cached_hash


def sc(v) -> Scalar:
    return Scalar(v if isinstance(v, Sym) else Sym.const(v))


def add(*cs) -> OpExpr:
    return Add(tuple(cs))


def mul(*cs) -> OpExpr:
    return Mul(tuple(cs))


def sub(a, b) -> OpExpr:
    return Add((a, Mul((sc(-1), b))))


X, Y, X0, Y0 = Gen("x"), Gen("y"), Gen("x0"), Gen("y0")


def hb(exp: int = 1) -> Scalar:
    return Scalar(Sym.hbar(exp))


def ratsubst(num, den, child) -> RatSubst:
    return RatSubst(P.poly(num), P.poly(den), child)


def _kids(e: OpExpr) -> tuple:
    """The operator children of e, in order; a leaf has none."""
    if isinstance(e, (Add, Mul)):
        return e.children
    if isinstance(e, (Inv, Pow, RatSubst)):
        return (e.child,)
    if isinstance(e, Exp):
        return (e.arg,)
    return ()


def _rebuild(e: OpExpr, kids) -> OpExpr:
    """A node of e's kind and own fields over the children kids; a leaf is
    returned as it is."""
    if isinstance(e, Add):
        return Add(tuple(kids))
    if isinstance(e, Mul):
        return Mul(tuple(kids))
    if isinstance(e, Inv):
        return Inv(kids[0])
    if isinstance(e, Pow):
        return Pow(kids[0], e.exp)
    if isinstance(e, Exp):
        return Exp(kids[0])
    if isinstance(e, RatSubst):
        return RatSubst(e.num, e.den, kids[0])
    return e


# ---------------------------------------------------------------------------
# canonical text


def op_text(e: OpExpr) -> str:
    t = e._text
    if t is None:
        t = _text_of(e)
        object.__setattr__(e, "_text", t)
    return t


def _text_of(e: OpExpr) -> str:
    if isinstance(e, Scalar):
        return f"(scalar {e.value})"
    if isinstance(e, Gen):
        return f"(gen {e.kind}{' ' + e.side if e.side else ''})"
    if isinstance(e, CoordMul):
        return f"(coordmul {e.var} {e.fn})"
    if isinstance(e, Add):
        return "(add " + " ".join(op_text(c) for c in e.children) + ")"
    if isinstance(e, Mul):
        return "(mul " + " ".join(op_text(c) for c in e.children) + ")"
    if isinstance(e, Inv):
        return f"(inv {op_text(e.child)})"
    if isinstance(e, Pow):
        return f"(pow {op_text(e.child)} {e.exp})"
    if isinstance(e, Exp):
        return f"(exp {op_text(e.arg)})"
    if isinstance(e, RatSubst):
        return f"(ratsubst {P.to_str(e.num, 't')} | {P.to_str(e.den, 't')} {op_text(e.child)})"
    raise TypeError(type(e))


# ---------------------------------------------------------------------------
# canonical form


def simplify(e: OpExpr) -> OpExpr:
    """The canonical form of e, reached in one bottom-up pass.

    Every node is rebuilt from canonical children by the constructors below
    (`_add`, `_mul`, `_pow`, `_fn`, `_exp`), each of which returns a
    canonical node, so simplify(simplify(e)) == simplify(e) as nodes; the
    result is marked, and simplify returns a marked node itself.
    """
    return _simp(e, {})


def _simp(e: OpExpr, memo: dict) -> OpExpr:
    """The canonical form of e.  A canonical node is returned as it is, a
    node simplified before gives its kept form, and memo maps every node
    rebuilt in this pass to its result, so structurally equal subtrees (as
    after a literal substitution) are rebuilt once."""
    if e._canon:
        return e
    out = e._form
    if out is not None:
        return out
    out = memo.get(e)
    if out is None:
        if isinstance(e, CoordMul):
            out = _coord(e.var, e.fn) if e.fn.is_const() else e
        elif isinstance(e, Add):
            out = _add([_simp(c, memo) for c in e.children])
        elif isinstance(e, Mul):
            out = _mul([_simp(c, memo) for c in e.children])
        elif isinstance(e, Inv):
            out = _pow(_simp(e.child, memo), -1)
        elif isinstance(e, Pow):
            out = _pow(_simp(e.child, memo), e.exp)
        elif isinstance(e, Exp):
            out = _exp(_simp(e.arg, memo))
        elif isinstance(e, RatSubst):
            out = _fn(RatFun.make(e.num, e.den), _simp(e.child, memo))
        else:
            raise TypeError(type(e))
        memo[e] = out
        object.__setattr__(out, "_canon", True)
    if out is not e:
        object.__setattr__(e, "_form", out)
    return out


def _poly_eval_sym(p: tuple, v: Sym) -> Sym:
    acc = Sym.const(0)
    for c in reversed(p):
        acc = acc * v + Sym.const(c)
    return acc


_ONE = sc(1)
_T = RatFun.var()


def _split_coeff(e: OpExpr) -> tuple[Sym, OpExpr]:
    """Write a canonical term e as coeff * core with a scalar coefficient
    pulled out; a product keeps the pair (see the module docstring)."""
    if isinstance(e, Scalar):
        return e.value, _ONE
    if isinstance(e, Mul) and isinstance(e.children[0], Scalar):
        split = e._split
        if split is None:
            rest = e.children[1:]
            split = (e.children[0].value, rest[0] if len(rest) == 1 else Mul(rest))
            object.__setattr__(e, "_split", split)
        return split
    return ONE, e


def _term(coeff: Sym, core: OpExpr) -> OpExpr:
    """coeff * core as a canonical term, for a core that is not a sum."""
    if isinstance(core, Scalar) and core.value.unit:
        return Scalar(coeff)
    if coeff.unit:
        return core
    if isinstance(core, Mul):
        return Mul((Scalar(coeff),) + core.children)
    return Mul((Scalar(coeff), core))


def _scale(c: Sym, e: OpExpr) -> OpExpr:
    """c * e for canonical e; a sum is scaled term by term and stays flat."""
    if c.unit:
        return e
    if c.is_zero():
        return sc(0)
    if isinstance(e, Add):
        terms = [_scale(c, t) for t in e.children]
        # a rational factor keeps every core, its order and its function group
        return Add(tuple(terms)) if c.is_const() else _add(terms)
    coeff, core = _split_coeff(e)
    return _term(c * coeff, core)


def _primitive(s: Add) -> tuple[Fraction, Add]:
    """(l, s / l) with l the leading rational coefficient of the canonically
    first term of s: the form a sum takes in factor position."""
    lead = _split_coeff(s.children[0])[0].lead_coeff()
    return lead, s if lead == 1 else _scale(Sym.const(1 / lead), s)


def _coord(var: str, fn: RatFun) -> OpExpr:
    return sc(fn.const_value()) if fn.is_const() else CoordMul(var, fn)


def _exp(a: OpExpr) -> OpExpr:
    return sc(1) if isinstance(a, Scalar) and a.value.is_zero() else Exp(a)


def _power_of(e: OpExpr) -> tuple[int, OpExpr]:
    """(k, base) with e = base^k, for a canonical node that is not a RatSubst."""
    if isinstance(e, Pow):
        return e.exp, e.child
    if isinstance(e, Inv):
        c = e.child
        return (-c.exp, c.child) if isinstance(c, Pow) else (-1, c)
    return 1, e


def _as_function_of(e: OpExpr) -> tuple[RatFun, OpExpr]:
    """View a canonical node as (R, base): a rational function of a base operator."""
    if isinstance(e, RatSubst):
        return RatFun(e.num, e.den), e.child
    k, base = _power_of(e)
    t_k = (Fraction(0),) * abs(k) + (Fraction(1),)
    return (RatFun(t_k, P.ONE) if k >= 0 else RatFun(P.ONE, t_k)), base


def _pow_node(base: OpExpr, k: int) -> OpExpr:
    if k == 1:
        return base
    if k > 1:
        return Pow(base, k)
    return Inv(base) if k == -1 else Inv(Pow(base, -k))


def _pow(c: OpExpr, k: int) -> OpExpr:
    """c^k for canonical c and any integer k; negative powers are inverses."""
    if k == 0:
        return sc(1)
    if k == 1:
        return c
    if isinstance(c, Scalar):
        v = c.value
        if k < 0 and v.is_zero():
            raise OperatorError(f"division by zero: the power {k} of the scalar 0")
        if k > 0 or len(v.terms) == 1:
            return Scalar(v.pow(k))
        return _pow_node(Scalar(v.pow(-k)), -1)
    if isinstance(c, CoordMul):
        return _coord(c.var, c.fn**k)
    if isinstance(c, RatSubst):
        return _fn(RatFun(c.num, c.den) ** k, c.child)
    if isinstance(c, Add):
        lead, prim = _primitive(c)
        return _scale(Sym.const(lead**k), _pow_node(prim, k))
    if isinstance(c, Mul):
        v, rest = _split_coeff(c)
        if not v.unit and (k > 0 or len(v.terms) == 1):
            return _scale(v.pow(k), _pow(rest, k))
        if k < 0:  # a scalar that has no inverse stays inside
            return _pow_node(_pow(c, -k), -1)
        return _pow_node(c, k)
    k0, base = _power_of(c)
    if base is not c:
        return _pow(base, k0 * k)
    return _pow_node(c, k)


def _monomial(r: RatFun):
    """(a, k) when r = a t^k, else None."""
    num = [i for i, v in enumerate(r.num) if v]
    den = [i for i, v in enumerate(r.den) if v]
    if len(num) == 1 and len(den) == 1:
        return r.num[num[0]] / r.den[den[0]], num[0] - den[0]
    return None


def _fn(r: RatFun, base: OpExpr) -> OpExpr:
    """r(base) for canonical base.

    Scalars are evaluated, coordinate multipliers composed, nested function
    nodes composed into one, and the rational coefficient of a product base
    or the leading one of a sum base moved into r.  What is left is a power
    of the base or one RatSubst with a monic numerator, its leading
    coefficient a scalar factor.
    """
    if r.is_zero():
        return sc(0)
    mono = _monomial(r)
    if mono is not None:
        a, k = mono
        return _scale(Sym.const(a), _pow(base, k))
    if isinstance(base, Scalar):
        num, den = _poly_eval_sym(r.num, base.value), _poly_eval_sym(r.den, base.value)
        if len(den.terms) == 1:
            return Scalar(num * den.pow(-1))
    elif isinstance(base, CoordMul):
        return _coord(base.var, r.compose(base.fn))
    elif isinstance(base, (Pow, Inv, RatSubst)):
        inner, b = _as_function_of(base)
        return _fn(r.compose(inner), b)
    elif isinstance(base, Add):
        lead, prim = _primitive(base)
        if lead != 1:
            return _fn(r.compose(_T * lead), prim)
    elif isinstance(base, Mul):
        c, rest = _split_coeff(base)
        if not c.unit and c.is_const():
            return _fn(r.compose(_T * c.const_value()), rest)
    lc = r.num[-1]
    node = RatSubst(P.scale(r.num, 1 / lc), r.den, base)
    return _scale(Sym.const(lc), node)


def _merge(a: OpExpr, b: OpExpr):
    """a * b as one factor when both are functions of one base, else None."""
    if isinstance(a, CoordMul) and isinstance(b, CoordMul):
        return _coord(a.var, a.fn * b.fn) if a.var == b.var else None
    if isinstance(a, RatSubst) or isinstance(b, RatSubst):
        ra, ba = _as_function_of(a)
        rb, bb = _as_function_of(b)
        return _fn(ra * rb, ba) if ba == bb else None
    ka, ba = _power_of(a)
    kb, bb = _power_of(b)
    return _pow(ba, ka + kb) if ba == bb else None


def _mul(factors: list) -> OpExpr:
    """The canonical product of canonical factors, in order.

    Nested products are spliced, scalars collected in front, every sum
    factor divided by its leading rational coefficient (which joins the
    scalar, with the sign), and adjacent
    functions of one base merged until no neighbours merge.  A scalar
    times a single sum is that sum, scaled term by term.
    """
    coeff = ONE
    out: list = []
    todo = list(reversed(factors))
    while todo:
        g = todo.pop()
        if isinstance(g, Mul):
            todo.extend(reversed(g.children))
            continue
        if isinstance(g, Scalar):
            coeff = coeff * g.value
            continue
        if isinstance(g, Add):
            lead, g = _primitive(g)
            if lead != 1:
                coeff = coeff.scale(lead)
        if out:
            m = _merge(out[-1], g)
            if m is not None:
                out.pop()
                todo.append(m)
                continue
        out.append(g)
    if coeff.is_zero():
        return sc(0)
    if not out:
        return Scalar(coeff)
    if len(out) == 1:
        return _scale(coeff, out[0])
    return Mul(tuple(out)) if coeff.unit else Mul((Scalar(coeff),) + tuple(out))


def _add(terms: list) -> OpExpr:
    """The canonical sum of canonical terms.

    Nested sums are spliced and like terms collected by their core node.
    Terms that are functions of one base merge when one of them is a
    RatSubst (`_merge_function_groups`).  Terms are ordered by the text of
    their cores; the sum keeps whatever sign its first term has.
    """
    coeffs: dict = {}

    def push(t: OpExpr) -> None:
        if isinstance(t, Add):
            for u in t.children:
                push(u)
            return
        c, core = _split_coeff(t)
        old = coeffs.get(core)
        coeffs[core] = c if old is None else old + c

    for t in terms:
        push(t)
    _merge_function_groups(coeffs, push)
    items = [(core, c) for core, c in coeffs.items() if not c.is_zero()]
    if not items:
        return sc(0)
    if len(items) == 1:
        return _term(items[0][1], items[0][0])
    items.sort(key=lambda item: op_text(item[0]))
    return Add(tuple(_term(c, core) for core, c in items))


def _merge_function_groups(coeffs: dict, push) -> None:
    """Rewrite, per base, the rational-coefficient terms R_i(base) of a sum
    when one of them is a RatSubst: their total R is split into its
    constant, one term per power of its polynomial part, and its proper
    part as one RatSubst (or as inverse powers when its denominator is a
    power of t).  A power-1 term of a sum base is spliced back into the sum
    through `push`; it only holds bases nested inside this one, so the
    rounds end.  A group already in this form splits into itself and is
    left as it is: one proper RatSubst, whose denominator is not a power of
    t, beside positive powers of the base.
    """
    while True:
        if not any(isinstance(core, RatSubst) for core in coeffs):
            return
        groups: dict = {}
        for core, c in coeffs.items():
            if isinstance(core, (Gen, Pow, Inv, RatSubst)) and c.is_const() and not c.is_zero():
                base = core.child if isinstance(core, RatSubst) else _power_of(core)[1]
                if not isinstance(base, Scalar):
                    groups.setdefault(base, []).append(core)
        spilled = False
        for base, members in groups.items():
            rats = [m for m in members if isinstance(m, RatSubst)]
            if not rats:
                continue
            if len(rats) == 1 and _is_atom(rats[0]) and not any(isinstance(m, Inv) for m in members):
                continue  # a proper part beside positive powers: already split
            total = _group_total([(_as_function_of(m)[0], coeffs.pop(m).const_value()) for m in members])
            pieces = _split_ratfun(total, base)
            for piece in pieces:
                push(piece)
            if any(isinstance(piece, Add) for piece in pieces):
                spilled = True
                break
        if not spilled:
            return


def _group_total(parts: list) -> RatFun:
    """The sum of c * R over (R, c) in parts, reduced once: numerators over
    one denominator are added, and the distinct denominators are put over
    their product."""
    nums: dict = {}
    for r, c in parts:
        nums[r.den] = P.add(nums.get(r.den, P.ZERO), P.scale(r.num, c))
    dens = list(nums)
    num = P.ZERO
    for i, num_i in enumerate(nums.values()):
        for j, den in enumerate(dens):
            if j != i:
                num_i = P.mul(num_i, den)
        num = P.add(num, num_i)
    den = P.ONE
    for d in dens:
        den = P.mul(den, d)
    return RatFun.make(num, den)


def _split_ratfun(r: RatFun, base: OpExpr) -> list:
    """r(base) as canonical terms: constant, powers, proper part."""
    quot, rem = P.divmod_(r.num, r.den)
    pieces = [_scale(Sym.const(v), _pow(base, i)) for i, v in enumerate(quot) if v]
    if P.is_zero(rem):
        return pieces
    m = P.degree(r.den)
    if not any(r.den[:m]):  # the denominator is t^m
        return pieces + [_scale(Sym.const(v), _pow(base, i - m)) for i, v in enumerate(rem) if v]
    return pieces + [_fn(RatFun(rem, r.den), base)]


def expand(e: OpExpr) -> OpExpr:
    """The canonical form with products distributed over sums: a flat sum
    of products of atoms.

    Positive powers of sums and products are multiplied out, and every
    RatSubst is split into its polynomial part, multiplied out, and its
    proper part.  The atoms are generators, coordinate multipliers, powers
    of these, exponentials, inverses and proper RatSubst nodes (whose
    denominator is not a power of t), each with expanded children.
    """
    out = e._expanded
    if out is None:
        out = _add(_terms(simplify(e)))
        object.__setattr__(e, "_expanded", out)
    return out


def _terms(e: OpExpr) -> list:
    """A canonical e as a list of canonical products of atoms."""
    if isinstance(e, Add):
        return [t for c in e.children for t in _terms(c)]
    if isinstance(e, Mul):
        return _products([_terms(c) for c in e.children])
    if isinstance(e, Pow):
        base = _add(_terms(e.child))
        if isinstance(base, (Add, Mul)):
            return _products([list(base.children) if isinstance(base, Add) else [base]] * e.exp)
        return _checked(_pow(base, e.exp))
    if isinstance(e, Inv):
        return _checked(_pow(_add(_terms(e.child)), -1))
    if isinstance(e, Exp):
        return [_exp(_add(_terms(e.arg)))]
    if isinstance(e, RatSubst):
        base = _add(_terms(e.child))
        return [t for p in _split_ratfun(RatFun(e.num, e.den), base) for t in _checked(p)]
    return [e]


def _products(factor_terms: list) -> list:
    out = [_ONE]
    for fts in factor_terms:
        out = [t for a in out for u in fts for t in _checked(_mul([a, u]))]
    return out


def _checked(t: OpExpr) -> list:
    """[t] when t is a product of atoms, else its terms; merging adjacent
    atoms can make a polynomial part or a sum (t^2/(t+1) times 1/t)."""
    if isinstance(t, Mul):
        factors = t.children[1:] if isinstance(t.children[0], Scalar) else t.children
        if all(_is_atom(f) for f in factors):
            return [t]
    elif isinstance(t, Scalar) or _is_atom(t):
        return [t]
    return _terms(t)


def _is_atom(f: OpExpr) -> bool:
    if isinstance(f, (Add, Mul)):
        return False
    if isinstance(f, Pow):
        return not isinstance(f.child, (Add, Mul))
    if isinstance(f, RatSubst):
        return P.degree(f.num) < P.degree(f.den) and any(f.den[:-1])
    return True


def linear_form(e: OpExpr):
    """(s, {kind: c}) when the canonical form of e is the scalar s plus the
    rational multiples c of generators (summed over sides), else None."""
    e = simplify(e)
    scal = Sym()
    gens: dict = {}
    for t in e.children if isinstance(e, Add) else (e,):
        coeff, core = _split_coeff(t)
        if isinstance(core, Scalar):
            scal = scal + coeff * core.value
        elif isinstance(core, Gen) and coeff.is_const():
            gens[core.kind] = gens.get(core.kind, Fraction(0)) + coeff.const_value()
        else:
            return None
    return scal, gens


# ---------------------------------------------------------------------------
# duality rewrites


def _map_gens(e: OpExpr, table) -> OpExpr:
    """e with every generator g replaced by table(g)."""
    if isinstance(e, Gen):
        return table(e)
    if isinstance(e, CoordMul):
        raise OperatorError("cannot rewrite a coordinate multiplier; eliminate it first")
    return _rebuild(e, [_map_gens(c, table) for c in _kids(e)])


_DUAL_SIDE = {"": "dual", "dual": "", "dagger": "dagger-dual", "dagger-dual": "dagger"}


def xy_dual_rewrite(e: OpExpr) -> OpExpr:
    """Literal substitution sending each generator to its x-y dual expression."""

    def table(g: Gen) -> OpExpr:
        s = _DUAL_SIDE[g.side]
        x, y, x0, y0 = Gen("x", s), Gen("y", s), Gen("x0", s), Gen("y0", s)
        dx = Inv(sub(x, x0))
        dy = Inv(sub(y, y0))
        if g.kind == "x":
            return sub(y0, Mul((hb(), dx)))
        if g.kind == "y":
            return sub(x0, Mul((hb(), dy)))
        if g.kind == "x0":
            return sub(y, Mul((hb(), dx)))
        if g.kind == "y0":
            return sub(x, Mul((hb(), dy)))
        raise OperatorError(g.kind)

    return _map_gens(e, table)


def shear_rewrite(e: OpExpr, R: RatFun, side: str | None = None) -> OpExpr:
    """y -> y - R(x), y0 -> y0 - R(x0); literal replacement."""

    def table(g: Gen) -> OpExpr:
        if side is not None and g.side != side:
            return g
        if g.kind == "y":
            return sub(g, RatSubst(R.num, R.den, Gen("x", g.side)))
        if g.kind == "y0":
            return sub(g, RatSubst(R.num, R.den, Gen("x0", g.side)))
        return g

    return _map_gens(e, table)


def sympl_dual_rewrite(e: OpExpr, R: RatFun) -> OpExpr:
    """Transport along (x, y) -> (x + R(y), y): dual, shear, dual."""
    return xy_dual_rewrite(shear_rewrite(xy_dual_rewrite(e), R))


# ---------------------------------------------------------------------------
# singular base-point limits


_INF = object()


def singular_limit(e: OpExpr, x0_value, y0_value) -> OpExpr:
    """Freeze the base point: x0 and y0 become scalars (possibly infinite).

    Infinite values may only survive inside Inv(...) patterns, where they
    send the whole inverse to zero; anything else is an error.
    """

    def conv(v):
        if v is None:
            return None
        if v == "inf":
            return _INF
        return Fraction(v)

    xv, yv = conv(x0_value), conv(y0_value)
    out = _limit(e, xv, yv)
    if out is _INF:
        raise OperatorError("operator does not admit this singular limit")
    return simplify(out)


def _limit(e: OpExpr, xv, yv):
    """e with x0, y0 frozen at xv, yv; _INF when an infinite value survives.
    An infinite child sends an inverse to 0 and R(child) to R(inf) when that
    is finite; every other node passes the infinity up."""
    if isinstance(e, Gen):
        val = {"x0": xv, "y0": yv}.get(e.kind)
        if val is None:
            return e
        return _INF if val is _INF else sc(val)
    kids = [_limit(c, xv, yv) for c in _kids(e)]
    if any(k is _INF for k in kids):
        if isinstance(e, Inv):
            return sc(0)
        if isinstance(e, RatSubst):
            # R(inf): finite iff deg num <= deg den
            dn, dd = P.degree(e.num), P.degree(e.den)
            if dn < dd:
                return sc(0)
            if dn == dd:
                return sc(e.num[-1] / e.den[-1])
        return _INF
    return _rebuild(e, kids)


# ---------------------------------------------------------------------------
# Weyl identities used by the fixtures


def normal_order_mul_rule(e: OpExpr) -> OpExpr:
    """Rewrite y^k (x - hbar/y) -> y^(k-1) x y inside products, with k >= 1
    and x, y on the side of the y-power.

    Uses y x = x y + hbar, so this preserves the operator exactly.
    """
    e = simplify(e)

    def walk(node):
        kids = [walk(c) for c in _kids(node)]
        if isinstance(node, Mul):
            for i in range(len(kids) - 1):
                k, y = _power_of(kids[i])
                if k < 1 or not isinstance(y, Gen) or y.kind != "y":
                    continue
                x = Gen("x", y.side)
                if kids[i + 1] == simplify(sub(x, Mul((hb(), Inv(y))))):
                    repl = ([_pow_node(y, k - 1)] if k > 1 else []) + [x, y]
                    return walk(simplify(Mul(tuple(kids[:i] + repl + kids[i + 2:]))))
        return _rebuild(node, kids)

    return simplify(walk(e))


def gaiotto_shift_identity(e: OpExpr) -> OpExpr:
    """Rewrite exp(M - hbar/(y - y0)) as (1/(y-y0)) (y - hbar - y0) exp(M)
    when M is x-like (commutator [M, y - y0] = -hbar).  No-op otherwise."""

    def walk(node):
        if isinstance(node, Exp):
            main = []
            shift_term = None
            for pcs in node.arg.children if isinstance(node.arg, Add) else (node.arg,):
                coeff, core = _split_coeff(pcs)
                if isinstance(core, Inv) and coeff == -HBAR and _is_y_minus_base(core.child):
                    shift_term = simplify(core.child)
                    continue
                main.append(pcs)
            if shift_term is not None and main:
                m = main[0] if len(main) == 1 else Add(tuple(main))
                lin = linear_form(m)
                if lin is not None and lin[1] == {"x": 1}:
                    return simplify(
                        Mul((Inv(shift_term), Add((shift_term, Mul((sc(-1), hb())))), Exp(m)))
                    )
        return _rebuild(node, [walk(c) for c in _kids(node)])

    return simplify(walk(simplify(e)))


def _is_y_minus_base(e: OpExpr) -> bool:
    """Matches y + (scalar or -y0): the commutator with an x term is -hbar."""
    lin = linear_form(e)
    return lin is not None and lin[1] in ({"y": 1}, {"y": 1, "y0": -1})


# ---------------------------------------------------------------------------
# Weyl-algebra normal-ordered polynomials


@dataclass
class WeylPoly:
    """Normal-ordered polynomial: (a, b) -> Sym coefficient for x^a y^b.

    Multiplication implements y x = x y + hbar.
    """

    terms: dict = field(default_factory=dict)

    @staticmethod
    def monomial(a: int, b: int, coeff=None) -> "WeylPoly":
        return WeylPoly({(a, b): coeff if isinstance(coeff, Sym) else Sym.const(coeff if coeff is not None else 1)})

    @staticmethod
    def zero() -> "WeylPoly":
        return WeylPoly({})

    @staticmethod
    def one() -> "WeylPoly":
        return WeylPoly.monomial(0, 0, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, o: "WeylPoly") -> "WeylPoly":
        out = dict(self.terms)
        for k, v in o.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return WeylPoly(out)

    def __neg__(self) -> "WeylPoly":
        return WeylPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, o: "WeylPoly") -> "WeylPoly":
        return self + (-o)

    def __mul__(self, o) -> "WeylPoly":
        """Product in the Weyl algebra, or with a scalar (a Sym or a rational)."""
        if not isinstance(o, WeylPoly):
            s = o if isinstance(o, Sym) else Sym.const(o)
            return WeylPoly({} if s.is_zero() else {k: v * s for k, v in self.terms.items()})
        out = WeylPoly.zero()
        for (a, b), u in self.terms.items():
            for (c, d), v in o.terms.items():
                uv = u * v
                # y^b x^c = sum_k C(b,k) C(c,k) k! hbar^k x^(c-k) y^(b-k)
                for k in range(min(b, c) + 1):
                    if k:
                        coeff = Fraction(comb(b, k) * comb(c, k) * factorial(k))
                        sym = uv * Sym((((("hbar", k),), coeff),))
                    else:
                        sym = uv
                    key = (a + c - k, b + d - k)
                    cur = out.terms.get(key)
                    cur = sym if cur is None else cur + sym
                    if cur.is_zero():
                        out.terms.pop(key, None)
                    else:
                        out.terms[key] = cur
        return out

    def check_no_negative_hbar(self) -> None:
        for v in self.terms.values():
            for m, _c in v.terms:
                if dict(m).get("hbar", 0) < 0:
                    raise OperatorError("negative hbar power in Weyl coefficient")

    def __eq__(self, o) -> bool:
        return isinstance(o, WeylPoly) and self.terms == o.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), v in sorted(self.terms.items()):
            parts.append(f"({v})*x^{a}*y^{b}")
        return " + ".join(parts)
