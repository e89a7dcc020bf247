"""Property tests of the canonical operator form against independent oracles.

Random trees over x and y with Scalar, Add, Mul and Pow nodes are read two
ways that share no code with `simplify`/`expand`:
- as Weyl-algebra elements (`WeylPoly`, whose product applies y x = x y + hbar);
- as free noncommutative polynomials: a dict from words in x, y to scalars.

Trees that reuse one subtree object are checked against a copy that shares
no node, because `simplify` rebuilds each distinct subtree once and nodes
cache their hashes.  A node keeps what `simplify`, `expand`, `op_text`,
`_term`, `_split_coeff`, `_terms`, `_pow` and `_product` found for it
(`_canon`, `_form`, `_expanded`, `_text`, `_split`, `_termlist`, `_powers`,
`_times`), so `simplify` returns a canonical node itself, an expansion
included (it is marked `_canon`, and its `_expanded` is True: it is its own
expansion); the fixed-point properties therefore re-simplify a rebuilt copy
(`fresh`), whose nodes keep nothing.
"""

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trq import fixtures, operators
from trq.algebra import RatFun
from trq.operators import (
    X0,
    Y0,
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
    WeylPoly,
    X,
    Y,
    expand,
    hb,
    op_text,
    sc,
    shear_rewrite,
    simplify,
    sub,
    sympl_dual_rewrite,
    xy_dual_rewrite,
)

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _scalar_st():
    small = st.integers(-3, 3)
    return st.builds(
        lambda a, b, d: Scalar(Sym.const(F(a, d)) + Sym.hbar().scale(b)),
        small, small, st.sampled_from((1, 2)),
    )


_leaf = st.one_of(st.just(X), st.just(Y), _scalar_st())


def _extend(children):
    kids = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        kids.map(Add),
        kids.map(Mul),
        st.builds(Pow, children, st.integers(0, 3)),
    )


_tree = st.recursive(_leaf, _extend, max_leaves=8)

# trees with every generator, inverses, negative powers, rational functions
# and exponentials, for the properties that need no oracle
_poly = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(lambda cs: tuple(F(c) for c in cs))


def _extend_rich(children):
    kids = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        kids.map(Add),
        kids.map(Mul),
        st.builds(Pow, children, st.integers(-2, 3)),
        st.builds(Inv, children),
        st.builds(RatSubst, _poly, _poly.filter(any), children),
        st.builds(Exp, st.sampled_from((X, Y0, Add((X, Mul((sc(2), Y))))))),
    )


_rich_tree = st.recursive(st.one_of(st.sampled_from((X, Y, X0, Y0)), _scalar_st()), _extend_rich, max_leaves=7)


def weyl(e) -> WeylPoly:
    """The Weyl-algebra element of a tree built from x, y and scalars."""
    if isinstance(e, Scalar):
        return WeylPoly({(0, 0): e.value}) if not e.value.is_zero() else WeylPoly.zero()
    if isinstance(e, Gen):
        return WeylPoly.monomial(1, 0) if e.kind == "x" else WeylPoly.monomial(0, 1)
    if isinstance(e, Add):
        out = WeylPoly.zero()
        for c in e.children:
            out = out + weyl(c)
        return out
    if isinstance(e, Mul):
        out = WeylPoly.one()
        for c in e.children:
            out = out * weyl(c)
        return out
    if isinstance(e, Pow):
        out = WeylPoly.one()
        for _ in range(e.exp):
            out = out * weyl(e.child)
        return out
    if isinstance(e, RatSubst) and e.den == (1,):
        base, out, power = weyl(e.child), WeylPoly.zero(), WeylPoly.one()
        for v in e.num:
            out = out + power * v
            power = power * base
        return out
    raise TypeError(type(e))


def free(e) -> dict:
    """The free noncommutative polynomial of a tree: word -> nonzero Sym."""
    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                out[wa + wb] = out.get(wa + wb, Sym()) + ca * cb
        return {w: c for w, c in out.items() if not c.is_zero()}

    if isinstance(e, Scalar):
        return {(): e.value} if not e.value.is_zero() else {}
    if isinstance(e, Gen):
        return {(e.kind,): Sym.const(1)}
    if isinstance(e, Add):
        out: dict = {}
        for c in e.children:
            for w, v in free(c).items():
                out[w] = out.get(w, Sym()) + v
        return {w: c for w, c in out.items() if not c.is_zero()}
    if isinstance(e, (Mul, Pow)):
        factors = e.children if isinstance(e, Mul) else (e.child,) * e.exp
        out = {(): Sym.const(1)}
        for c in factors:
            out = mul(out, free(c))
        return out
    if isinstance(e, RatSubst) and e.den == (1,):
        return free(Add(tuple(Mul((sc(v), Pow(e.child, i))) for i, v in enumerate(e.num))))
    raise TypeError(type(e))


def from_free(poly: dict):
    """A tree for a free polynomial, one word per term, letters left to right."""
    terms = tuple(Mul((Scalar(c),) + tuple(Gen(k) for k in w)) for w, c in sorted(poly.items()))
    return Add(terms) if terms else sc(0)


def is_flat(e) -> bool:
    terms = e.children if isinstance(e, Add) else (e,)
    return all(
        not isinstance(t, Add) and not (isinstance(t, Mul) and any(isinstance(f, Add) for f in t.children))
        for t in terms
    )


def fresh(v):
    """A structurally equal copy of v that shares no node or scalar object
    with it, and whose nodes keep no form, text or hash."""
    if isinstance(v, (OpExpr, Sym)):
        return type(v)(*(fresh(getattr(v, f.name)) for f in fields(v)))
    if isinstance(v, tuple):
        return tuple(fresh(c) for c in v)
    return v


def plug(v, s):
    """v with the one object s in place of every x."""
    if isinstance(v, Gen) and v.kind == "x":
        return s
    if isinstance(v, OpExpr):
        return type(v)(*(plug(getattr(v, f.name), s) for f in fields(v)))
    if isinstance(v, tuple):
        return tuple(plug(c, s) for c in v)
    return v


def nodes(e):
    """Every node object of a tree, once per occurrence."""
    yield e
    for f in fields(e):
        v = getattr(e, f.name)
        for c in v if isinstance(v, tuple) else (v,):
            if isinstance(c, OpExpr):
                yield from nodes(c)


def outcome(f, e):
    """f(e) and its text, or the type of the error f raises."""
    try:
        out = f(e)
    except (OperatorError, ZeroDivisionError) as err:
        return type(err)
    return out, op_text(out)


def terms_of(s) -> tuple:
    """The products of atoms of a canonical s, or none where s or its
    expansion does not exist."""
    if s is None:
        return ()
    try:
        return operators._terms(s)
    except (OperatorError, ZeroDivisionError):
        return ()


def terms_outcome(f):
    """f() as a list of terms and their texts, or the type of the error f
    raises."""
    try:
        out = f()
    except (OperatorError, ZeroDivisionError) as err:
        return type(err)
    return [(t, op_text(t)) for t in out]


# a rich tree with one subtree object plugged in at every x, at least twice
_shared_tree = st.builds(lambda t, s: plug(Add((t, Mul((X, Pow(X, 2))))), s), _rich_tree, _rich_tree)

_COORD = CoordMul("z", RatFun.make((F(1), F(2)), (F(0), F(1))))
_hashed_tree = st.recursive(
    st.one_of(st.sampled_from((X, Y, X0, Y0, _COORD)), _scalar_st()), _extend_rich, max_leaves=7
)

# the rewrites that substitute generators, with an improper R for the shear
_R = RatFun.make((F(1), F(0), F(1)), (F(1), F(1)))
_REWRITES = {
    "xy_dual": xy_dual_rewrite,
    "shear": lambda e: shear_rewrite(e, _R),
    "sympl_dual": lambda e: sympl_dual_rewrite(e, _R),
}


def images(e, out, acc: dict) -> dict:
    """acc with id(n) -> the ids of the images of n, for every node n of e,
    walking e and its rewrite out in step down to the generators."""
    acc.setdefault(id(e), set()).add(id(out))
    if not isinstance(e, Gen):
        for a, b in zip(operators._kids(e), operators._kids(out)):
            images(a, b, acc)
    return acc


class TestCanonicalForm:
    @_PROPERTY
    @given(_tree)
    def test_same_weyl_element(self, e):
        w = weyl(e)
        assert weyl(simplify(e)) == w
        assert weyl(expand(e)) == w

    @_PROPERTY
    @given(_tree)
    def test_simplify_is_idempotent(self, e):
        s = simplify(e)
        assert simplify(fresh(s)) == s

    @_PROPERTY
    @given(_rich_tree)
    def test_fixed_points_with_inverses_and_functions(self, e):
        try:
            s = simplify(e)
        except (OperatorError, ZeroDivisionError):  # e.g. a pole of a RatSubst at a scalar
            return
        assert simplify(fresh(s)) == s
        x = expand(e)
        assert is_flat(x)
        assert expand(fresh(x)) == x
        assert simplify(fresh(x)) == x

    @_PROPERTY
    @given(_tree)
    def test_expand_is_flat_and_canonical(self, e):
        x = expand(e)
        assert is_flat(x)
        assert expand(fresh(x)) == x
        assert simplify(fresh(x)) == x

    @_PROPERTY
    @given(_tree, _tree)
    def test_expanded_difference_decides_free_equality(self, a, b):
        zero = expand(sub(a, b)) == sc(0)
        assert zero == (free(a) == free(b))
        if zero:
            assert weyl(a) == weyl(b)

    @_PROPERTY
    @given(_tree)
    def test_expanded_difference_proves_equal_rewrites(self, e):
        # the same free polynomial written as a sum of words
        assert expand(sub(e, from_free(free(e)))) == sc(0)


class TestSharingAndHashing:
    @_PROPERTY
    @given(_shared_tree)
    def test_shared_subtrees_give_the_result_of_an_unshared_copy(self, e):
        copy = fresh(e)
        ids = [id(n) for n in nodes(e)]
        assert len(set(ids)) < len(ids)
        copy_ids = {id(n) for n in nodes(copy)}
        assert len(copy_ids) == len(ids) and not copy_ids & set(ids)
        assert outcome(simplify, e) == outcome(simplify, copy)
        assert outcome(expand, e) == outcome(expand, copy)

    @pytest.mark.parametrize("name", list(_REWRITES))
    @_PROPERTY
    @given(_shared_tree)
    def test_a_rewrite_gives_a_shared_object_one_image(self, name, e):
        rewrite = _REWRITES[name]
        ids = [id(n) for n in nodes(e)]
        assert len(set(ids)) < len(ids)
        out = rewrite(e)
        assert all(len(v) == 1 for v in images(e, out, {}).values())
        assert outcome(simplify, out) == outcome(simplify, rewrite(fresh(e)))

    @_PROPERTY
    @given(_hashed_tree)
    def test_equal_trees_hash_equal_before_and_after_caching(self, e):
        a, b = fresh(e), fresh(e)
        assert {a: "a"}[b] == "a"
        c, d = fresh(e), fresh(e)
        h = hash(c)
        assert all(n._hash is not None for n in nodes(c))
        assert all(n._hash is None for n in nodes(d))
        assert hash(d) == h
        assert hash(c) == hash(d) == h
        assert {d: "d"}[c] == "d" and {c: "c"}[d] == "c"

    def test_every_kind_hashes_the_tuple_of_its_fields(self):
        e = Add((
            Mul((sc(2), X)), Pow(Y, 2), Inv(Y0), Exp(X), Gen("y", "dual"), _COORD,
            RatSubst((F(1),), (F(1), F(1)), Mul((hb(), X0))),
        ))
        assert {type(n) for n in nodes(e)} == {Scalar, Gen, CoordMul, Add, Mul, Inv, Pow, Exp, RatSubst}
        # each node fresh, so its hash is not kept yet; a Sym (the value of a
        # Scalar) hashes its terms with each coefficient as its numerator and
        # denominator
        for v in [fresh(n) for n in nodes(e)] + [fresh(n.value) for n in nodes(e) if isinstance(n, Scalar)]:
            assert v._hash is None
            if isinstance(v, Sym):
                want = hash(tuple((k, c.numerator, c.denominator) for k, c in v.terms))
            else:
                want = hash(tuple(getattr(v, f.name) for f in fields(v)))
            assert hash(v) == want and v._hash == want and hash(v) == want

    @pytest.mark.parametrize(
        "obj, name",
        [
            (Sym.const(2), "terms"),
            (sc(2), "value"),
            (Gen("y", "dual"), "side"),
            (_COORD, "fn"),
            (Add((X, Y)), "children"),
            (Mul((X, Y)), "children"),
            (Inv(Y), "child"),
            (Pow(Y, 2), "exp"),
            (Exp(X), "arg"),
            (RatSubst((F(1),), (F(1), F(1)), Y), "den"),
        ],
    )
    def test_fields_stay_frozen_after_hashing(self, obj, name):
        hash(obj)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


def _simplified(e):
    """simplify(e), or None where e has no canonical form (a pole at a scalar)."""
    try:
        return simplify(e)
    except (OperatorError, ZeroDivisionError):
        return None


class TestWorkKeptOnNodes:
    @_PROPERTY
    @given(_rich_tree)
    def test_canonical_input_is_returned_itself(self, e):
        s = _simplified(e)
        if s is None:
            return
        assert s._canon
        assert simplify(s) is s
        assert simplify(e) is s  # e keeps its form

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_simplified_subtree_gives_the_result_of_a_fresh_copy(self, t, u):
        s = _simplified(u)
        if s is None:
            return
        e = plug(Add((t, Mul((X, Pow(X, 2))))), s)
        copy = fresh(e)
        assert outcome(simplify, e) == outcome(simplify, copy)
        assert outcome(expand, e) == outcome(expand, copy)

    @_PROPERTY
    @given(_rich_tree)
    def test_expanding_again_returns_the_kept_form(self, e):
        try:
            out = expand(e)
        except (OperatorError, ZeroDivisionError):
            return
        assert expand(e) is out
        assert out == expand(fresh(e))

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_an_expansion_is_canonical_and_its_own_expansion(self, e, t):
        try:
            x = expand(e)
        except (OperatorError, ZeroDivisionError):
            return
        assert x._canon
        assert simplify(x) is x and expand(x) is x
        # a tree holding the marked expansion, as a summand or as a factor,
        # gives what its unmarked copy gives
        for d in (sub(x, t), Mul((t, x))):
            assert outcome(simplify, d) == outcome(simplify, fresh(d))
            assert outcome(expand, d) == outcome(expand, fresh(d))

    @_PROPERTY
    @given(_rich_tree)
    def test_kept_text_is_the_text_of_a_rebuilt_node(self, e):
        s = _simplified(e)
        if s is None:
            return
        text = op_text(s)
        assert op_text(s) is text
        for n in nodes(s):
            assert n._text is not None
            assert n._text == op_text(fresh(n))

    @_PROPERTY
    @given(_rich_tree)
    def test_a_term_keeps_its_split(self, e):
        s = _simplified(e)
        if s is None:
            return
        for t in s.children if isinstance(s, Add) else (s,):
            c, core = operators._split_coeff(t)
            again = operators._split_coeff(t)
            assert again[0] is c and again[1] is core
            assert operators._term(c, core) == t
            assert (c, core) == operators._split_coeff(fresh(t))

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_kept_terms_and_powers_give_the_expansion_of_a_fresh_copy(self, t, u):
        s = _simplified(u)
        if s is None:
            return
        # an earlier tree leaves term lists and powers on s and its subtrees
        if not isinstance(outcome(expand, s), type) and isinstance(s, (Add, Pow, Inv, Exp, RatSubst)):
            assert s._termlist is not None
        outcome(expand, Mul((Pow(s, 2), t, Inv(s))))
        e = plug(Add((t, Mul((X, Pow(X, 3))))), s)
        assert outcome(expand, e) == outcome(expand, fresh(e))

    @_PROPERTY
    @given(_rich_tree)
    def test_a_power_is_kept_on_its_base(self, e):
        c = _simplified(e)
        if c is None:
            return
        for k in range(-3, 4):
            got = outcome(lambda b: operators._pow(b, k), c)
            assert got == outcome(lambda b: operators._pow(b, k), fresh(c))
            if k >= 0 and not isinstance(got, type):  # inverses are not kept
                assert operators._pow(c, k) is got[0]

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_a_product_of_terms_is_the_kept_product_of_their_cores(self, t, u):
        ts, us = (terms_of(_simplified(e)) for e in (t, u))
        for a in ts[:3]:
            for b in us[:3]:
                got = terms_outcome(lambda: operators._checked(operators._product(a, b)))
                assert got == terms_outcome(lambda: operators._checked(operators._mul([fresh(a), fresh(b)])))
                if isinstance(got, type):
                    continue
                # a term with the same core and another coefficient meets the
                # kept product: one core object
                again = operators._product(operators._scale(Sym.const(2), a), b)
                assert operators._split_coeff(again)[1] is operators._split_coeff(operators._product(a, b))[1]

    def test_dressed_operators_are_shared(self):
        assert fixtures.dressed_y() is fixtures.dressed_y()
        assert fixtures.dressed_x() is fixtures.dressed_x()

    @_PROPERTY
    @given(_hashed_tree)
    def test_kept_values_change_no_equality_hash_or_repr(self, e):
        a, b = fresh(e), fresh(e)
        if _simplified(a) is not None:
            expand(a)
            assert a._form is not None or a._canon
        op_text(a)
        assert all(n._text is not None for n in nodes(a))
        assert all(n._text is None and n._form is None for n in nodes(b))
        for m, n in zip(nodes(a), nodes(b)):
            assert m == n and hash(m) == hash(n) and repr(m) == repr(n)
        assert {b: "b"}[a] == "b"


# rich trees with generators on the "", "dual" and "dagger" sides, and the
# R of a transport: 0, a polynomial, or a proper p/q(t) minus t
_sided_tree = st.recursive(
    st.one_of(
        st.builds(Gen, st.sampled_from(("x", "y", "x0", "y0")), st.sampled_from(("", "dual", "dagger"))),
        _scalar_st(),
    ),
    _extend_rich,
    max_leaves=7,
)
_small = st.integers(-2, 2).map(F)
_transport_r = st.one_of(
    st.just(RatFun.const(0)),
    _poly.map(RatFun.make),
    st.builds(lambda a, b, c, d: RatFun.make((a, b), (c, d, F(1))) - RatFun.var(), _small, _small, _small, _small),
)


class TestSymplecticTransport:
    @_PROPERTY
    @given(_sided_tree, _transport_r)
    def test_one_walk_gives_the_three_walk_composition(self, e, R):
        def three_walks(t):
            return xy_dual_rewrite(shear_rewrite(xy_dual_rewrite(t), R))

        out = sympl_dual_rewrite(e, R)
        assert out == three_walks(e)
        assert outcome(simplify, out) == outcome(simplify, fresh(three_walks(fresh(e))))
        with pytest.raises(OperatorError, match="coordinate multiplier"):
            sympl_dual_rewrite(Mul((e, _COORD)), R)


# every node kind, exponentials of any subtree and a generator of the dual side
_any_tree = st.recursive(
    st.one_of(st.sampled_from((X, Y, X0, Y0, Gen("y", "dual"), _COORD)), _scalar_st()),
    lambda children: st.one_of(_extend_rich(children), st.builds(Exp, children)),
    max_leaves=7,
)


def children_of(e) -> tuple:
    """The operator values among the fields of e, in field order."""
    out = []
    for f in fields(e):
        v = getattr(e, f.name)
        out += [c for c in (v if isinstance(v, tuple) else (v,)) if isinstance(c, OpExpr)]
    return tuple(out)


class TestChildren:
    @_PROPERTY
    @given(_any_tree)
    def test_kids_are_the_operator_fields_and_rebuild_restores_the_node(self, e):
        for n in nodes(e):
            kids = operators._kids(n)
            assert kids == children_of(n)
            assert operators._rebuild(n, kids) == n
            new = tuple(sc(i) for i in range(len(kids)))
            out = operators._rebuild(n, new)
            assert type(out) is type(n) and operators._kids(out) == new

    @_PROPERTY
    @given(_any_tree)
    def test_identity_map_of_generators_is_the_tree(self, e):
        if any(isinstance(n, CoordMul) for n in nodes(e)):
            with pytest.raises(OperatorError, match="coordinate multiplier"):
                operators._map_gens(e, lambda g: g)
        else:
            assert operators._map_gens(e, lambda g: g) == e

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_map_of_generators_is_literal_substitution(self, e, s):
        assert operators._map_gens(e, lambda g: s if g.kind == "x" else g) == plug(e, s)


class TestExpand:
    def test_power_of_a_product_is_multiplied_out(self):
        assert expand(sub(Pow(Mul((X, Y)), 2), Mul((X, Y, X, Y)))) == sc(0)

    def test_polynomial_part_of_a_ratsubst_is_multiplied_out(self):
        # (t^2 + 1)/(t + 1) = t - 1 + 2/(t + 1), at t = x + y
        s = Add((X, Y))
        e = expand(Mul((X, RatSubst((F(1), F(0), F(1)), (F(1), F(1)), s))))
        proper = RatSubst((F(1),), (F(1), F(1)), s)
        assert e == expand(Add((Mul((X, X)), Mul((X, Y)), Mul((sc(-1), X)), Mul((sc(2), X, proper)))))

    def test_no_normal_ordering(self):
        # y x and x y + hbar are the same Weyl element but different words
        assert expand(sub(Mul((Y, X)), Add((Mul((X, Y)), hb())))) != sc(0)


# a member of a function group: R as a power of t or a quotient whose
# denominator is drawn from a few (so that members share one), and a
# nonzero rational coefficient
_t_power = st.integers(-3, 3).map(lambda k: RatFun.var() ** k)
_quotient = st.builds(
    RatFun.make,
    _poly,
    st.sampled_from(((F(1), F(1)), (F(2), F(0), F(1)), (F(0), F(1), F(1)), (F(-1), F(3), F(0), F(2)))),
)
_member = st.tuples(
    st.one_of(_t_power, _quotient),
    st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
)


class TestFunctionGroups:
    @_PROPERTY
    @given(st.lists(_member, min_size=1, max_size=6))
    def test_group_total_is_the_sequential_sum(self, parts):
        total = RatFun.const(0)
        for r, c in parts:
            total = total + r * c
        got = operators._group_total(parts)
        assert (got.num, got.den) == (total.num, total.den)

    def test_rational_functions_of_one_base_merge(self):
        # 1/t + 1/(t + 1) = (2t + 1)/(t^2 + t) at t = y - y0
        s = sub(Y, Y0)
        parts = (
            Inv(s),
            RatSubst((F(1),), (F(1), F(1)), s),
            Mul((sc(-1), RatSubst((F(1), F(2)), (F(0), F(1), F(1)), s))),
        )
        assert simplify(Add(parts)) == sc(0)

    def test_spilled_terms_merge_with_their_own_group(self):
        # t^2/(t + 1) = t - 1 + 1/(t + 1) at t = x + 1/(y + 1): the t term
        # splices x + 1/(y + 1) into the sum, where 1/(y + 1) and 1/(y + 2)
        # merge into (2y + 3)/(y^2 + 3y + 2)
        inner = Add((X, RatSubst((F(1),), (F(1), F(1)), Y)))
        e = Add((RatSubst((F(0), F(0), F(1)), (F(1), F(1)), inner), RatSubst((F(1),), (F(2), F(1)), Y)))
        s = simplify(e)
        assert simplify(s) == s
        merged = RatSubst((F(3), F(2)), (F(2), F(3), F(1)), Y)
        assert s == simplify(Add((X, sc(-1), RatSubst((F(1),), (F(1), F(1)), inner), merged)))


    def test_lone_proper_ratsubst_in_a_sum_is_unchanged(self):
        # 3/(y + 1) beside x and y0 is already split
        e = Add((X, Y0, Mul((sc(3), RatSubst((F(1),), (F(1), F(1)), Y)))))
        assert simplify(e) == e
        assert expand(e) == e

    def test_lone_ratsubst_over_a_power_of_t_splits_into_inverse_powers(self):
        # (t + 2)/t^2 = 1/t + 2/t^2 at t = y
        e = simplify(Add((X, RatSubst((F(2), F(1)), (F(0), F(0), F(1)), Y))))
        assert e == Add((X, Inv(Y), Mul((sc(2), Inv(Pow(Y, 2))))))
        assert not any(isinstance(n, RatSubst) for n in nodes(e))

    def test_lone_improper_ratsubst_splits_off_its_polynomial_part(self):
        # (t^2 + 1)/(t + 1) = t - 1 + 2/(t + 1) at t = y
        e = simplify(Add((X, RatSubst((F(1), F(0), F(1)), (F(1), F(1)), Y))))
        assert e == Add((X, Y, Mul((sc(2), RatSubst((F(1),), (F(1), F(1)), Y))), sc(-1)))

    def test_power_beside_a_proper_ratsubst_is_left_as_it_is(self, monkeypatch):
        # y^2 + 2y + 3/(y + 1): already split, so the group is not summed
        e = Add((Mul((sc(2), Y)), Pow(Y, 2), Mul((sc(3), RatSubst((F(1),), (F(1), F(1)), Y)))))
        assert simplify(fresh(e)) == e
        monkeypatch.setattr(operators, "_group_total", None)
        assert simplify(fresh(e)) == e
        assert expand(fresh(e)) == e

    def test_inverse_beside_a_ratsubst_merges(self):
        # 1/t + 1/(t + 1) = 2 (t + 1/2)/(t^2 + t) at t = y
        e = simplify(Add((Inv(Y), RatSubst((F(1),), (F(1), F(1)), Y))))
        assert e == Mul((sc(2), RatSubst((F(1, 2), F(1)), (F(0), F(1), F(1)), Y)))

    def test_improper_ratsubst_beside_a_power_splits(self):
        # y^2 + (t^2 + 1)/(t + 1) = y^2 + y - 1 + 2/(t + 1) at t = y
        e = simplify(Add((Pow(Y, 2), RatSubst((F(1), F(0), F(1)), (F(1), F(1)), Y))))
        assert e == Add((Y, Pow(Y, 2), Mul((sc(2), RatSubst((F(1),), (F(1), F(1)), Y))), sc(-1)))

    @_PROPERTY
    @given(_rich_tree)
    def test_canonical_ratsubst_is_reduced_with_a_monic_denominator(self, e):
        # what lets a one-member group take its total without a gcd
        s = _simplified(e)
        if s is None:
            return
        expanded = outcome(expand, s)
        forms = [s] if isinstance(expanded, type) else [s, expanded[0]]
        for n in (n for form in forms for n in nodes(form)):
            if isinstance(n, RatSubst):
                assert RatFun.make(n.num, n.den) == RatFun(n.num, n.den)

    def test_one_member_group_of_a_scaled_improper_ratsubst(self, monkeypatch):
        # 3/2 (t^2 + 1)/(t + 1) = 3/2 t - 3/2 + 3/(t + 1) at t = y
        sizes = []
        total = operators._group_total
        monkeypatch.setattr(operators, "_group_total", lambda parts: sizes.append(len(parts)) or total(parts))
        e = Add((Mul((sc(F(3, 2)), RatSubst((F(1), F(0), F(1)), (F(1), F(1)), Y))), X))
        want = "(add (gen x) (mul (scalar 3/2) (gen y)) (mul (scalar 3) (ratsubst 1 | 1 + t (gen y))) (scalar -3/2))"
        assert op_text(simplify(e)) == want
        assert sizes == [1]
        assert op_text(expand(fresh(e))) == want

    def test_two_ratsubst_members_of_one_base_merge(self):
        # 1/(y + 1) + 1/(y + 2) = (2y + 3)/(y^2 + 3y + 2)
        e = simplify(Add((X, RatSubst((F(1),), (F(1), F(1)), Y), RatSubst((F(1),), (F(2), F(1)), Y))))
        assert e == Add((X, Mul((sc(2), RatSubst((F(3, 2), F(1)), (F(2), F(3), F(1)), Y)))))


class TestSignsInFactorPosition:
    def test_top_level_sum_stays_flat(self):
        e = expand(sub(sc(1), Mul((Y, X, Y))))
        assert e == Add((Mul((sc(-1), Y, X, Y)), sc(1)))

    def test_inverse_takes_the_sign_out(self):
        a = simplify(Inv(sub(sc(12), Y)))
        assert a == Mul((sc(-1), Inv(Add((Y, sc(-12))))))
        assert simplify(Add((Inv(sub(Y, sc(12))), Inv(sub(sc(12), Y))))) == sc(0)

    def test_power_takes_the_sign_out(self):
        assert simplify(Pow(sub(sc(1), Y), 3)) == Mul((sc(-1), Pow(Add((Y, sc(-1))), 3)))

    def test_factor_takes_the_rational_content_out(self):
        e = simplify(Mul((X, Add((Mul((sc(2), Y)), sc(4))))))
        assert e == Mul((sc(2), X, Add((Y, sc(2)))))

    def test_scalar_times_product_is_one_product(self):
        e = simplify(Mul((sc(3), Mul((sc(2), X, Y)))))
        assert e == Mul((sc(6), X, Y))

    @_PROPERTY
    @given(
        st.one_of(_tree, _rich_tree),
        st.one_of(st.sampled_from((Sym(), Sym.const(1), Sym.hbar(-1))), _scalar_st().map(lambda s: s.value)),
        st.sampled_from((1, -1, F(3, 2), F(-2, 3))),
    )
    def test_scalar_times_a_lone_sum_is_its_primitive_scaled_back(self, e, c, k):
        s = _simplified(e)
        if s is None:
            return
        # every canonical sum in s, scaled so that its first coefficient is k times its own
        for t in (operators._scale(Sym.const(k), n) for n in nodes(s) if isinstance(n, Add)):
            lead, prim = operators._primitive(t)
            want = op_text(operators._scale(c.scale(lead), prim))
            assert op_text(operators._mul([Scalar(c), t])) == want
            assert op_text(operators._mul([t, Scalar(c)])) == want

    def test_hbar_over_sum_cancels_across_orientations(self):
        d = Mul((hb(), Inv(sub(Y, Gen("y0")))))
        e = Add((d, Mul((hb(), Inv(sub(Gen("y0"), Y))))))
        assert simplify(e) == sc(0)


def _canonical_sum(t, u):
    """The canonical form of t + u when it is a sum, else None."""
    s = _simplified(Add((t, u)))
    return s if isinstance(s, Add) else None


def _scaled_objects(mp) -> list:
    """Every object that `operators._scale` is given from now on."""
    seen, real = [], operators._scale

    def recording(c, e):
        seen.append(e)
        return real(c, e)

    mp.setattr(operators, "_scale", recording)
    return seen


class TestScaledSumInASum:
    """A rational times a canonical sum enters the enclosing sum as scaled
    (coefficient, core) pairs; the oracle is the route that builds the
    scaled copy of the sum and adds it."""

    @_PROPERTY
    @given(_rich_tree, _rich_tree, _rich_tree, _rich_tree, st.sampled_from((F(-1), F(1), F(3, 2), F(-2, 3))))
    def test_rational_times_a_sum_adds_its_scaled_copy(self, t, u, v, w, s):
        a, b = _canonical_sum(t, u), _canonical_sum(v, w)
        assume(a is not None and b is not None)
        want = [outcome(lambda _: operators._add([a, operators._scale(Sym.const(c), b)]), None) for c in (s, -1)]
        with pytest.MonkeyPatch.context() as mp:
            scaled = _scaled_objects(mp)
            assert [outcome(simplify, Add((a, Mul((sc(s), b))))), outcome(simplify, sub(a, b))] == want
        assert not any(e is b for e in scaled)

    @_PROPERTY
    @given(_rich_tree, _rich_tree, _rich_tree, _rich_tree)
    def test_a_multiple_of_hbar_scales_the_sum(self, t, u, v, w):
        a, b = _canonical_sum(t, u), _canonical_sum(v, w)
        assume(a is not None and b is not None)
        want = outcome(lambda _: operators._add([a, operators._scale(Sym.hbar(), b)]), None)
        with pytest.MonkeyPatch.context() as mp:
            scaled = _scaled_objects(mp)
            assert outcome(simplify, Add((a, Mul((hb(), b))))) == want
        assert any(e is b for e in scaled)


def _add_calls(mp) -> list:
    """Every list of summands that `operators._add` is given from now on."""
    seen, real = [], operators._add

    def recording(terms):
        seen.append(terms)
        return real(terms)

    mp.setattr(operators, "_add", recording)
    return seen


class TestDifferenceOfEqualForms:
    """a - b for equal canonical sums is 0 without a walk over their terms;
    the oracle for every other sum is `_add` on the same summands."""

    @_PROPERTY
    @given(_rich_tree, _rich_tree)
    def test_a_sum_minus_an_equal_form_is_zero_without_add(self, t, u):
        a = _canonical_sum(t, u)
        assume(a is not None)
        b = fresh(a)
        simplify(b)  # b keeps its form, equal to a but another object
        with pytest.MonkeyPatch.context() as mp:
            calls = _add_calls(mp)
            assert simplify(sub(a, b)) == sc(0)
        assert not calls

    @_PROPERTY
    @given(_rich_tree, _rich_tree, _rich_tree)
    def test_other_differences_go_through_add(self, t, u, v):
        a, b, c = _canonical_sum(t, u), _canonical_sum(u, v), _simplified(v)
        assume(a is not None and b is not None and c is not None and a != b)
        a2 = fresh(a)
        simplify(a2)
        minus_one = Sym.const(-1)
        cases = [
            (sub(a, b), [a, (minus_one, b)]),
            (Add((a, Mul((sc(-1), a2)), c)), [a, (minus_one, a), c]),
        ]
        for e, summands in cases:
            want = outcome(lambda _: operators._add(summands), None)
            with pytest.MonkeyPatch.context() as mp:
                calls = _add_calls(mp)
                assert outcome(simplify, e) == want
            assert calls[0] == summands
