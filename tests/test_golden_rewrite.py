"""The canonical texts of the operator rewrites, pinned.

`tests/golden_rewrite.json` holds `op_text` of `simplify` and of `expand` for
the x-y dual emission of the pq family, the symplectic transport of y - x and
of x - y - x0 + y0, and the generic pq operator, on fixed coprime (p, q)
pairs; plus the r-spin singular limits for r = 3, 4.  It was recorded from a
`simplify`/`expand` that cached nothing across calls, so it also pins that
the caches change no output; the differences of simplified and expanded
forms that the `rewrite` benchmark takes are checked against copies that
keep nothing.  To record it again:

    PYTHONPATH=src python tests/test_golden_rewrite.py > tests/golden_rewrite.json
"""

import json
import sys
from pathlib import Path

import pytest

from trq import fixtures, operators
from trq.algebra import RatFun
from trq.algebra import poly as P
from trq.operators import (
    Add,
    Inv,
    Mul,
    RatSubst,
    X,
    X0,
    Y,
    Y0,
    expand,
    hb,
    normal_order_mul_rule,
    op_text,
    sc,
    simplify,
    singular_limit,
    sub,
    sympl_dual_rewrite,
    xy_dual_rewrite,
)

from test_canonical_form import fresh

# (p, q) low-to-high, coprime, q of one to four terms
PAIRS = (
    ((1, 0, 0, 1), (1,)),
    ((0, -3, 0, 1), (2,)),
    ((-2, 1, 3, 1), (0, 2)),
    ((3, -1, 0, 2), (1, 1)),
    ((1, 4, -2, -1), (-1, 0, 3)),
    ((-4, 0, 2, 1), (2, -3, 1)),
    ((2, 2, -1, 1), (1, 0, 0, 2)),
    ((0, 1, 1, -1), (3, -2, 4, 1)),
)

GOLDEN_PATH = Path(__file__).with_name("golden_rewrite.json")


def _neg(e):
    return Mul((sc(-1), e))


def _texts(e) -> dict:
    return {"simplify": op_text(simplify(e)), "expand": op_text(expand(e))}


def pair_operators(p, q) -> dict:
    """Name -> unsimplified operator, for one (p, q) pair."""
    R = RatFun.make(p, q) - RatFun.var()
    return {
        "xy_dual": xy_dual_rewrite(fixtures.pq_dual_operator(p, q)),
        "sympl_first": sympl_dual_rewrite(sub(Y, X), R),
        "sympl_second": sympl_dual_rewrite(Add((X, _neg(Y), _neg(X0), Y0)), R),
        "generic": fixtures.pq_generic_operator(p, q),
    }


def reduced_operator(p, q):
    """q(A) times the transported y - x with x - y - x0 + y0 dropped from
    its denominator, A = y - hbar/(x - x0): the operator that the `rewrite`
    benchmark compares with the generic pq operator."""
    R = RatFun.make(p, q) - RatFun.var()
    A = fixtures.dressed_y()
    reduced = (RatSubst(R.num, R.den, A), A, _neg(X), Mul((hb(), Inv(sub(Y, Y0)))))
    qA = RatSubst(q, P.ONE, A)
    return Add(tuple(Mul((qA, t)) for t in reduced))


def limit_operators(r: int) -> dict:
    y_r = P.poly([0] * r + [1])
    return {
        "rspin": singular_limit(fixtures.pq_generic_operator(y_r, P.ONE), "inf", "inf"),
        "neg_rspin": normal_order_mul_rule(singular_limit(fixtures.pq_generic_operator(P.ONE, y_r), "inf", 0)),
    }


def _key(p, q) -> str:
    return f"p={P.to_str(P.poly(p), 'y')} q={P.to_str(P.poly(q), 'y')}"


def record() -> dict:
    out = {"pairs": {}, "limits": {}}
    for p, q in PAIRS:
        ops = pair_operators(P.poly(p), P.poly(q))
        out["pairs"][_key(p, q)] = {name: _texts(e) for name, e in ops.items()}
    for r in (3, 4):
        out["limits"][f"r={r}"] = {name: _texts(e) for name, e in limit_operators(r).items()}
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_pairs_are_coprime():
    for p, q in PAIRS:
        assert P.degree(P.gcd(P.poly(p), P.poly(q))) == 0, (p, q)


@pytest.mark.parametrize("p, q", PAIRS, ids=[_key(p, q) for p, q in PAIRS])
def test_pair_rewrites_match_the_recorded_texts(golden, p, q):
    ops = pair_operators(P.poly(p), P.poly(q))
    first = {name: _texts(e) for name, e in ops.items()}
    again = {name: _texts(e) for name, e in ops.items()}  # from nodes simplified once already
    assert first == again == golden["pairs"][_key(p, q)]


@pytest.mark.parametrize("p, q", PAIRS, ids=[_key(p, q) for p, q in PAIRS])
def test_differences_of_kept_forms_match_those_of_fresh_copies(p, q):
    # the four pairings of forms that the benchmark compares; an expansion
    # is marked canonical, and its copy is not
    final = reduced_operator(P.poly(p), P.poly(q))
    generic = fixtures.pq_generic_operator(P.poly(p), P.poly(q))
    for a in (simplify(final), expand(final)):
        for b in (simplify(generic), expand(generic)):
            assert op_text(simplify(sub(a, b))) == op_text(simplify(sub(fresh(a), fresh(b))))


@pytest.mark.parametrize("r", (3, 4))
def test_singular_limits_match_the_recorded_texts(golden, r):
    ops = limit_operators(r)
    first = {name: _texts(e) for name, e in ops.items()}
    again = {name: _texts(e) for name, e in ops.items()}
    assert first == again == golden["limits"][f"r={r}"]


def test_every_recorded_ratsubst_is_reduced_with_a_monic_denominator():
    # what lets a one-member function group take its total without a gcd
    ops = [e for p, q in PAIRS for e in pair_operators(P.poly(p), P.poly(q)).values()]
    ops += [e for r in (3, 4) for e in limit_operators(r).values()]
    todo = [form for e in ops for form in (simplify(e), expand(e))]
    found = 0
    while todo:
        n = todo.pop()
        todo.extend(operators._kids(n))
        if isinstance(n, RatSubst):
            found += 1
            assert RatFun.make(n.num, n.den) == RatFun(n.num, n.den), op_text(n)
    assert found


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
