"""The four benchmark workloads of trq.

`make_inputs` draws a workload's inputs from the seed; `run` is the timed
part and returns every check as (group, label, passed, detail).  Each
workload stresses other layers:

- tr-sweep: the recursion and LocalSeries, no Rf2 work.  Airy has one
  ramification point (same-point slot path), the cubic two (cross-point
  series_at+compose path).  The seed shears y by R(x), which leaves every
  omega unchanged, so each store must match the digest recorded for the
  unsheared curve.
- annihilate: build_wave_data, evaluate_operator_on and Rf2 arithmetic on
  deep derivative chains, forward evaluation only.  The seed scales y by
  lambda; the quantum curves are rescaled to match (hbar -> hbar/lambda).
- certify-fast: every fixture except pq in fast mode, the user's end-to-end
  job; the property suites reach apply_inverse, apply_shift and p2_gcd.
- rewrite: operator rewriting only (simplify, expand, the dual rewrites and
  singular limits), on seeded coprime (p, q) pairs.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from fractions import Fraction
from pathlib import Path

from trq import fixtures, operators, recursion, wave
from trq.algebra import INF, LogRat, RatFun
from trq.algebra import poly as P
from trq.curve import SpectralCurve
from trq.operators import X, X0, Y, Y0, Add, Inv, Mul, Pow, RatSubst, hb, sc, sub

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

# pq takes 162 s in fast mode, all in the property suite that airy and bessel
# already run; it is left out.
CERTIFY_FIXTURES = (
    "airy", "bessel", "rspin3", "rspin4", "rspin5", "neg-rspin3", "neg-rspin4",
    "neg-rspin5", "logtr", "hurwitz-q1", "hurwitz-q2", "homfly", "gaiotto",
    "gentr-airy", "rs-r3", "rs-r5", "extlaplace",
)

# Sizes are chosen so that one child process takes a few seconds and a run
# holds several; "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "tr-sweep": {"airy_chi": 5, "cubic_chi": 2},
        "annihilate": {"order": 4},
        "certify-fast": {"order": 3, "fixtures": CERTIFY_FIXTURES},
        "rewrite": {"pairs_per_q_terms": 5},
    },
    "tiny": {
        "tr-sweep": {"airy_chi": 2, "cubic_chi": 1},
        "annihilate": {"order": 2},
        "certify-fast": {"order": 2, "fixtures": ("rspin3", "logtr", "rs-r3")},
        "rewrite": {"pairs_per_q_terms": 1},
    },
}


def _lr(num, den=(1,)) -> LogRat:
    return LogRat.from_ratfun(RatFun.make(P.poly(num), P.poly(den)))


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def make_inputs(workload: str, seed: int, size: str = "full"):
    rng = random.Random(f"{workload}:{seed}")
    cfg = SIZES[size][workload]
    if workload == "tr-sweep":
        jobs = []
        for name, xc, chi in (("airy", [0, 0, 1], cfg["airy_chi"]), ("cubic", [0, -3, 0, 1], cfg["cubic_chi"])):
            x = P.poly(xc)
            r0, r1, r2 = (_nonzero(rng) for _ in range(3))
            shear = P.add(P.add(P.const(r0), P.scale(x, r1)), P.scale(P.mul(x, x), r2))
            reference = SpectralCurve(name, _lr(xc), _lr([0, 1]))
            sheared = SpectralCurve(f"{name}-sheared", _lr(xc), _lr(P.add(P.poly([0, 1]), shear)))
            jobs.append((name, chi, reference, sheared))
        return jobs
    if workload == "annihilate":
        lam = Fraction(_nonzero(rng))
        return {
            "order": cfg["order"],
            "lam2": lam * lam,
            "airy": SpectralCurve("airy", _lr([0, 0, 1]), _lr([0, lam])),
            "bessel": SpectralCurve("bessel", _lr([0, 0, 1]), _lr([lam], [0, 1])),
        }
    if workload == "certify-fast":
        jobs = []
        for name in cfg["fixtures"]:
            kw = {"fast": True, "order": cfg["order"]}
            # the registry lambdas forward every keyword, so seed goes only
            # to fixtures whose own signature declares it
            if "seed" in inspect.signature(fixtures.FIXTURES[name]).parameters:
                kw["seed"] = rng.randrange(1, 1000)
            jobs.append((name, kw))
        return jobs
    if workload == "rewrite":
        pairs = [
            _sample_pq(rng, q_terms)
            for q_terms in range(1, 5)
            for _ in range(cfg["pairs_per_q_terms"])
        ]
        return {"pairs": pairs, "r": rng.choice((3, 4, 5))}
    raise KeyError(workload)


def _sample_pq(rng: random.Random, q_terms: int) -> tuple:
    """A coprime pair by the rule of the pq fixture, with q's length given
    so that every seed draws the same mix of lengths."""
    while True:
        p = P.poly([Fraction(rng.randint(-4, 4)) for _ in range(3)] + [Fraction(rng.choice([1, 2, -1]))])
        q = P.poly([Fraction(rng.randint(-4, 4)) for _ in range(q_terms)])
        if P.is_zero(q) or P.is_zero(p):
            continue
        if P.degree(P.gcd(p, q)) == 0:
            return p, q


# ---------------------------------------------------------------------------
# timed parts


def run(workload: str, inputs) -> list:
    return _RUNNERS[workload](inputs)


def _tr_sweep(jobs) -> list:
    checks = []
    for name, chi, reference, curve in jobs:
        store = recursion.run_tr(curve, chi)
        relabelled = recursion.OmegaStore(reference, dict(store.omegas), store.chi_max)
        digest = hashlib.sha256(relabelled.to_json().encode()).hexdigest()
        expect = GOLDEN["omega_sha256"][name].get(str(chi))
        checks.append((name, f"omega store to chi<={chi} matches the recorded digest", digest == expect, digest))
    return checks


def _annihilate(inp) -> list:
    order, lam2 = inp["order"], inp["lam2"]
    checks = []

    def record(group, label, op, data) -> None:
        rep = wave.check_annihilation(op, data, order)
        checks.append((group, f"{label} annihilates to hbar^{order}", rep.passed, rep.summary()))

    airy = wave.build_wave_data(recursion.run_tr(inp["airy"], order - 1), "generic", order)
    fraction_form = Add((Pow(Y, 2), Mul((sc(-lam2), X)), Mul((sc(-1), hb(), sub(Y, Y0), Inv(sub(X, X0))))))
    record("airy", "fraction-form operator", fraction_form, airy)
    record("airy", "dressed-form operator", sub(Pow(fixtures.dressed_y(), 2), Mul((sc(lam2), fixtures.dressed_x()))), airy)

    store = recursion.run_tr(inp["bessel"], order - 1)
    generic = sub(sc(lam2), Mul((Pow(fixtures.dressed_y(), 2), fixtures.dressed_x())))
    record("bessel", "generic operator", generic, wave.build_wave_data(store, "generic", order))
    limit = operators.normal_order_mul_rule(operators.singular_limit(generic, "inf", 0))
    record("bessel", "singular-limit operator", limit, wave.build_wave_data(store, ("main", INF), order))
    return checks


def _certify_fast(jobs) -> list:
    checks = []
    for name, kw in jobs:
        res = fixtures.run_fixture(name, **kw)
        checks.extend((name, c.label, c.passed, c.detail) for c in res.checks)
    return checks


def _same(a, b) -> bool:
    return operators.op_text(operators.simplify(sub(a, b))) == operators.op_text(sc(0))


def _neg(e):
    return Mul((sc(-1), e))


def _route2(p, q) -> tuple[bool, str]:
    """Transport y - x and x - y - x0 + y0 from the trivial curve along
    R(t) = p/q(t) - t, drop the second operator from the first one's
    denominator, multiply by q(A) and compare with the x-y dual route."""
    R = RatFun.make(p, q) - RatFun.var()
    A = fixtures.dressed_y()
    A0 = sub(Y0, Mul((hb(), Inv(sub(X, X0)))))
    rsA, rsA0 = RatSubst(R.num, R.den, A), RatSubst(R.num, R.den, A0)
    second = Add((X, _neg(rsA), _neg(A), _neg(X0), rsA0, A0))
    got2 = operators.simplify(operators.sympl_dual_rewrite(Add((X, _neg(Y), _neg(X0), Y0)), R))
    if not _same(got2, second):
        return False, f"transported second operator: {operators.op_text(got2)[:200]}"
    first = Add((rsA, A, _neg(X), Mul((hb(), Inv(Add(second.children + (sub(Y, Y0),)))))))
    got1 = operators.simplify(operators.sympl_dual_rewrite(sub(Y, X), R))
    if not _same(got1, first):
        return False, f"transported first operator: {operators.op_text(got1)[:200]}"
    reduced = (rsA, A, _neg(X), Mul((hb(), Inv(sub(Y, Y0)))))
    qA = RatSubst(q, P.ONE, A)
    final = Add(tuple(Mul((qA, t)) for t in reduced))
    generic = fixtures.pq_generic_operator(p, q)
    # neither simplify nor expand is canonical: each pairing of forms proves
    # equality for some pairs where the others do not (see NOTES.md); all
    # four are computed so that every pair costs the same work
    agree = [
        _same(a, b)
        for a in (final, operators.expand(final))
        for b in (operators.simplify(generic), operators.expand(generic))
    ]
    if not any(agree):
        return False, f"reduced operator: {operators.op_text(operators.simplify(final))[:200]}"
    return True, ""


def _rewrite(inp) -> list:
    checks = []
    for i, (p, q) in enumerate(inp["pairs"]):
        emitted = operators.simplify(operators.xy_dual_rewrite(fixtures.pq_dual_operator(p, q, side="dual")))
        expect = operators.simplify(fixtures.pq_generic_operator(p, q))
        label = f"pair {i} p={P.to_str(p, 'y')} q={P.to_str(q, 'y')}"
        same_text = operators.op_text(emitted) == operators.op_text(expect)
        checks.append(("pairs", f"{label}: x-y dual emits the rational quantum curve", same_text, ""))
        ok, why = _route2(p, q)
        checks.append(("pairs", f"{label}: routes agree after reduce-modulo", ok, why))
    r = inp["r"]
    y_r = P.poly([0] * r + [1])
    lim = operators.singular_limit(fixtures.pq_generic_operator(y_r, P.ONE), "inf", "inf")
    checks.append(("limits", f"r-spin r={r} limit is y^r - x", _same(lim, sub(Pow(Y, r), X)), ""))
    lim = operators.normal_order_mul_rule(
        operators.singular_limit(fixtures.pq_generic_operator(P.ONE, y_r), "inf", 0)
    )
    expect = sub(sc(1), Mul((Pow(Y, r - 1), X, Y)))
    checks.append(("limits", f"negative r-spin r={r} limit is 1 - y^(r-1) x y", _same(lim, expect), ""))
    return checks


_RUNNERS = {
    "tr-sweep": _tr_sweep,
    "annihilate": _annihilate,
    "certify-fast": _certify_fast,
    "rewrite": _rewrite,
}
