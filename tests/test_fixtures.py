"""Fixture registry tests."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from trq import fixtures
from trq.algebra import LogRat, RatFun
from trq.algebra import poly as P
from trq.curve import SpectralCurve
from trq.fixtures import FIXTURES, FixtureResult, _lr, _pq_route2, fixture_pq, homogeneity_shear_suite, run_fixture
from trq.operators import Mul
from trq.recursion import run_tr
from trq.wave import WaveError

# registry entries that bind a fixture function's leading arguments
BOUND = (
    "rspin3", "rspin4", "rspin5", "neg-rspin3", "neg-rspin4", "neg-rspin5",
    "hurwitz-q1", "hurwitz-q2", "rs-r3", "rs-r5",
)

# comparisons with the paper's printed coefficients, which the fixture's notes
# show to be inconsistent with the paper's own wave function
PAPER_CHECKS = (
    "script reproduces the printed operator with the 9 hbar^2/16 term",
    "final emission matches the printed last display",
)

# per fixture, in fast mode at order 3: every emitted operator text, every
# check as [label, passed, detail, kind], and the omega store summary
GOLDEN = json.loads((Path(__file__).with_name("golden_fixtures.json")).read_text())


@pytest.mark.parametrize("name", BOUND)
def test_seed_is_dropped_for_entries_without_one(name):
    # run_fixture drops a seed for an entry whose signature declares none
    res = run_fixture(name, seed=7, fast=True, order=1)
    assert isinstance(res, FixtureResult) and res.checks


def test_an_undeclared_keyword_other_than_seed_raises():
    # a typo once passed silently, and the fixture ran in full mode
    with pytest.raises(TypeError, match="fats"):
        run_fixture("rspin3", fats=True, order=3)


def _assert_certifies(name, res):
    # every engine check passes; only rs-r3 and rs-r5 make paper checks, all false
    assert res.checks
    assert res.passed, [(c.label, c.detail) for c in res.checks if not c.passed]
    paper = {c.label: c.passed for c in res.checks if c.kind == "paper"}
    if name in ("rs-r3", "rs-r5"):
        assert paper == {label: False for label in PAPER_CHECKS}
    else:
        assert not paper


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_certifies_in_fast_mode(name):
    res = run_fixture(name, fast=True, order=3)
    _assert_certifies(name, res)
    golden = GOLDEN[name]
    assert res.emitted == golden["emitted"]
    assert [[c.label, c.passed, c.detail, c.kind] for c in res.checks] == golden["checks"]
    assert res.omega_summary == golden["omega_summary"]


@pytest.mark.parametrize("name,engine", [("homfly", "exp_lograt"), ("hurwitz-q1", "exp_lograt")])
def test_a_defect_does_not_pass_as_the_failure_of_the_printed_sign(monkeypatch, name, engine):
    # the printed sign fails with a WaveError (a non-rational exp); the same
    # failure as any other error is a defect, which the fixture raises
    real = getattr(fixtures, engine)

    def defective(*args):
        try:
            return real(*args)
        except WaveError as e:
            raise TypeError("a defect") from e

    monkeypatch.setattr(fixtures, engine, defective)
    with pytest.raises(TypeError, match="a defect"):
        run_fixture(name, fast=True, order=3)


def test_pq_route2_with_q_a_multiple_of_y():
    # q = 2y: the reduced route-2 operator differed from the x-y dual route
    ok, note = _pq_route2(P.poly([-4, -1, -4, -1]), P.poly([0, 2]))
    assert ok, note


def test_pq_first_sample_certifies_in_full_mode():
    # sample 0 at the default order 6; sample 1 has poles of dy outside Q,
    # which the engine refuses with a CurveError
    res = fixture_pq(samples=1)
    assert res.checks
    assert res.passed, [(c.label, c.detail) for c in res.checks if not c.passed]


@pytest.mark.parametrize("name", [n for n in FIXTURES if n != "pq"])
def test_fixture_certifies_in_full_mode(name):
    # at the fixture's default order, where shifts reach hbar^6; pq is above
    _assert_certifies(name, run_fixture(name))


@pytest.mark.parametrize(
    "name",
    ["hurwitz-q1", "hurwitz-q2", "homfly", "gaiotto", "pq",
     "rspin3", "rspin4", "rspin5", "neg-rspin3", "neg-rspin4", "neg-rspin5"],
)
def test_fixture_certifies_the_operator_it_rewrites(monkeypatch, name):
    # the object handed to a rewrite is certified by annihilation itself, or
    # as a factor of a certified product, not a twin written on another side
    certified, rewritten = [], []

    def recording(real, seen):
        def wrapped(op, *args):
            seen.append(op)
            return real(op, *args)
        return wrapped

    monkeypatch.setattr(fixtures, "check_annihilation", recording(fixtures.check_annihilation, certified))
    for rewrite in ("xy_dual_rewrite", "sympl_dual_rewrite"):
        monkeypatch.setattr(fixtures, rewrite, recording(getattr(fixtures, rewrite), rewritten))
    # route 2 of pq transports operators of the trivial curve, which has no
    # wave data; test_pq_route2_with_q_a_multiple_of_y and the golden checks
    # cover it
    monkeypatch.setattr(fixtures, "_pq_route2", lambda p, q: (True, ""))
    run_fixture(name, fast=True, order=3)
    factors = [f for op in certified for f in (op, *(op.children if isinstance(op, Mul) else ()))]
    assert rewritten
    assert all(any(op is f for f in factors) for op in rewritten)


def test_shear_suite_on_a_curve_whose_x_is_not_a_square():
    cubic = SpectralCurve("cubic", _lr([0, -3, 0, 1]), _lr([0, 1]))
    res = FixtureResult("cubic", "direct")
    homogeneity_shear_suite(res, run_tr(cubic, 2), 2, random.Random(3))
    assert len(res.checks) == 4
    assert res.passed, [(c.label, c.detail) for c in res.checks if not c.passed]


def test_shear_suite_builds_the_scaled_and_sheared_airy_curves(monkeypatch):
    # y scaled by lambda, and y + R(x) with x = z^2: z + r0 + r1 z^2 + r2 z^4
    airy = SpectralCurve("airy", _lr([0, 0, 1]), _lr([0, 1]))
    store = run_tr(airy, 3)
    curves = []

    def recording(curve, chi):
        curves.append(curve)
        return run_tr(curve, chi)

    monkeypatch.setattr(fixtures, "run_tr", recording)
    res = FixtureResult("airy", "direct")
    homogeneity_shear_suite(res, store, 3, random.Random(1))
    assert res.passed and len(curves) == 4
    assert all(c.x == airy.x for c in curves)
    assert [c.y for c in curves[:2]] == [_lr([0, 2]), _lr([0, -3])]
    rng = random.Random(1)
    for sheared in curves[2:]:
        r = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        shift = RatFun.make(P.poly([r[0], 0, r[1], 0, r[2]]))
        assert sheared.y == LogRat.from_ratfun(RatFun.var() + shift)
