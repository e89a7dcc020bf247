"""Fixture registry tests."""

import json
from pathlib import Path

import pytest

from trq import fixtures
from trq.algebra import poly as P
from trq.fixtures import FIXTURES, FixtureResult, _pq_route2, fixture_pq, run_fixture
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
    # run_fixture passes on only the keywords an entry's signature declares
    res = run_fixture(name, seed=7, fast=True, order=1)
    assert isinstance(res, FixtureResult) and res.checks


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


@pytest.mark.parametrize("name,engine", [("homfly", "exp_lograt"), ("hurwitz-q1", "classical_symbol")])
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
