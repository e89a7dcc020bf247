"""Fixture registry tests."""

import pytest

from trq.fixtures import FixtureResult, run_fixture

# registry entries that bind a fixture function's leading arguments
BOUND = (
    "rspin3", "rspin4", "rspin5", "neg-rspin3", "neg-rspin4", "neg-rspin5",
    "hurwitz-q1", "hurwitz-q2", "rs-r3", "rs-r5",
)


@pytest.mark.parametrize("name", BOUND)
def test_seed_is_dropped_for_entries_without_one(name):
    # run_fixture passes on only the keywords an entry's signature declares
    res = run_fixture(name, seed=7, fast=True, order=1)
    assert isinstance(res, FixtureResult) and res.checks
