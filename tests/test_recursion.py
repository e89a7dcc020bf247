"""Recursion engine tests.

Expected values for the small Airy and Bessel differentials were computed
independently by hand evaluation of the residue formula (kernel times
Bergman-kernel products, expanded at the ramification point), and are
frozen here.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trq import recursion
from trq.algebra import LocalSeries, LogRat, RatFun, series_at
from trq.algebra import poly as P
from trq.curve import SpectralCurve, find_logvital, find_ramification, galois_series
from trq.fixtures import _summary
from trq.recursion import (
    OmegaStore,
    PoleDifferential,
    RecursionError_,
    _Branch,
    _check_invariants,
    _fold,
    _step,
    _store_run,
    _window,
    logtr_term,
    orbit_size,
    run_tr,
    s_inverse_coeff,
    symmetry_witness,
    tr_step,
)


def mk(xc, yc, name="c", **kw):
    return SpectralCurve(name, LogRat.from_ratfun(RatFun.make(P.poly(xc))), LogRat.from_ratfun(RatFun.make(P.poly(yc))), **kw)


def airy(**kw):
    return mk([0, 0, 1], [0, 1], "airy", **kw)


def vital_curve():
    # x = z^2, y = z + log(1 - z/2): a vital point at 2
    y = LogRat.make(RatFun.var(), [(1, RatFun.make(P.poly([1, F(-1, 2)])))])
    return SpectralCurve("logc", LogRat.from_ratfun(RatFun.make(P.poly([0, 0, 1]))), y)


def minus_two_minus_one_curve():
    # x = z^3/3 + 3z^2/2 + 2z, y = z: dx = (z + 1)(z + 2) dz, so branch points
    # -2 and -1, which a run numbers in that order and the store's text meets
    # "-1" first
    return mk([0, 2, F(3, 2), F(1, 3)], [0, 1], "minus-two-minus-one")


def _as_run_and_loaded(store):
    """The store, and the store read back from its text, which numbers its
    points in the order the text meets them."""
    return store, OmegaStore.from_json(store.curve, store.to_json())


def bessel():
    return SpectralCurve(
        "bessel",
        LogRat.from_ratfun(RatFun.make(P.poly([0, 0, 1]))),
        LogRat.from_ratfun(RatFun.make(P.poly([1]), P.poly([0, 1]))),
    )


class TestAiry:
    def test_omega03(self):
        st = run_tr(airy(), 1)
        assert st.get(0, 3).by_point() == {((F(0), 2),) * 3: F(-1, 2)}

    def test_omega11(self):
        st = run_tr(airy(), 1)
        assert st.get(1, 1).by_point() == {((F(0), 4),): F(-1, 16)}

    def test_chi_three_invariants(self):
        st = run_tr(airy(), 3)
        assert symmetry_witness(st) == []
        for (g, n), pd in st.omegas.items():
            assert pd.min_order() >= 2
            assert pd.pole_points() <= {F(0)}
        # Airy degree count: total pole order of omega_{g,n} is 6g - 6 + 4n
        for (g, n), pd in st.omegas.items():
            for key in pd.terms:
                assert sum(k for _p, k in key) == 6 * g - 6 + 4 * n

    def test_tr_step_outside_run_tr(self):
        # without a run's tables, tr_step builds its own for the one step
        st = run_tr(airy(), 2)
        assert tr_step(airy(), st, 2, 1) == run_tr(airy(), 3).get(2, 1)

    def test_tr_step_outside_run_tr_non_unit_denominators(self):
        # two branch points, kernel and tables with non-unit denominators
        curve = mk([0, -3, 0, 1], [0, 0, 1])
        ref = run_tr(curve, 3)
        for st in _as_run_and_loaded(run_tr(curve, 2)):
            for g, n in ((0, 5), (1, 3), (2, 1)):
                assert tr_step(curve, st, g, n) == ref.get(g, n), (g, n)

    def test_tr_step_outside_run_tr_other_point_order(self):
        # a run numbers the branch points [-2, -1], a loaded store meets -1 first
        curve = minus_two_minus_one_curve()
        ref = run_tr(curve, 4)
        for st in _as_run_and_loaded(run_tr(curve, 3)):
            for g, n in ((0, 6), (1, 4), (2, 2)):
                assert tr_step(curve, st, g, n) == ref.get(g, n), (g, n)

    def test_even_orders_only(self):
        st = run_tr(airy(), 3)
        for pd in st.omegas.values():
            for key in pd.terms:
                assert all(k % 2 == 0 for _p, k in key)


def _dfact(n: int) -> int:
    """n!! for odd n >= -1."""
    return math.prod(range(n, 1, -2))


@lru_cache(maxsize=None)
def wk(g: int, ds: tuple) -> F:
    """Witten-Kontsevich <tau_d1 ... tau_dn>_g (ds sorted) by the DVV
    recursion, removing the largest insertion tau_{k+1}."""
    n = len(ds)
    if 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
        return F(0)
    if (g, ds) in ((0, (0, 0, 0)), (1, (1,))):
        return F(1) if g == 0 else F(1, 24)
    *rest, top = ds
    k = top - 1
    if k < 0:
        return F(0)
    acc = F(0)
    for j, d in enumerate(rest):
        others = rest[:j] + rest[j + 1:] + [d + k]
        acc += F(_dfact(2 * k + 2 * d + 1), _dfact(2 * d - 1)) * wk(g, tuple(sorted(others)))
    for a in range(k):
        b = k - 1 - a
        c = F(_dfact(2 * a + 1) * _dfact(2 * b + 1), 2)
        acc += c * wk(g - 1, tuple(sorted(rest + [a, b])))
        for g1 in range(g + 1):
            for mask in range(1 << len(rest)):
                part1 = [d for i, d in enumerate(rest) if mask >> i & 1]
                part2 = [d for i, d in enumerate(rest) if not mask >> i & 1]
                acc += c * wk(g1, tuple(sorted(part1 + [a]))) * wk(g - g1, tuple(sorted(part2 + [b])))
    return acc / _dfact(2 * k + 3)


class TestWittenKontsevich:
    """Airy omegas against intersection numbers on M_{g,n}bar, an oracle
    that shares no code with the recursion engine."""

    def test_known_intersection_numbers(self):
        assert wk(0, (0, 0, 0, 1)) == 1
        assert wk(1, (1, 1)) == F(1, 24)
        assert wk(2, (4,)) == F(1, 1152)
        assert wk(2, (2, 3)) == F(29, 5760)
        assert wk(3, (7,)) == F(1, 82944)

    def test_airy_omegas(self):
        st = run_tr(airy(), 6)
        assert len(st.omegas) == 18
        for (g, n), pd in st.omegas.items():
            norm = (-1) ** n * F(2) ** (2 - 2 * g - n)
            expect = {}
            # each sorted multiset of descendants once, then its orderings
            for ds in itertools.combinations_with_replacement(range(3 * g - 2 + n), n):
                v = wk(g, ds)
                if v:
                    c = norm * v * math.prod(_dfact(2 * d + 1) for d in ds)
                    for order in _orderings(ds):
                        expect[tuple((F(0), 2 * d + 2) for d in order)] = c
            assert pd.by_point() == expect, (g, n)


def _orderings(ds: tuple):
    """The distinct orderings of a sorted tuple."""
    if not ds:
        yield ()
        return
    for i, d in enumerate(ds):
        if i == 0 or d != ds[i - 1]:
            for rest in _orderings(ds[:i] + ds[i + 1:]):
                yield (d,) + rest


def _golden_cases():
    golden = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())
    return [(name, int(chi), digest) for name, d in golden["omega_sha256"].items() for chi, digest in d.items()]


def _digest(store: OmegaStore) -> str:
    return hashlib.sha256(store.to_json().encode()).hexdigest()


class TestGoldenDigests:
    """Stores hash to recorded digests: those of the benchmark's unsheared
    curves, and three beyond its sizes (Airy and the cubic at larger chi, and
    a curve with a vital point), recorded at commit d43db26."""

    @pytest.mark.parametrize("name,chi,digest", _golden_cases())
    def test_store_digest(self, name, chi, digest):
        xc = {"airy": [0, 0, 1], "cubic": [0, -3, 0, 1]}[name]
        curve = mk(xc, [0, 1], name)
        assert _digest(run_tr(curve, chi)) == digest

    def test_airy_chi6(self):
        digest = "3a1e97aee48286bd91668849be55735a7d86d325e2e02f2dc97f8b05c36f7973"
        assert _digest(run_tr(airy(), 6)) == digest

    def test_cubic_chi4(self):
        digest = "f93037664aa632e7ea76d2c4fc6ea8affc9cec6901e89c89bbb17f995b409b8d"
        assert _digest(run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 4)) == digest

    # stores whose coefficients and points have non-unit denominators,
    # recorded at commit 22cda52

    def test_branch_point_at_minus_half_chi5(self):
        digest = "415485e28c2672bb802e9dc5b3cced3c38c9356d3e54980d27a2e0624537af9d"
        assert _digest(run_tr(mk([0, 1, 1], [0, 1], "quad"), 5)) == digest

    def test_cubic_y_squared_chi3(self):
        digest = "a5e57ec240eb1b44fd39b26f41c5e1851d33708a01abe1cfe2fcd0256c931929"
        assert _digest(run_tr(mk([0, -3, 0, 1], [0, 0, 1], "cubic-z2"), 3)) == digest

    def test_bessel_chi4(self):
        digest = "749187530509025314a90285f697184916a8eddf1dea29cc6f6f43434624f9ec"
        assert _digest(run_tr(bessel(), 4)) == digest

    def test_rationally_sheared_airy_chi5(self):
        # y -> y + 1/2 - 2x/3 + 3x^2/5 leaves every omega unchanged; the store
        # is relabelled to plain Airy as the benchmark's tr-sweep does
        sheared = run_tr(mk([0, 0, 1], [F(1, 2), 1, F(-2, 3), 0, F(3, 5)], "airy-sheared"), 5)
        relabelled = OmegaStore(airy(), dict(sheared.omegas), sheared.chi_max)
        assert _digest(relabelled) == "a25fde932c3c0c2fd8b7660b114a9879b543420219db8339feb7b766a5dbec39"

    # the two larger stores, recorded at commit 07de3c3; Airy to chi<=8 holds
    # omega_{0,10}, whose label "0,10" sorts before "0,3" as a string

    def test_airy_chi8(self):
        digest = "009fcacac4ea10033289ea5c3435c477587ea3b4ca800977bd3b91e2a60a4fe0"
        assert _digest(run_tr(airy(), 8)) == digest

    def test_cubic_chi5(self):
        digest = "9f36c945b93cefe3f654493ef2f57c013b79a860aab2ec0e1f24f33e36c0119b"
        assert _digest(run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 5)) == digest

    # two stores beyond them, each holding 150 to 300 ordered terms per
    # orbit; recorded at commit 5869dfb, whose digest prefixes BENCH_13.json
    # already gives

    def test_airy_chi9(self):
        digest = "3ce6e41ecd7becefadbf99f1d43c0a89f878f5d69da27768a6f6a9ac852440d6"
        assert _digest(run_tr(airy(), 9)) == digest

    def test_cubic_chi6(self):
        digest = "90602ffd9455eb4d6934225584b5c667a145cfd9cfe39e833f44bbd88bf6755b"
        assert _digest(run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 6)) == digest

    def test_vital_point_chi4(self):
        # every omega_{g,1} has poles at the vital point; later steps read
        # these slots back, at a point that is not the ramification point
        store = run_tr(vital_curve(), 4)
        assert all(F(2) in store.get(g, 1).pole_points() for g in (1, 2))
        assert _digest(store) == "51dca4279135268d39640dddcfc66810d9658823423b267f9027554e6683876a"


class TestPoleBound:
    """omega_{g,n} has poles of order at most 6g-4+2n at a simple
    ramification point; Airy attains the bound."""

    @pytest.mark.parametrize("curve,chi,attained", [
        (airy(), 4, True), (bessel(), 4, False), (mk([0, -3, 0, 1], [0, 1]), 2, False),
    ])
    def test_bound(self, curve, chi, attained):
        rams = {r.location for r in find_ramification(curve)}
        for (g, n), pd in run_tr(curve, chi).omegas.items():
            top = max((k for key in pd.by_point() for a, k in key if a in rams), default=0)
            assert top <= 6 * g - 4 + 2 * n, (g, n)
            if attained:
                assert top == 6 * g - 4 + 2 * n, (g, n)

    def test_invariants_reject_a_pole_above_the_bound(self):
        pd = PoleDifferential(0, 3, {((0, 4),) * 3: 1}, 1, [F(0)])
        with pytest.raises(RecursionError_, match="above 2"):
            _check_invariants(pd, {0}, set())

    def test_invariants_name_the_points(self):
        # slot ids 0 and 1 stand for the points 0 and 3
        pd = PoleDifferential(0, 3, {((0, 2), (0, 2), (1, 2)): 1}, 1, [F(0), F(3)])
        with pytest.raises(RecursionError_, match=r"poles outside \[Fraction\(0, 1\)\]: \[Fraction\(3, 1\)\]"):
            _check_invariants(pd, {0}, set())

    def test_invariants_reject_an_asymmetric_omega(self):
        # omega_{0,3} doubled, which the residue formula does not give:
        # omega_{0,4} is linear in it and stays symmetric, but omega_{0,5}
        # adds omega_{0,4} omega_{0,2} to omega_{0,3}^2, and now depends on
        # which slot is its head
        st = run_tr(airy(), 1)
        st.omegas[(0, 3)] = st.get(0, 3).scale(2)
        for n in (4, 5):
            st.omegas[(0, n)] = tr_step(airy(), st, 0, n)
        assert symmetry_witness(st) == [(0, 3), (0, 5)]
        assert _step(_store_run(st.curve, st, 3), st.omegas, 0, 5, False) != st.get(0, 5)

    def test_entries_symmetric(self):
        # a slot pair's residue is unchanged by t <-> sigma(t), which the
        # tables use to store one entry per unordered pair
        curve = mk([0, -3, 0, 1], [0, 1, 1])
        for ram in find_ramification(curve):
            p = ram.location
            points = [p, -p, F(5)]  # slot ids 0, 1 and 2; 5 is a foreign point
            slots = [(0, 2), (0, 5), (1, 3), (0, 0), (0, -2), (2, 2)]
            one, other = (_Branch(curve, ram, _window(3), points) for _ in range(2))
            for e1, e2 in itertools.combinations(slots, 2):
                assert one.entry(e1, e2) == other.entry(e2, e1), (e1, e2)


def _symmetric_by_transpositions(terms: dict, n: int) -> bool:
    """The definition: invariance under every transposition of slots, a
    zero coefficient counting as an absent term."""
    for key, v in terms.items():
        for i in range(n):
            for j in range(i + 1, n):
                kk = list(key)
                kk[i], kk[j] = kk[j], kk[i]
                if terms.get(tuple(kk), F(0)) != v:
                    return False
    return True


def _folds(n: int, terms: dict, points) -> bool:
    try:
        orbits = _fold(0, n, terms, points)
    except RecursionError_:
        return False
    # the orbits expand back to the nonzero terms
    assert dict(PoleDifferential(0, n, orbits, 1, points).terms.items()) == {k: v for k, v in terms.items() if v}
    return True


@st.composite
def _near_symmetric(draw):
    """Ordered terms over a point table, (n, {key of slot ids: coefficient},
    points), that are symmetric or nearly: every permutation of a few
    sorted keys with one coefficient each, then possibly one permutation
    dropped, one coefficient changed or one set to an explicit zero."""
    n = draw(st.integers(1, 4))
    points = draw(st.sampled_from([(0, 1), (F(0), F(1, 2))]))
    slot = st.tuples(st.sampled_from((0, 1)), st.sampled_from((2, 3)))
    terms = {}
    for base in draw(st.lists(st.lists(slot, min_size=n, max_size=n), min_size=1, max_size=3)):
        v = F(draw(st.integers(-2, 2)))
        for key in itertools.permutations(base):
            terms[key] = v
    keys = sorted(terms)
    how = draw(st.sampled_from(("none", "drop", "change", "zero")))
    if how != "none":
        key = draw(st.sampled_from(keys))
        if how == "drop":
            del terms[key]
        else:
            terms[key] = terms[key] + 1 if how == "change" else F(0)
    return n, terms, points


class TestSymmetryCheck:
    """The one-pass fold of ordered terms to orbits, which `from_json`
    reads a store's text by, against the transposition definition."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_near_symmetric())
    def test_against_transpositions(self, case):
        n, terms, points = case
        assert _folds(n, terms, points) == _symmetric_by_transpositions(terms, n)

    @pytest.mark.parametrize("points", [(0, 1, 2), (F(0), F(1, 2), F(2))])
    def test_cases(self, points):
        a, b, c = ((i, 2) for i in range(3))
        full = {key: F(3) for key in itertools.permutations((a, b, c))}
        assert _fold(0, 3, full, points) == {(a, b, c): F(3)}
        missing = {k: v for k, v in full.items() if k != (a, b, c)}
        unequal = full | {(a, b, c): F(4)}
        zero = full | {(a, b, c): F(0)}
        repeated = {(a, a, b): F(1), (a, b, a): F(1)}
        for terms, why in ((missing, "lacks"), (unequal, "unequal"), (zero, "lacks"), (repeated, "lacks")):
            with pytest.raises(RecursionError_, match=rf"omega_\(0,3\) .*{why}"):
                _fold(0, 3, terms, points)
            assert not _symmetric_by_transpositions(terms, 3)
        # an explicit zero is an absent term, on either side
        terms = repeated | {(b, a, a): F(1), (b, b, a): F(0)}
        assert _folds(3, terms, points) and _symmetric_by_transpositions(terms, 3)


class TestSymmetryWitness:
    """The store holds one term per orbit, computed from its smallest slot
    as head; the witness computes each again from its largest slot."""

    @pytest.mark.parametrize("make,chi", [
        (airy, 6), (lambda: mk([0, -3, 0, 1], [0, 1], "cubic"), 4), (bessel, 4), (vital_curve, 4),
    ], ids=["airy", "cubic", "bessel", "logtr-vital"])
    def test_the_two_heads_agree(self, make, chi):
        st = run_tr(make(), chi)
        assert symmetry_witness(st) == []
        # not vacuous: orbits whose smallest and largest slots differ
        assert any(key[0] != key[-1] for pd in st.omegas.values() for key in pd.orbits)

    def test_no_witness_for_the_empty_special_set(self):
        assert symmetry_witness(run_tr(airy(gen_tr=True, special_set=()), 3)) == []

    def test_the_largest_head_gives_the_stored_omega(self):
        st = run_tr(airy(), 2)
        assert _step(_store_run(st.curve, st, 2), st.omegas, 1, 2, False) == tr_step(airy(), st, 1, 2) == st.get(1, 2)

    def test_the_witness_reads_the_tables_of_the_run(self, monkeypatch):
        # one sigma series per branch point for the run and its witness; a
        # store read from its text has no run, and the witness builds one
        calls = []
        monkeypatch.setattr(recursion, "galois_series", lambda *a: calls.append(a) or galois_series(*a))
        curve = mk([0, -3, 0, 1], [0, 1], "cubic")
        st = run_tr(curve, 4)
        assert len(calls) == 2 and symmetry_witness(st) == [] and len(calls) == 2
        assert symmetry_witness(OmegaStore.from_json(curve, st.to_json())) == [] and len(calls) == 4

    def test_the_kept_run_reads_a_replaced_omega(self):
        # the run kept on the store splits an omega again once the store
        # holds another one: omega_{0,3} doubled, omega_{0,4} and
        # omega_{0,5} recomputed from it over the kept tables equal those
        # of a new run
        st = run_tr(airy(), 3)
        st.omegas = {(0, n): st.get(0, n) for n in (3, 4, 5)}
        st.omegas[(0, 3)] = st.get(0, 3).scale(2)
        for n in (4, 5):
            kept = tr_step(st.curve, st, 0, n)
            assert _store_run(st.curve, st, 3) is st.run
            assert kept == tr_step(airy(), st, 0, n) != st.get(0, n), n
            st.omegas[(0, n)] = kept
        assert symmetry_witness(st) == [(0, 3), (0, 5)]

    def test_orbit_size(self):
        for key in [(), ((0, 2),), ((0, 2), (0, 2), (0, 4)), ((0, 2), (0, 3), (1, 2), (1, 2)), ((0, 2),) * 5]:
            assert orbit_size(key) == len(set(itertools.permutations(key)))
        st = run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 3)
        for pd in st.omegas.values():
            assert len(pd.terms) == len(list(pd.terms)) == len(pd.by_point())


def _reversed_table(store: OmegaStore) -> OmegaStore:
    """The store over the reversed point table of its omegas, each key sorted
    again in the new id order."""
    old = next(pd.points for pd in store.omegas.values() if pd.orbits)
    table, last = old[::-1], len(old) - 1
    return OmegaStore(store.curve, {
        (g, n): PoleDifferential(
            g, n, {tuple(sorted((last - a, k) for a, k in key)): v for key, v in pd.orbits.items()}, pd.den, table,
        )
        for (g, n), pd in store.omegas.items()
    }, store.chi_max)


class TestPointTables:
    """Omegas over a point table whose id order reverses the run's: each
    orbit sorts its slots the other way round, so its head is at the other
    branch point."""

    def curve(self):
        return mk([0, -3, 0, 1], [0, 0, 1], "cubic-z2")

    def test_equality(self):
        st = run_tr(self.curve(), 3)
        rev = _reversed_table(st)
        last = len(st.get(0, 3).points) - 1
        assert rev.get(0, 3).points == st.get(0, 3).points[::-1]
        # keys of rev that, mapped back to the run's ids, are not sorted there
        back = [tuple((last - a, k) for a, k in key) for pd in rev.omegas.values() for key in pd.orbits]
        assert any(key != tuple(sorted(key)) for key in back)
        for gn, pd in st.omegas.items():
            assert pd == rev.omegas[gn] and rev.omegas[gn] == pd, gn
            key = next(iter(pd.orbits))
            other = PoleDifferential(pd.g, pd.n, pd.orbits | {key: pd.orbits[key] + pd.den}, pd.den, pd.points)
            assert other != rev.omegas[gn] and rev.omegas[gn] != other, gn
        # a point missing from the other table
        assert PoleDifferential(0, 1, {((0, 2),): 1}, 1, [F(0)]) != PoleDifferential(0, 1, {((0, 2),): 1}, 1, [F(5)])

    def test_tr_step_outside_run_tr(self):
        ref = run_tr(self.curve(), 4)
        rev = _reversed_table(run_tr(self.curve(), 3))
        for g, n in ((0, 6), (1, 4), (2, 2)):
            got = tr_step(self.curve(), rev, g, n)
            assert got.points is rev.get(0, 3).points
            assert got == ref.get(g, n) and ref.get(g, n) == got, (g, n)
            # each orbit from its largest slot, as the witness computes it
            assert _step(_store_run(self.curve(), rev, 2 * g - 2 + n), rev.omegas, g, n, False) == got, (g, n)
        assert symmetry_witness(rev) == []


class TestBessel:
    def test_omega11(self):
        st = run_tr(bessel(), 1)
        assert st.get(1, 1).by_point() == {((F(0), 2),): F(-1, 16)}

    def test_chi_three_runs(self):
        # every omega_{0,n} of the Bessel curve vanishes (Do-Norbury,
        # arXiv:1608.02781); none with g >= 1 does
        st = run_tr(bessel(), 3)
        for (g, n), pd in st.omegas.items():
            assert pd.is_zero() == (g == 0), (g, n)
        for pd in st.omegas.values():
            assert pd.min_order() >= 2
        assert symmetry_witness(st) == []


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [F(2), F(-3)])
    def test_scaling(self, lam):
        base = run_tr(airy(), 3)
        scaled_curve = mk([0, 0, 1], [0, lam])
        scaled = run_tr(scaled_curve, 3)
        for (g, n), pd in base.omegas.items():
            expect = pd.scale(lam ** (2 - 2 * g - n))
            assert scaled.get(g, n) == expect, (g, n)

    @pytest.mark.parametrize("lam", [F(2), F(-3)])
    def test_scaling_bessel(self, lam):
        base = run_tr(bessel(), 2)
        scaled_curve = SpectralCurve(
            "b2",
            LogRat.from_ratfun(RatFun.make(P.poly([0, 0, 1]))),
            LogRat.from_ratfun(RatFun.make(P.poly([lam]), P.poly([0, 1]))),
        )
        scaled = run_tr(scaled_curve, 2)
        for (g, n), pd in base.omegas.items():
            assert scaled.get(g, n) == pd.scale(lam ** (2 - 2 * g - n))


class TestShearInvariance:
    def test_polynomial_shift(self):
        rng = random.Random(17)
        base = run_tr(airy(), 3)
        for _ in range(2):
            r = [F(rng.randint(-3, 3)) for _ in range(3)]
            # y -> y + R(x) with x = z^2
            shift = RatFun.make(P.poly([r[0], 0, r[1], 0, r[2]]))
            cur = SpectralCurve(
                "sheared",
                LogRat.from_ratfun(RatFun.make(P.poly([0, 0, 1]))),
                LogRat.from_ratfun(RatFun.var() + shift),
            )
            sheared = run_tr(cur, 3)
            for (g, n), pd in base.omegas.items():
                assert sheared.get(g, n) == pd, (g, n, r)


class TestCubicTwoRamPoints:
    def test_runs_and_invariants(self):
        c = mk([0, -1, 0, F(1, 3)], [0, 1])
        st = run_tr(c, 2)
        assert symmetry_witness(st) == []
        for (g, n), pd in st.omegas.items():
            assert pd.min_order() >= 2
            assert pd.pole_points() <= {F(1), F(-1)}
        assert not st.get(0, 3).is_zero()


class TestLogTR:
    def test_s_inverse(self):
        # 1/S(t) = 1 - t^2/24 + 7 t^4/5760 - 31 t^6/967680 + ...
        assert s_inverse_coeff(1) == F(-1, 24)
        assert s_inverse_coeff(2) == F(7, 5760)
        assert s_inverse_coeff(3) == F(-31, 967680)

    def _log_curve(self, alphas):
        x = LogRat.make(RatFun.const(0), [(1, RatFun.var())])
        terms = [(1 / a, RatFun.var() - p) for p, a in alphas]
        y = LogRat.make(RatFun.const(0), terms)
        return SpectralCurve("logc", x, y)

    def test_unramified_closed_form(self):
        # x = log z: engine omega_{g,1} equals the S-series closed form
        alphas = [(F(2), F(1)), (F(5), F(-1))]
        c = self._log_curve(alphas)
        st = run_tr(c, 6)
        xp = c.dx
        for g in (1, 2, 3):
            expect = RatFun.const(0)
            cg = s_inverse_coeff(g)
            for p, a in alphas:
                f = (RatFun.const(1) / (RatFun.var() - p)) / xp
                for _ in range(2 * g - 1):
                    f = f.derivative() / xp
                expect = expect + f * xp * cg * a ** (2 * g - 1)
            assert st.get(g, 1).as_ratfun() == expect, g

    def test_vanishing_for_higher_n(self):
        c = self._log_curve([(F(2), F(1)), (F(5), F(-1))])
        st = run_tr(c, 4)
        for (g, n), pd in st.omegas.items():
            if n >= 2:
                assert pd.is_zero(), (g, n)

    def test_tr_step_outside_run_tr_reads_vital_points(self):
        ref = run_tr(vital_curve(), 3)
        for st in _as_run_and_loaded(run_tr(vital_curve(), 2)):
            for g, n in ((0, 5), (1, 3)):
                assert tr_step(vital_curve(), st, g, n) == ref.get(g, n), (g, n)

    def test_no_vital_points_zero(self):
        assert logtr_term(airy(), 1).is_zero()

    def test_general_alpha_weighting(self):
        # per-point weight alpha^{2g-1} for alpha not +-1
        alphas = [(F(3), F(2))]
        c = self._log_curve(alphas)
        pd = logtr_term(c, 1)
        xp = c.dx
        f = (RatFun.const(1) / (RatFun.var() - 3)) / xp
        f = f.derivative() / xp
        expect = f * xp * s_inverse_coeff(1) * F(2)
        assert pd.as_ratfun() == expect


class TestGenTREmpty:
    def test_all_vanish(self):
        c = airy(gen_tr=True, special_set=())
        st = run_tr(c, 4)
        for pd in st.omegas.values():
            assert pd.is_zero()

    def test_nontrivial_set_refused(self):
        c = airy(gen_tr=True, special_set=(F(0),))
        with pytest.raises(Exception, match="unsupported"):
            run_tr(c, 2)


class TestCacheRoundTrip:
    @pytest.mark.parametrize("make", [
        airy, lambda: mk([0, -3, 0, 1], [0, 1], "cubic"), vital_curve, minus_two_minus_one_curve,
    ], ids=["airy", "cubic", "logtr-vital", "minus-two-minus-one"])
    def test_json_identity(self, make):
        st = run_tr(make(), 3)
        text = st.to_json()
        st2 = OmegaStore.from_json(make(), text)
        assert st2.to_json() == text
        for key, pd in st.omegas.items():
            assert st2.omegas[key] == pd


def _json_by_encoder(store: OmegaStore) -> str:
    """The store's text as the generic encoder writes its payload."""
    payload = {
        "curve": store.curve.hash_key(),
        "chi_max": store.chi_max,
        "omegas": {
            f"{g},{n}": sorted([[[str(p), k] for p, k in key], str(v)] for key, v in pd.by_point().items())
            for (g, n), pd in sorted(store.omegas.items())
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True)


class TestJsonWriter:
    """to_json writes the text of json.dumps(payload, indent=1, sort_keys=True)
    directly; from_json reads it back to the same text."""

    @pytest.mark.parametrize("make", [
        # omega_{0,10}: the label "0,10" sorts before "0,3" as a string
        lambda: run_tr(airy(), 8),
        # poles at the vital point 2 and coefficients with non-unit denominators
        lambda: run_tr(vital_curve(), 4),
        # the empty special set: every term list is empty
        lambda: run_tr(airy(gen_tr=True, special_set=()), 4),
        lambda: OmegaStore(airy(), chi_max=2),
        # slot ids [-2, -1], in the other order than the points' texts
        lambda: run_tr(minus_two_minus_one_curve(), 3),
    ], ids=["airy-chi8", "logtr-vital", "gentr-empty", "no-omegas", "minus-two-minus-one"])
    def test_matches_the_encoder(self, make):
        store = make()
        text = store.to_json()
        assert text == _json_by_encoder(store)
        assert OmegaStore.from_json(store.curve, text).to_json() == text


class TestFoldOnRead:
    """from_json folds each omega's terms to its orbits, and refuses a text
    that is not symmetric, naming the omega."""

    def _payload(self):
        store = run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 2)
        return store, json.loads(store.to_json())

    def _read(self, store, payload):
        return OmegaStore.from_json(store.curve, json.dumps(payload, indent=1, sort_keys=True))

    def test_a_lacking_permutation(self):
        store, payload = self._payload()
        terms = payload["omegas"]["0,4"]
        # a term whose slots are not all equal has another permutation
        terms.remove(next(t for t in terms if len({tuple(s) for s in t[0]}) > 1))
        with pytest.raises(RecursionError_, match=r"omega_\(0,4\) lacks a permutation of the slots \(\("):
            self._read(store, payload)

    def test_unequal_coefficients(self):
        store, payload = self._payload()
        term = next(t for t in payload["omegas"]["1,2"] if t[0][0] != t[0][1])
        term[1] = str(F(term[1]) + 1)
        with pytest.raises(RecursionError_, match=r"omega_\(1,2\) has unequal coefficients on the slots \(\("):
            self._read(store, payload)

    def test_the_summary_counts_the_written_terms(self):
        for store in (run_tr(mk([0, -3, 0, 1], [0, 1], "cubic"), 3), run_tr(vital_curve(), 4)):
            written = {label: len(terms) for label, terms in json.loads(store.to_json())["omegas"].items()}
            assert _summary(store) == written


def _residues_by_series(curve, ram, factor, ms, order) -> list:
    """Res_t E_m D factor(t, sigma) for each m in ms, from Fraction series:
    E_m = (t^m - sigma^m)/2 and D = 1/((y(t) - y(sigma t)) x'(t))."""
    p = ram.location
    sigma = galois_series(curve, ram, order)
    t = LocalSeries.make(p, {1: 1}, order)

    def y_at(u):
        out = series_at(curve.y.rat, p, order).compose(u)
        for c, arg in curve.y.logs:
            # log A(p + u) = log A(p) + log(1 + (A(p + u)/A(p) - 1)); log A(p) cancels in D
            a = series_at(RatFun.make(arg), p, order)
            out = out + (a.scale(1 / a.coeff(0)) - LocalSeries.make(p, {0: 1}, order)).compose(u).log1p().scale(c)
        return out

    rest = ((y_at(t) - y_at(sigma)) * series_at(curve.dx, p, order)).invert() * factor(t, sigma)
    return [((t.pow(m) - sigma.pow(m)).scale(F(1, 2)) * rest).coeff(-1) for m in ms]


def _slot_series(e, u, points, order):
    """The slot (a, k) at p + u: 1/(p + u - a)^k, or u^(-k) for the virtual slot."""
    a, k = e
    if k <= 0:
        return u.pow(-k)
    return series_at(RatFun.const(1) / (RatFun.var() - points[a]) ** k, u.point, order).compose(u)


class TestResidueTables:
    """The integer tables of _Branch against residues of Fraction series.
    The cubic has two branch points, so each is a foreign point of the
    other's tables; the Log-TR curve has a log in y and a vital point."""

    def _check(self, curve, pairs):
        window = _window(3)
        order = window + 12
        rams = find_ramification(curve)
        points = [r.location for r in rams] + [a for a, _alpha in find_logvital(curve)]
        ms = range(1, window + 2)
        for ram in rams:
            br = _Branch(curve, ram, window, points)
            pid, other = br.id, len(points) - 1 - br.id
            for e1, e2 in pairs(pid, other):
                den, residues = br.entry(e1, e2)
                want = _residues_by_series(curve, ram, lambda t, s: (
                    _slot_series(e1, t, points, order) * _slot_series(e2, s, points, order) * s.derivative()
                ), ms, order)
                assert any(want), (e1, e2)
                assert [F(dict(residues).get(m, 0), den) for m in ms] == want, (ram.location, e1, e2)
            # omega_{0,2}(t, sigma t) = sigma' dt^2 / (t - sigma)^2
            den, residues = br.diagonal
            want = _residues_by_series(curve, ram, lambda t, s: (t - s).pow(-2) * s.derivative(), ms, order)
            assert [F(dict(residues).get(m, 0), den) for m in ms] == want, ram.location

    def test_a_residue_past_a_known_window_raises(self):
        # at window 4 every E_m D is exact to t^3, which the pair (p, 4), (p, 4)
        # needs to t^7; the virtual slot (p, -5) at sigma is exact to t^7, which
        # its partner (p, 8) needs to t^8
        ram, = find_ramification(airy())
        br = _Branch(airy(), ram, 4, [F(0)])
        with pytest.raises(RecursionError_, match="kernel at 0 known to t"):
            br.entry((0, 4), (0, 4))
        with pytest.raises(RecursionError_, match="slot series at 0 known to t"):
            br.entry((0, 8), (0, -5))

    def test_cubic(self):
        def pairs(pid, other):
            return [
                ((pid, 2), (pid, 3)), ((pid, 5), (pid, 2)),
                ((pid, 4), (pid, 0)), ((pid, 3), (pid, -2)), ((pid, -1), (pid, 3)),
                ((other, 2), (pid, 3)), ((pid, 2), (other, 3)), ((other, 2), (other, 4)),
            ]
        self._check(mk([0, -3, 0, 1], [0, 1]), pairs)

    def test_logtr(self):
        def pairs(pid, vital):
            return [
                ((pid, 2), (pid, 2)), ((pid, 3), (pid, -1)),
                ((vital, 2), (pid, 3)), ((pid, 4), (vital, 2)), ((vital, 3), (vital, 2)),
            ]
        self._check(vital_curve(), pairs)
