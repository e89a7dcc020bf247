"""Topological recursion over the pole basis, as a contraction against
residue tables.

Stable differentials are stored as exact sums of products
prod_i dz_i/(z_i - p_i)^{k_i} with k_i >= 2.  At a simple ramification
point p, with local coordinate t = z - p and deck transformation sigma, the
residue formula of Eynard-Orantin (arXiv:math-ph/0702045) pairs one slot
at t with one at sigma(t).  The residue of such a pair against the
recursion kernel depends only on the two slots, so it is computed when a
pair first occurs and kept, per run and ramification point, in an integer
table (`_Branch`).  A step then only multiplies stored coefficients with
table entries: the A/B/C/D form of topological recursion
(Andersen-Borot-Chekhov-Orantin, arXiv:1703.03307).  omega_{0,2} enters
the second summand as a virtual differential over the slots (p, m+2), and
the first as one table entry for its value at (t, sigma(t)).

An omega (`PoleDifferential`) is integer numerators over one denominator,
one per symmetric orbit: omega_{g,n} is symmetric in its n slots, so a
sorted key of slot ids (a pole point's index in the point table that the
omegas of a run share) stands for its distinct permutations.  A step
computes each output orbit once, from the representative whose head, the
slot of omega_{g,n}(z, ...) at z, is its smallest slot.  The head is the
output slot (p, m+1) of one branch point p, so only that branch adds to
the orbit, and m+1 <= k when the smallest spectator (a, k) is at p
(`_merge`).  In the first summand each orbit gives each distinct
ordered pair of its slots to (t, sigma(t)), the rest spectators.  In the
second, the orbits of each factor less a distinct slot at t or sigma(t)
are grouped by that slot (`_Run.split`), so an entry is looked up once per
pair of them; the spectators merge, R = R1 + R2, weighted by the
labelled splittings prod_s C(m_R(s), m_R1(s)), m the multiplicities
(`_merge`); t <-> sigma(t) swaps the factors, so (g1,n1) < (g2,n2) counts
twice and the reverse not at all.  Products go into buckets keyed by
their denominator, brought over one at the end of the step: no step
builds or hashes a Fraction.  `terms`, `by_point` and `to_json` expand
each orbit into its permutations, `from_json` folds them back and refuses
a text that is not symmetric, and `==` across point tables sorts each
relabelled key again.

omega_{g,n} has poles of order at most 6g-4+2n at a simple ramification
point (Eynard-Orantin).  The series windows of a run follow from this
bound, every computed omega is checked against it, and a residue that
would read past a known window raises.  A store is symmetric by
construction; `symmetry_witness` checks the theorem behind it (ibid.,
Theorem 4.6) by computing each orbit again with its largest slot as head,
over the residue tables of the run, which `run_tr` leaves on the store.
The logarithmic correction adds principal parts at the vital points of dy
to every omega_{g,1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, permutations
from json.encoder import encode_basestring_ascii as _quote
from math import comb, factorial, gcd, lcm
from operator import itemgetter

from .algebra import LocalSeries, RatFun, series_at
from .algebra import poly as P
from .algebra.series import Series
from .curve import (
    CurveError, RamPoint, SpectralCurve, find_logvital, find_ramification, galois_series,
)

_BIG = 10**9


class RecursionError_(CurveError):
    pass


@dataclass
class PoleDifferential:
    """One omega_{g,n} in the pole basis: the sum over `orbits` of v/den
    times the sum over the distinct permutations ((a_1, k_1), ...) of its
    sorted key of prod_i dz_i/(z_i - points[a_i])^k_i, v an integer.
    den > 0 and gcd(den, every v) = 1, so the form is unique for a given
    table.  `points` maps a slot id to its point; the omegas of a run or a
    loaded store share one table, which is only ever appended to."""

    g: int
    n: int
    orbits: dict = field(default_factory=dict)  # sorted ((slot id, order), ...) -> int
    den: int = 1
    points: list = field(default_factory=list)

    @property
    def terms(self) -> dict:
        """Every distinct permutation of each orbit, with its numerator."""
        return {key: v for orbit, v in self.orbits.items() for key in _permutations(orbit)}

    def is_zero(self) -> bool:
        return not self.orbits

    def by_point(self) -> dict:
        """The terms keyed by ((point, k), ...), with Fraction coefficients."""
        return {tuple([(self.points[a], k) for a, k in key]): Fraction(v, self.den) for key, v in self.terms.items()}

    def scale(self, c) -> "PoleDifferential":
        c = Fraction(c)
        orbits = {k: v * c.numerator for k, v in self.orbits.items()}
        return _reduced(self.g, self.n, orbits, self.den * c.denominator, self.points)

    def __add__(self, o: "PoleDifferential") -> "PoleDifferential":
        if o.orbits and o.points is not self.points:
            raise ValueError("omegas over different point tables")
        den = lcm(self.den, o.den)
        orbits = {k: v * (den // self.den) for k, v in self.orbits.items()}
        for k, v in o.orbits.items():
            orbits[k] = orbits.get(k, 0) + v * (den // o.den)
        return _reduced(self.g, self.n, orbits, den, self.points)

    def __eq__(self, o) -> bool:
        if not isinstance(o, PoleDifferential):
            return False
        if (self.g, self.n, self.den, len(self.orbits)) != (o.g, o.n, o.den, len(o.orbits)):
            return False
        if self.points is o.points:
            return self.orbits == o.orbits
        # over different tables: o's slot id of each point of self (-1 for
        # none), each relabelled key sorted again in o's id order
        ids = {p: i for i, p in enumerate(o.points)}
        to_o = [ids.get(p, -1) for p in self.points]
        return all(o.orbits.get(tuple(sorted([(to_o[a], k) for a, k in key]))) == v for key, v in self.orbits.items())

    def pole_points(self) -> set:
        return {self.points[a] for a in {a for key in self.orbits for a, _k in key}}

    def min_order(self) -> int:
        return min((k for key in self.orbits for _a, k in key), default=_BIG)

    def as_ratfun(self) -> RatFun:
        """n = 1 only: the function f with omega = f dz."""
        if self.n != 1:
            raise ValueError("as_ratfun needs n = 1")
        out = RatFun.const(0)
        for ((p, k),), v in self.by_point().items():
            out = out + RatFun.const(v) / (RatFun.var() - p) ** k
        return out


def orbit_size(key: tuple) -> int:
    """The number of distinct permutations of the sorted tuple key."""
    out = factorial(len(key))
    for _e, same in groupby(key):
        out //= factorial(len(list(same)))
    return out


def takeouts(key: tuple) -> list:
    """(e, key without e) for each distinct slot e of the sorted tuple key."""
    return [(e, key[:i] + key[i + 1:]) for i, e in enumerate(key) if i == 0 or e != key[i - 1]]


def _permutations(key: tuple, memo: dict | None = None) -> list:
    """The distinct permutations of the sorted tuple key; `memo` keeps those
    of the sub-multisets met on the way, across calls that share it."""
    if len(set(key)) == len(key):
        return list(permutations(key))
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = [(e,) + p for e, rest in takeouts(key) for p in _permutations(rest, memo)]
    return memo[key]


def _reduced(g: int, n: int, orbits: dict, den: int, points: list) -> PoleDifferential:
    """The omega of orbits, integer numerators over den > 0, with the zero
    terms dropped and the common factor taken out."""
    orbits = {k: v for k, v in orbits.items() if v}
    common = gcd(den, *orbits.values())
    if common > 1:
        den //= common
        orbits = {k: v // common for k, v in orbits.items()}
    return PoleDifferential(g, n, orbits, den, points)


def _from_fractions(g: int, n: int, orbits: dict, points: list) -> PoleDifferential:
    """The omega of orbits, keyed by slot ids with Fraction coefficients."""
    den = lcm(*(v.denominator for v in orbits.values()))
    return _reduced(g, n, {k: v.numerator * (den // v.denominator) for k, v in orbits.items()}, den, points)


def _fold(g: int, n: int, terms: dict, points: list) -> dict:
    """The orbits of the ordered terms {key of slot ids: coefficient} of
    omega_{g,n}, a zero counting as an absent term; raises unless every
    distinct permutation of a key is there, with one coefficient."""
    orbits = {tuple(sorted(key)): v for key, v in terms.items() if v}
    for orbit, v in orbits.items():
        for key in _permutations(orbit):
            if terms.get(key, 0) != v:
                what = "has unequal coefficients on" if terms.get(key) else "lacks a permutation of"
                slots = ", ".join(f"({points[a]}, {k})" for a, k in orbit)
                raise RecursionError_(f"omega_({g},{n}) {what} the slots ({slots})")
    return orbits


@dataclass
class OmegaStore:
    curve: SpectralCurve
    omegas: dict = field(default_factory=dict)  # (g, n) -> PoleDifferential
    chi_max: int = 0
    # the point table and residue tables of the run that made the store
    run: _Run | None = field(default=None, repr=False, compare=False)

    def get(self, g: int, n: int) -> PoleDifferential:
        try:
            return self.omegas[(g, n)]
        except KeyError:
            raise RecursionError_(f"omega_({g},{n}) not computed") from None

    def to_json(self) -> str:
        """The text of json.dumps(payload, indent=1, sort_keys=True), written
        directly (an indent turns the C encoder off): payload is {"chi_max",
        "curve", "omegas": {"g,n": sorted terms}} and a term
        [[[str(point), k], ...], str(coefficient)], one per distinct
        permutation of an orbit.

        Each distinct slot (point id, k) of an omega gets one rank, in the
        order of its (point text, k), and its text once; the permutations of
        the orbits' ranks sort as tuples, which orders the terms as the lists
        of (point text, k) would, since the texts of a table are distinct."""
        blocks, memo = [], {}
        # sort_keys orders the labels as strings: "0,10" before "0,3"
        for label, pd in sorted(((f"{g},{n}", pd) for (g, n), pd in self.omegas.items()), key=itemgetter(0)):
            text = [str(p) for p in pd.points]
            order = sorted(set().union(*pd.orbits), key=lambda e: (text[e[0]], e[1]))
            rank = {e: r for r, e in enumerate(order)}
            slots = [f"     [\n      {_quote(text[a])},\n      {k!r}\n     ]" for a, k in order]
            coeffs = [_quote(_ratio_text(v, pd.den)) for v in pd.orbits.values()]
            orbits = [tuple(sorted(map(rank.get, orbit))) for orbit in pd.orbits]
            ranked = sorted((key, i) for i, orbit in enumerate(orbits) for key in _permutations(orbit, memo))
            lines = []
            for key, i in ranked:
                inner = "[\n" + ",\n".join([slots[r] for r in key]) + "\n    ]" if key else "[]"
                lines.append(f"   [\n    {inner},\n    {coeffs[i]}\n   ]")
            body = "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"
            blocks.append(f"  {_quote(label)}: {body}")
        omegas = "{\n" + ",\n".join(blocks) + "\n }" if blocks else "{}"
        return (
            f'{{\n "chi_max": {json.dumps(self.chi_max)},\n "curve": {json.dumps(self.curve.hash_key())},\n'
            f' "omegas": {omegas}\n}}'
        )

    @staticmethod
    def from_json(curve: SpectralCurve, text: str) -> "OmegaStore":
        """The store of `to_json`'s text, over one table of the points it
        meets, each omega's terms folded to its orbits."""
        payload = json.loads(text)
        if payload["curve"] != curve.hash_key():
            raise RecursionError_("cache belongs to a different curve")
        store = OmegaStore(curve, chi_max=payload["chi_max"])
        points: list = []
        ids: dict = {}  # text -> slot id: a store has few distinct points
        for label, terms in payload["omegas"].items():
            g, n = (int(v) for v in label.split(","))
            coeffs = {}
            for key, coeff in terms:
                for p, _k in key:
                    if p not in ids:
                        point = Fraction(p)
                        if point not in points:
                            points.append(point)
                        ids[p] = points.index(point)
                coeffs[tuple([(ids[p], k) for p, k in key])] = Fraction(coeff)
            store.omegas[(g, n)] = _from_fractions(g, n, _fold(g, n, coeffs, points), points)
        return store


def _ratio_text(v: int, den: int) -> str:
    """str(Fraction(v, den)), without the Fraction."""
    common = gcd(v, den)
    return f"{v // common}/{den // common}" if common != den else str(v // common)


# ---------------------------------------------------------------------------
# residue tables


def _pole_bound(g: int, n: int) -> int:
    """Proven pole order of omega_{g,n} at a simple ramification point."""
    return 6 * g - 4 + 2 * n


def _window(chi_max: int) -> int:
    """Largest total pole order at p of a slot pair (one slot at t, one at
    sigma(t)) that a step with 2g-2+n <= chi_max meets: twice the bound of
    omega_{g-1,n+1} at the top genus g, or 2 for omega_{0,2}(t, sigma(t)).
    The second summand's pairs stay below b(g,n) - 2."""
    g = (chi_max + 1) // 2
    return max(2, 2 * _pole_bound(g - 1, chi_max + 3 - 2 * g))


def _y_diff_series(curve: SpectralCurve, p: Fraction, sigma: LocalSeries, order: int) -> LocalSeries:
    """y(p+t) - y(p+sigma(t)) as an exact Laurent series."""
    ys = series_at(curve.y.rat, p, order)
    out = ys - ys.compose(sigma)
    for c, arg in curve.y.logs:
        a0 = P.evaluate(arg, p)
        if a0 == 0:
            raise RecursionError_(f"log singularity of y at ramification point {p}")
        aser = series_at(RatFun.make(arg), p, order)
        # log(A(t)) - log(A(sigma)) = log(A(t)/A(sigma))
        ratio = (aser * aser.compose(sigma).invert()) - LocalSeries.make(p, {0: 1}, order)
        out = out + ratio.log1p().scale(c)
    return out


class _Branch:
    """Residue tables at one simple ramification point p, for one run.

    A slot (a, k) is dz/(z-a)^k, with a the slot id of the point points[a];
    the virtual slot (id of p, -m) of omega_{0,2} is (z-p)^m dz.
    entry(e1, e2) is (den, ((m, r_m), ...)): the residues
    Res_t E_m D s_e1(t) s_e2(sigma t) sigma'(t) = r_m / den, with
    E_m = (t^m - sigma^m)/2 and the kernel D = 1/((y(t) - y(sigma t)) x'(t));
    the output slot is (id of p, m+1).

    The tables are integer.  Every series they are built from (sigma and
    sigma', the kernels E_m D, the powers of the base of a slot at sigma(t),
    each slot at sigma(t) times sigma') is a pair (den, Series of int
    numerators), with the common content taken out after each product.  The
    kernels are over one denominator `kden` and stored by column: column j
    holds (m, [t^j] E_m D) for the m where it is nonzero.  A residue then
    walks the nonzero coefficients of the slot series and the one column
    each meets; for Airy, sigma(t) = -t, so a slot at sigma is a monomial.
    Every entry is over one denominator, `den`, for the branch: the lcm of
    the least denominators of the entries built so far.  When an entry needs
    more, `den` grows, and a stored entry is scaled to it when it is next
    read; an entry already handed out keeps the den it came with.
    """

    def __init__(self, curve: SpectralCurve, ram: RamPoint, window: int, points: list):
        p = self.p = ram.location
        self.points = points  # slot id -> point, shared with the run
        pid = self.id = points.index(p)
        self.order = order = window + 3  # D is exact to t^(order-3), E_m D must reach t^(window-1)
        self.sigma = sigma = galois_series(curve, ram, order)
        sig = _over_one_den(sigma)
        self.sig_d = _over_one_den(sigma.derivative())
        D = _over_one_den((_y_diff_series(curve, p, sigma, order) * series_at(curve.dx, p, order)).invert())
        # E_m D for every m a slot pair within the window can reach
        kernel = []
        pw = _ONE
        for m in range(1, window + 2):
            pw = _product(pw, sig, window + 1)
            em = Series({m: pw[0]}, window + 1) - pw[1]  # (t^m - sigma^m) over pw[0]
            kernel.append(_product((2 * pw[0], em), D))
        self.kden = lcm(*(d for d, _ker in kernel))
        self.columns: dict = {}
        for m, (d, ker) in enumerate(kernel, 1):
            for j, v in ker.coeffs.items():
                self.columns.setdefault(j, []).append((m, v * (self.kden // d)))
        self.ktrunc = min(ker.trunc for _d, ker in kernel)  # every E_m D is exact to t^ktrunc
        self.low = min(ker.order() for _d, ker in kernel)  # the kernel starts at t^low
        # omega_{0,2}(z, p+t) = sum_m (m+1) dz/(z-p)^{m+2} t^m dt as a split factor
        # (`_Run.split`): the slot (p, -m) at t leaves (p, m+2); a partner slot of
        # pole order k at p pairs with t^m only for m <= k <= window
        self.bergman = (
            1, {(pid, -m): [(m, m + 1)] for m in range(window + 1)}, [((pid, m + 2),) for m in range(window + 1)],
        )
        # the output slot (p, m+1) of each m, shared by every output key
        self.heads = [((pid, m + 1),) for m in range(window + 2)]
        # omega_{0,2}(p+t, p+sigma(t)) = sigma'(t) dt^2 / (t - sigma(t))^2, over its own denominator
        diagonal = (LocalSeries.make(p, {1: 1}, order) - sigma).pow(-2) * sigma.derivative()
        self.diagonal = self._residues(0, _over_one_den(diagonal))
        self.den = 1
        self.powers: dict = {}   # (a, k > 0) -> [1, b, b^2, ...] for the base b of slots at sigma(t)
        self.at_sigma: dict = {}  # slot -> its series at sigma(t), times sigma'
        self.entries: dict = {}  # (e1, e2) -> (den, ((m, numerator), ...))

    def entry(self, e1: tuple, e2: tuple) -> tuple:
        got = self.entries.get((e1, e2))
        if got is None or got[0] != self.den:
            if got is None:
                got = self._entry(e1, e2)
                self.den = lcm(self.den, got[0])
            # over the branch's denominator, which only grows
            scale = self.den // got[0]
            got = self.den, tuple([(m, r * scale) for m, r in got[1]])
            # t <-> sigma(t) maps the residue of (e1, e2) to that of (e2, e1)
            self.entries[(e1, e2)] = self.entries[(e2, e1)] = got
        return got

    def _entry(self, e1: tuple, e2: tuple) -> tuple:
        """The residues of the slot pair over their least denominator."""
        a, k = e1
        s2 = self._slot_at_sigma(e2)
        if a == self.id:
            return self._residues(-k, s2)
        # a residue reads s1 s2 up to t^(-1-low) only
        top = -1 - self.low
        d2, s2 = s2[0], s2[1].truncate(top)
        if s2.is_zero():
            return 1, ()
        # 1/(t + c)^k = sum_j (-1)^j C(k+j-1, j) t^j / c^(k+j), over qd^(k+n) with 1/c = qn/qd
        q, n = 1 / (self.p - self.points[a]), top - s2.order()
        qn, qd = q.numerator, q.denominator
        s1 = Series({j: (-1) ** j * comb(k + j - 1, j) * qn ** (k + j) * qd ** (n - j) for j in range(n + 1)}, n)
        return self._residues(0, _product((qd ** (k + n), s1), (d2, s2)))

    def _slot_at_sigma(self, e: tuple) -> tuple:
        got = self.at_sigma.get(e)
        if got is None:
            a, k = e
            pows = self.powers.get((a, k > 0))
            if pows is None:
                if a != self.id:
                    base = (LocalSeries.make(self.p, {0: self.p - self.points[a]}, _BIG) + self.sigma).invert()
                else:
                    base = self.sigma.invert() if k > 0 else self.sigma
                pows = self.powers[(a, k > 0)] = [_ONE, _over_one_den(base)]
            while len(pows) <= abs(k):
                pows.append(_product(pows[-1], pows[1], self.order))
            got = self.at_sigma[e] = _product(pows[abs(k)], self.sig_d)
        return got

    def _residues(self, s: int, f: tuple) -> tuple:
        """The residues Res_t E_m D t^s f over the m where one is nonzero, as
        (den, ((m, numerator), ...)) with den the least denominator; f is
        (den, Series of int numerators)."""
        den, f = f
        if f.is_zero():
            return 1, ()
        hi = -1 - s - f.order()  # the residue reads E_m D up to t^hi
        if self.ktrunc < hi:
            raise RecursionError_(f"kernel at {self.p} known to t^{self.ktrunc}, t^{hi} needed")
        if f.trunc < -1 - s - self.low:
            raise RecursionError_(f"slot series at {self.p} known to t^{f.trunc}, t^{-1 - s - self.low} needed")
        # one product per nonzero coefficient of f and of the kernel column it meets
        acc = [0] * len(self.heads)  # by m, as heads
        columns = self.columns
        for i, c in f.coeffs.items():
            for m, v in columns.get(-1 - s - i, ()):
                acc[m] += c * v
        den *= self.kden
        common = gcd(den, *acc)
        return den // common, tuple([(m, r // common) for m, r in enumerate(acc) if r])


_ONE = 1, Series({0: 1}, _BIG)


def _over_one_den(s: LocalSeries) -> tuple:
    """(den, Series of int numerators over den), den the least common
    denominator of the coefficients."""
    den = lcm(*(v.denominator for v in s.coeffs.values()))
    return den, Series({k: v.numerator * (den // v.denominator) for k, v in s.coeffs.items()}, s.trunc)


def _product(f: tuple, g: tuple, top: int = _BIG) -> tuple:
    """f g truncated at t^top, integer numerators over one denominator with
    the common content taken out."""
    (df, f), (dg, g) = f, g
    out = (f * g).truncate(top)
    common = gcd(df * dg, *out.coeffs.values())
    if common == 1:
        return df * dg, out
    return df * dg // common, Series({k: v // common for k, v in out.coeffs.items()}, out.trunc)


class _Run:
    """The point table of a run's omegas, with every ramification and vital
    point in it, the residue tables of each ramification point, and the
    omegas read as factors, split by one slot."""

    def __init__(self, curve: SpectralCurve, rams: list, vital_pts: list, window: int, points: list):
        points += [p for p in [r.location for r in rams] + vital_pts if p not in points]
        self.curve, self.window, self.points = curve, window, points
        self.branches = [_Branch(curve, r, window, points) for r in rams]
        self.splits: dict = {}  # (g, n) -> (omega, its split)

    def split(self, omegas: dict, g: int, n: int) -> tuple:
        """(den, slots, rests) of omega_{g,n}: `rests` lists the distinct
        orbits less one slot, and `slots` maps that slot to [(index in
        rests, numerator)], one item per orbit holding it.  Kept while
        `omegas` holds the same omega_{g,n}."""
        pd = omegas[(g, n)]
        got = self.splits.get((g, n))
        if got is None or got[0] is not pd:
            index, slots = {}, {}
            for key, v in pd.orbits.items():
                for e, rest in takeouts(key):
                    slots.setdefault(e, []).append((index.setdefault(rest, len(index)), v))
            got = self.splits[(g, n)] = pd, (pd.den, slots, list(index))
        return got[1]


def _store_run(curve: SpectralCurve, store: OmegaStore, chi: int) -> _Run:
    """The run that made the store when it is of this curve, over the point
    table of the store's omegas and with tables that reach a step at chi;
    else a new run over that table."""
    tables = {id(pd.points): pd.points for pd in store.omegas.values() if pd.orbits}
    if len(tables) > 1:
        raise RecursionError_("the store's omegas are over different point tables")
    run = store.run
    if run and run.curve is curve and run.window >= _window(chi) and all(t is run.points for t in tables.values()):
        return run
    return _Run(curve, find_ramification(curve), [], _window(chi), next(iter(tables.values()), []))


# ---------------------------------------------------------------------------
# the recursion step


def tr_step(curve: SpectralCurve, store: OmegaStore, g: int, n: int) -> PoleDifferential:
    """omega_{g,n} from the residue formula (no logarithmic correction),
    over the point table of the store's omegas."""
    if 2 * g + n - 2 < 1:
        raise ValueError("tr_step only computes stable differentials")
    return _step(_store_run(curve, store, 2 * g - 2 + n), store.omegas, g, n, True)


def _step(run: _Run, omegas: dict, g: int, n: int, lead: bool) -> PoleDifferential:
    acc: dict = {}
    for br in run.branches:
        _tr_step_at(run, omegas, g, n, br, acc, lead)
    # one denominator for the step, then the common factor taken out
    den = lcm(*acc)
    orbits: dict = {}
    for d, part in acc.items():
        scale = den // d
        for key, v in part.items():
            orbits[key] = orbits.get(key, 0) + v * scale
    return _reduced(g, n, orbits, den, run.points)


def _tr_step_at(run: _Run, omegas: dict, g: int, n: int, br: _Branch, acc: dict, lead: bool) -> None:
    """Add the residues at br to acc, a dict den -> {orbit: numerator};
    integer arithmetic only.  An output orbit is the head (id of p, m+1)
    and sorted spectators, the head first (lead) or last."""
    heads, pid = br.heads, br.id

    # first summand: omega_{g-1,n+1}(t, sigma(t), I)
    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            den, residues = br.diagonal
            out = acc.setdefault(den, {})
            for m, r in residues:
                out[heads[m]] = out.get(heads[m], 0) + r
        else:
            d1, slots, rests = run.split(omegas, g - 1, n + 1)
            # for each orbit less its slot a at t: each distinct slot b at sigma(t), the rest placed by _merge
            pairs = [[(b,) + got for b, spect in takeouts(rest) if (got := _merge(spect, (), pid, lead, 1))]
                     for rest in rests]
            for a, group in slots.items():
                for j, v in group:
                    for b, spect, lo, hi, _one in pairs[j]:
                        den, residues = br.entry(a, b)
                        if residues:
                            out = acc.setdefault(d1 * den, {})
                            for m, r in residues:
                                if lo <= m <= hi:
                                    k = heads[m] + spect if lead else spect + heads[m]
                                    out[k] = out.get(k, 0) + v * r

    # second summand: omega_{g1,n1}(t, I1) omega_{g2,n2}(sigma(t), I2)
    for g1 in range(g + 1):
        for n1 in range(1, n + 1):
            g2, n2 = g - g1, n + 1 - n1
            f1 = (g1, n1) <= (g2, n2) and _factor(run, omegas, br, g1, n1)
            f2 = f1 and _factor(run, omegas, br, g2, n2)
            if not f2:
                continue
            twice = 1 if (g1, n1) == (g2, n2) else 2
            (d1, slots1, rests1), (d2, slots2, rests2) = f1, f2
            width, groups2 = len(rests2), list(slots2.items())
            merged: dict = {}  # j1 * width + j2 -> _merge of rests1[j1], rests2[j2]
            for e1, group1 in slots1.items():
                for e2, group2 in groups2:
                    den, residues = br.entry(e1, e2)
                    if not residues:
                        continue
                    out = acc.setdefault(d1 * d2 * den, {})
                    for j1, v1 in group1:
                        for j2, v2 in group2:
                            got = merged.get(j1 * width + j2)
                            if got is None:
                                got = merged[j1 * width + j2] = _merge(rests1[j1], rests2[j2], pid, lead, twice)
                            if not got:
                                continue
                            spect, lo, hi, w = got
                            c = w * v1 * v2
                            for m, r in residues:
                                if lo <= m <= hi:
                                    k = heads[m] + spect if lead else spect + heads[m]
                                    out[k] = out.get(k, 0) + c * r


def _merge(r1: tuple, r2: tuple, pid: int, lead: bool, weight: int) -> tuple:
    """(R, lo, hi, weight times the labelled splittings of R into r1, r2)
    for the sorted spectators R = r1 + r2: the head (pid, m+1) is the
    smallest slot of the orbit (lead), or its largest, for lo <= m <= hi;
    () for no m."""
    spect, lo, hi = tuple(sorted(r1 + r2)), 0, _BIG
    if spect:
        a, k = spect[0] if lead else spect[-1]
        if a == pid:
            lo, hi = (0, k - 1) if lead else (k - 1, _BIG)
        elif (a > pid) != lead:
            return ()
    for s in set(r1).intersection(r2):
        weight *= comb(r1.count(s) + r2.count(s), r1.count(s))
    return spect, lo, hi, weight


def _factor(run: _Run, omegas: dict, br: _Branch, gi: int, ni: int) -> tuple | None:
    """The split of omega_{gi,ni} (`_Run.split`); None when unstable and absent."""
    if (gi, ni) == (0, 2):
        return br.bergman
    return run.split(omegas, gi, ni) if 2 * gi + ni - 2 >= 1 else None


# ---------------------------------------------------------------------------
# logarithmic correction


def s_inverse_coeff(g: int) -> Fraction:
    """[t^{2g}] of 1/S(t) with S(t) = sum t^{2k} / (4^k (2k+1)!)."""
    s = {2 * k: Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(g + 1)}
    return LocalSeries.make(0, s, 2 * g).invert().coeff(2 * g)


def logtr_term(curve: SpectralCurve, g: int, vital=None, points: list | None = None) -> PoleDifferential:
    """Principal-part correction to omega_{g,1} at the vital points of dy,
    over the point table `points`, which holds them (a new one by default)."""
    if g < 1:
        raise ValueError("the logarithmic correction starts at genus 1")
    if vital is None:
        vital = find_logvital(curve)
    points = [a for a, _alpha in vital] if points is None else points
    terms = {}
    cg = s_inverse_coeff(g)
    xp = curve.dx
    for a, alpha in vital:
        # d_x^{2g} log(z - a), each d_x = (1/x') d/dz
        f = (RatFun.const(1) / (RatFun.var() - a)) / xp
        for _ in range(2 * g - 1):
            f = f.derivative() / xp
        u = f * xp * cg * alpha ** (2 * g - 1)
        slot = points.index(a)
        for k, v in series_at(u, a, -1).principal_part().items():
            terms[((slot, -k),)] = v
    out = _from_fractions(g, 1, terms, points)
    if out.min_order() < 2:
        raise RecursionError_("logarithmic correction produced a first-order pole")
    return out


# ---------------------------------------------------------------------------
# the schedule


def run_tr(curve: SpectralCurve, chi_max: int) -> OmegaStore:
    """All stable omegas with 2g+n-2 <= chi_max, with invariant checks."""
    store = OmegaStore(curve, chi_max=chi_max)
    # the stable (g, n) by chi, then g
    steps = [(g, chi + 2 - 2 * g) for chi in range(1, chi_max + 1) for g in range(chi // 2 + 2) if chi + 2 >= 2 * g + 1]
    if curve.gen_tr and curve.special_set == ():
        # empty special set: every stable differential vanishes
        points: list = []
        store.omegas = {(g, n): PoleDifferential(g, n, points=points) for g, n in steps}
        return store
    if curve.gen_tr:
        raise RecursionError_(
            "general special-point sets are unsupported; only the empty set "
            "or the classical choice (ramification plus vital points)"
        )
    rams = find_ramification(curve)
    for r in rams:
        if r.order != 1:
            raise RecursionError_(
                f"ramification of order {r.order + 1} at {r.location} is unsupported"
            )
    vital = find_logvital(curve)
    vital_pts = [a for a, _ in vital]
    if set(vital_pts) & {r.location for r in rams}:
        raise RecursionError_("vital point coincides with a ramification point")
    run = store.run = _Run(curve, rams, vital_pts, _window(chi_max), [])
    ram_ids = set(range(len(rams)))
    vital_ids = set(range(len(rams), len(run.points)))
    for g, n in steps:
        pd = tr_step(curve, store, g, n)
        if n == 1 and g >= 1 and vital:
            pd = pd + logtr_term(curve, g, vital, run.points)
        _check_invariants(pd, ram_ids, vital_ids)
        store.omegas[(g, n)] = pd
    return store


def _check_invariants(pd: PoleDifferential, ram_ids: set, vital_ids: set) -> None:
    slots = {e for key in pd.orbits for e in key}  # the distinct (id, k)
    if min((k for _a, k in slots), default=_BIG) < 2:
        raise RecursionError_(f"omega_({pd.g},{pd.n}) has a residue term")
    allowed = ram_ids | (vital_ids if pd.n == 1 else set())
    bad = {a for a, _k in slots} - allowed
    if bad:
        raise RecursionError_(
            f"omega_({pd.g},{pd.n}) has poles outside {sorted(pd.points[a] for a in allowed)}: "
            f"{sorted(pd.points[a] for a in bad)}"
        )
    bound = _pole_bound(pd.g, pd.n)
    if any(k > bound for a, k in slots if a in ram_ids):
        raise RecursionError_(f"omega_({pd.g},{pd.n}) has a pole of order above {bound}")


def symmetry_witness(store: OmegaStore) -> list:
    """The (g, n), n >= 2, whose stored omega differs from the residue
    formula over the stored omegas with each orbit's largest slot as head,
    with the residue tables of the run that made the store when it has
    them.  A run takes the smallest; as the omegas of TR are symmetric, the
    two agree unless the step or an omega it read is at fault.  An
    omega_{g,1} has one slot, and the empty special set of Gen-TR no
    residue formula: neither is witnessed."""
    todo = sorted(k for k in store.omegas if k[1] >= 2)
    if store.curve.gen_tr or not todo:
        return []
    run = _store_run(store.curve, store, max(2 * g - 2 + n for g, n in todo))
    return [(g, n) for g, n in todo if _step(run, store.omegas, g, n, False) != store.omegas[(g, n)]]
