"""Topological recursion over the pole basis, as a contraction against
residue tables.

Stable differentials are stored as exact sums of products
prod_i dz_i/(z_i - p_i)^{k_i} with k_i >= 2.  At a simple ramification
point p, with local coordinate t = z - p and deck transformation sigma, the
residue formula of Eynard-Orantin (arXiv:math-ph/0702045) pairs one slot
at t with one at sigma(t).  The residue of such a pair against the
recursion kernel depends only on the two slots, so it is computed when a
pair first occurs and kept, per run and ramification point, in a table
(`_Branch`).  A step then only multiplies stored coefficients with table
entries: the A/B/C/D form of topological recursion
(Andersen-Borot-Chekhov-Orantin, arXiv:1703.03307).  omega_{0,2} enters
the second summand as a virtual differential over the slots (p, m+2), and
the first as one table entry for its value at (t, sigma(t)).

An omega (`PoleDifferential`) is integer numerators over one denominator,
keyed by slot ids: a pole point is a small int, its index in a point table
that every omega of a run shares (the ramification points first, then the
vital points).  A step reads that form, the store keeps it and `to_json`
writes it, so no step builds or hashes a Fraction.  The residue tables
are integer too, over one denominator per branch point (`_Branch`).  A
step adds products into buckets keyed by their denominator, one per pair
of omega denominators and branch point; in the second summand the terms of
both factors are grouped by their last slot, so an entry is looked up once
per pair of last slots.  `tr_step` then brings the buckets over one
denominator and divides out the common factor.  Fractions remain where a
table starts (sigma from `galois_series`, the kernel D, the base of a slot
at sigma(t), each converted once), in the logarithmic correction, and in
`PoleDifferential.by_point`, the view keyed by (point, k) that tests and
`as_ratfun` read.

omega_{g,n} has poles of order at most 6g-4+2n at a simple ramification
point (Eynard-Orantin).  The series windows of a run follow from this
bound, every computed omega is checked against it, and a residue that
would read past a known window raises.  Every omega is also checked to be
symmetric, in one pass: the terms are grouped by their sorted key, and a
group must hold every distinct permutation of it with one coefficient.
The logarithmic correction adds principal parts at the vital points of dy
to every omega_{g,1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from math import comb, factorial, gcd, lcm, prod
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
    """One omega_{g,n} in the pole basis: the sum over `terms` of
    v/den prod_i dz_i/(z_i - points[a_i])^k_i, with a term's key the slots
    ((a_1, k_1), ..., (a_n, k_n)) and v its integer numerator.  den > 0 and
    gcd(den, every v) = 1, so the form is unique for a given table.
    `points` maps a slot id to its point; the omegas of a run or a loaded
    store share one table, which is only ever appended to."""

    g: int
    n: int
    terms: dict = field(default_factory=dict)  # ((slot id, order), ...) -> int
    den: int = 1
    points: list = field(default_factory=list)

    def is_zero(self) -> bool:
        return not self.terms

    def by_point(self) -> dict:
        """The terms keyed by ((point, k), ...), with Fraction coefficients."""
        return {tuple([(self.points[a], k) for a, k in key]): Fraction(v, self.den) for key, v in self.terms.items()}

    def scale(self, c) -> "PoleDifferential":
        c = Fraction(c)
        terms = {k: v * c.numerator for k, v in self.terms.items()}
        return _reduced(self.g, self.n, terms, self.den * c.denominator, self.points)

    def __add__(self, o: "PoleDifferential") -> "PoleDifferential":
        if o.terms and o.points is not self.points:
            raise ValueError("omegas over different point tables")
        den = lcm(self.den, o.den)
        terms = {k: v * (den // self.den) for k, v in self.terms.items()}
        for k, v in o.terms.items():
            terms[k] = terms.get(k, 0) + v * (den // o.den)
        return _reduced(self.g, self.n, terms, den, self.points)

    def __eq__(self, o) -> bool:
        if not isinstance(o, PoleDifferential):
            return False
        if (self.g, self.n, self.den, len(self.terms)) != (o.g, o.n, o.den, len(o.terms)):
            return False
        if self.points is o.points:
            return self.terms == o.terms
        # over different tables: o's slot id of each point of self
        ids = {p: i for i, p in enumerate(o.points)}
        to_o = [ids.get(p) for p in self.points]
        return all(o.terms.get(tuple([(to_o[a], k) for a, k in key])) == v for key, v in self.terms.items())

    def is_symmetric(self) -> bool:
        """Invariance under every transposition of slots: the terms with one
        sorted key hold all its distinct permutations, with one coefficient.
        A zero coefficient counts as an absent term."""
        groups: dict = {}  # sorted key -> [coefficient, terms seen]
        for key, v in self.terms.items():
            if not v:
                continue
            s = tuple(sorted(key))
            got = groups.get(s)
            if got is None:
                groups[s] = [v, 1]
            elif got[0] != v:
                return False
            else:
                got[1] += 1
        return all(
            seen == factorial(len(s)) // prod(factorial(len(list(same))) for _e, same in groupby(s))
            for s, (_v, seen) in groups.items()
        )

    def pole_points(self) -> set:
        return {self.points[a] for a in {a for key in self.terms for a, _k in key}}

    def min_order(self) -> int:
        return min((k for key in self.terms for _a, k in key), default=_BIG)

    def as_ratfun(self) -> RatFun:
        """n = 1 only: the function f with omega = f dz."""
        if self.n != 1:
            raise ValueError("as_ratfun needs n = 1")
        out = RatFun.const(0)
        for ((p, k),), v in self.by_point().items():
            out = out + RatFun.const(v) / (RatFun.var() - p) ** k
        return out


def _reduced(g: int, n: int, terms: dict, den: int, points: list) -> PoleDifferential:
    """The omega of terms, integer numerators over den > 0, with the zero
    terms dropped and the common factor taken out."""
    terms = {k: v for k, v in terms.items() if v}
    common = gcd(den, *terms.values())
    if common > 1:
        den //= common
        terms = {k: v // common for k, v in terms.items()}
    return PoleDifferential(g, n, terms, den, points)


def _from_fractions(g: int, n: int, terms: dict, points: list) -> PoleDifferential:
    """The omega of terms, keyed by slot ids with Fraction coefficients."""
    den = lcm(*(v.denominator for v in terms.values()))
    return _reduced(g, n, {k: v.numerator * (den // v.denominator) for k, v in terms.items()}, den, points)


@dataclass
class OmegaStore:
    curve: SpectralCurve
    omegas: dict = field(default_factory=dict)  # (g, n) -> PoleDifferential
    chi_max: int = 0
    # the point table and residue tables while run_tr runs
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
        [[[str(point), k], ...], str(coefficient)].

        Each distinct slot (point id, k) of an omega gets one rank, in the
        order of its (point text, k), and its text once; the terms sort by
        their tuples of slot ranks, which orders them as the lists of
        (point text, k) would, since the texts of a table are distinct."""
        blocks = []
        # sort_keys orders the labels as strings: "0,10" before "0,3"
        for label, pd in sorted(((f"{g},{n}", pd) for (g, n), pd in self.omegas.items()), key=itemgetter(0)):
            text, den, terms = [str(p) for p in pd.points], pd.den, pd.terms
            order = sorted(set().union(*terms), key=lambda e: (text[e[0]], e[1]))
            rank = {e: r for r, e in enumerate(order)}
            slots = {e: f"     [\n      {_quote(text[e[0]])},\n      {e[1]!r}\n     ]" for e in order}
            lines = []
            for key in sorted(terms, key=lambda key: tuple(map(rank.__getitem__, key))):
                inner = "[\n" + ",\n".join([slots[e] for e in key]) + "\n    ]" if key else "[]"
                lines.append(f"   [\n    {inner},\n    {_quote(_ratio_text(terms[key], den))}\n   ]")
            body = "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"
            blocks.append(f"  {_quote(label)}: {body}")
        omegas = "{\n" + ",\n".join(blocks) + "\n }" if blocks else "{}"
        return (
            f'{{\n "chi_max": {json.dumps(self.chi_max)},\n "curve": {json.dumps(self.curve.hash_key())},\n'
            f' "omegas": {omegas}\n}}'
        )

    @staticmethod
    def from_json(curve: SpectralCurve, text: str) -> "OmegaStore":
        """The store of `to_json`'s text, over one table of the points it meets."""
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
            store.omegas[(g, n)] = _from_fractions(g, n, coeffs, points)
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
        # omega_{0,2}(z, p+t) = sum_m (m+1) dz/(z-p)^{m+2} t^m dt; a partner slot of
        # pole order k at p pairs with t^m only for m <= k <= window
        self.bergman = {((pid, m + 2), (pid, -m)): m + 1 for m in range(window + 1)}
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
    point in it, and the residue tables of each ramification point."""

    def __init__(self, curve: SpectralCurve, rams: list, vital_pts: list, window: int, points: list):
        points += [p for p in [r.location for r in rams] + vital_pts if p not in points]
        self.points = points
        self.branches = [_Branch(curve, r, window, points) for r in rams]


# ---------------------------------------------------------------------------
# the recursion step


def tr_step(curve: SpectralCurve, store: OmegaStore, g: int, n: int) -> PoleDifferential:
    """omega_{g,n} from the residue formula (no logarithmic correction),
    over the point table of the store's omegas."""
    if 2 * g + n - 2 < 1:
        raise ValueError("tr_step only computes stable differentials")
    run = store.run
    if run is None:
        tables = {id(pd.points): pd.points for pd in store.omegas.values() if pd.terms}
        if len(tables) > 1:
            raise RecursionError_("the store's omegas are over different point tables")
        run = _Run(curve, find_ramification(curve), [], _window(2 * g - 2 + n), next(iter(tables.values()), []))
    acc: dict = {}
    for br in run.branches:
        _tr_step_at(store.omegas, g, n, br, acc)
    # one denominator for the step, then the common factor taken out
    den = lcm(*acc)
    terms: dict = {}
    for d, part in acc.items():
        scale = den // d
        for key, v in part.items():
            terms[key] = terms.get(key, 0) + v * scale
    return _reduced(g, n, terms, den, run.points)


def _tr_step_at(omegas: dict, g: int, n: int, br: _Branch, acc: dict) -> None:
    """Add the residues at br to acc, a dict den -> {output key: numerator};
    integer arithmetic only."""
    heads = br.heads

    # first summand: omega_{g-1,n+1}(t, sigma(t), I)
    if g >= 1:
        if (g - 1, n + 1) == (0, 2):
            den, residues = br.diagonal
            out = acc.setdefault(den, {})
            for m, r in residues:
                out[heads[m]] = out.get(heads[m], 0) + r
        else:
            pd = omegas[(g - 1, n + 1)]
            for key, v in pd.terms.items():
                den, residues = br.entry(key[0], key[1])
                if residues:
                    out, rest = acc.setdefault(pd.den * den, {}), key[2:]
                    for m, r in residues:
                        k = heads[m] + rest
                        out[k] = out.get(k, 0) + v * r

    # second summand: omega_{g1}(t, I1) omega_{g2}(sigma(t), I2); t <-> sigma(t)
    # swaps the two factors, so each unordered splitting is taken once
    spect = n - 1
    every = (1 << spect) - 1
    for g1 in range(g + 1):
        for mask in range(1 << spect):
            split = (g1, mask), (g - g1, every ^ mask)
            if split[0] > split[1]:
                continue
            n1 = bin(mask).count("1") + 1
            f1 = _factor(omegas, br, g1, n1)
            f2 = f1 and _factor(omegas, br, g - g1, spect + 2 - n1)
            if not f2:
                continue
            where = [i for i in range(spect) if mask >> i & 1] + [i for i in range(spect) if not mask >> i & 1]
            perm = sorted(range(spect), key=where.__getitem__)
            # the spectator slots of key1 then key2, in the order of I
            arrange = None if perm == sorted(perm) else itemgetter(*perm)
            weight = 1 if split[0] == split[1] else 2
            d12 = f1[0] * f2[0]
            # an entry depends only on the two last slots: one lookup per pair of them
            groups2 = list(_by_last_slot(f2[1]).items())
            for e1, group1 in _by_last_slot(f1[1]).items():
                for e2, group2 in groups2:
                    den, residues = br.entry(e1, e2)
                    if not residues:
                        continue
                    out = acc.setdefault(d12 * den, {})
                    for rest1, v1 in group1:
                        c1 = weight * v1
                        for rest2, v2 in group2:
                            c = c1 * v2
                            key = rest1 + rest2 if arrange is None else arrange(rest1 + rest2)
                            for m, r in residues:
                                k = heads[m] + key
                                out[k] = out.get(k, 0) + c * r


def _by_last_slot(terms: dict) -> dict:
    """last slot -> [(the other slots, coefficient), ...]"""
    out: dict = {}
    for key, v in terms.items():
        got = out.get(key[-1])
        if got is None:
            out[key[-1]] = [(key[:-1], v)]
        else:
            got.append((key[:-1], v))
    return out


def _factor(omegas: dict, br: _Branch, gi: int, ni: int) -> tuple | None:
    """(den, terms) of omega_{gi,ni} with the last slot at t or sigma(t),
    integer numerators over den; None when unstable and absent."""
    if (gi, ni) == (0, 2):
        return 1, br.bergman
    if 2 * gi + ni - 2 < 1:
        return None
    pd = omegas[(gi, ni)]
    return pd.den, pd.terms


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
    if curve.gen_tr and curve.special_set == ():
        # empty special set: every stable differential vanishes
        points: list = []
        for chi in range(1, chi_max + 1):
            for g in range(chi // 2 + 2):
                n = chi + 2 - 2 * g
                if n >= 1:
                    store.omegas[(g, n)] = PoleDifferential(g, n, points=points)
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
    for chi in range(1, chi_max + 1):
        for g in range(chi // 2 + 2):
            n = chi + 2 - 2 * g
            if n < 1:
                continue
            pd = tr_step(curve, store, g, n)
            if n == 1 and g >= 1 and vital:
                pd = pd + logtr_term(curve, g, vital, run.points)
            _check_invariants(pd, ram_ids, vital_ids)
            store.omegas[(g, n)] = pd
    store.run = None
    return store


def _check_invariants(pd: PoleDifferential, ram_ids: set, vital_ids: set) -> None:
    slots = {e for key in pd.terms for e in key}  # the distinct (id, k)
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
    if not pd.is_symmetric():
        raise RecursionError_(f"omega_({pd.g},{pd.n}) is not symmetric")
