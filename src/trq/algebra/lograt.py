"""Rational functions with additive logarithmic terms.

A LogRat is  rat(z) + sum_i c_i * log(arg_i(z)) + sum_j d_j * log(k_j)
with rational c_i, d_j, rational-function arguments and rational constants
k_j.  Arguments are normalized to monic polynomials with rational-root
factors split off, so equal functions have equal representations.  The
derivative of a LogRat is always a plain rational function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import poly as P
from .ratfun import RatFun


@dataclass(frozen=True)
class LogRat:
    rat: RatFun
    logs: tuple = ()        # tuple[(Fraction coeff, P.Poly monic arg)]
    const_logs: tuple = ()  # tuple[(Fraction coeff, Fraction constant)]

    @staticmethod
    def make(rat: RatFun, log_terms=()) -> "LogRat":
        """Build from raw (coeff, RatFun argument) log terms."""
        logs: dict = {}
        consts: dict = {}
        for coeff, arg in log_terms:
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if isinstance(arg, (int, Fraction)):
                arg = RatFun.const(arg)
            if arg.is_zero():
                raise ValueError("log of zero")
            _split_log(coeff, arg.num, logs, consts)
            _split_log(-coeff, arg.den, logs, consts)
        lt = tuple((c, p) for p, c in sorted(logs.items()) if c)
        ct = tuple((c, k) for k, c in sorted(consts.items()) if c and k != 1)
        return LogRat(rat, lt, ct)

    @staticmethod
    def from_ratfun(f: RatFun) -> "LogRat":
        return LogRat(f)

    def has_logs(self) -> bool:
        return bool(self.logs) or bool(self.const_logs)

    def __add__(self, o) -> "LogRat":
        o = _coerce(o)
        return LogRat.make(
            self.rat + o.rat,
            [(c, RatFun.make(a)) for c, a in self.logs]
            + [(c, RatFun.make(a)) for c, a in o.logs]
            + [(c, RatFun.const(k)) for c, k in self.const_logs]
            + [(c, RatFun.const(k)) for c, k in o.const_logs],
        )

    def __neg__(self) -> "LogRat":
        return LogRat(
            -self.rat,
            tuple((-c, a) for c, a in self.logs),
            tuple((-c, k) for c, k in self.const_logs),
        )

    def __sub__(self, o) -> "LogRat":
        return self + (-_coerce(o))

    def scale(self, c) -> "LogRat":
        c = Fraction(c)
        if not c:
            return LogRat(RatFun.const(0))
        return LogRat(
            self.rat * c,
            tuple((ci * c, a) for ci, a in self.logs),
            tuple((ci * c, k) for ci, k in self.const_logs),
        )

    def derivative(self) -> RatFun:
        """d/dz; log terms contribute c * arg' / arg."""
        out = self.rat.derivative()
        for c, arg in self.logs:
            f = RatFun.make(arg)
            out = out + f.derivative() / f * c
        return out

    def __str__(self) -> str:
        parts = [str(self.rat)] if not self.rat.is_zero() else []
        for c, a in self.logs:
            parts.append(f"{c}*log({P.to_str(a)})")
        for c, k in self.const_logs:
            parts.append(f"{c}*log({k})")
        return " + ".join(parts) if parts else "0"


def _split_log(coeff: Fraction, p: P.Poly, logs: dict, consts: dict) -> None:
    """Accumulate coeff*log(p) into monic-factor and constant parts."""
    if P.is_zero(p):
        raise ValueError("log of zero")
    if P.degree(p) == 0:
        _add_const(coeff, p[0], consts)
        return
    lc = p[-1]
    if lc != 1:
        _add_const(coeff, lc, consts)
        p = P.scale(p, 1 / lc)
    roots = P.rational_roots(p)
    rem = p
    for r, m in roots:
        lin = (-r, Fraction(1))
        for _ in range(m):
            rem = P.divexact(rem, lin)
        logs[lin] = logs.get(lin, Fraction(0)) + coeff * m
        if not logs[lin]:
            del logs[lin]
    if P.degree(rem) > 0:
        logs[rem] = logs.get(rem, Fraction(0)) + coeff
        if not logs[rem]:
            del logs[rem]


def _add_const(coeff: Fraction, k: Fraction, consts: dict) -> None:
    if k == 0:
        raise ValueError("log of zero constant")
    if k == 1:
        return
    consts[k] = consts.get(k, Fraction(0)) + coeff
    if not consts[k]:
        del consts[k]


def _coerce(v) -> LogRat:
    if isinstance(v, LogRat):
        return v
    if isinstance(v, RatFun):
        return LogRat(v)
    if isinstance(v, (int, Fraction)):
        return LogRat(RatFun.const(v))
    raise TypeError(f"cannot coerce {type(v)} to LogRat")
