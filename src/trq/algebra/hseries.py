"""Truncated series in a formal parameter: hbar, or the q of the Hurwitz
BCH identity.

All arithmetic, `invert`, `exp` and `log1p` come from `Series`.  An
HSeries adds what the wave layer needs of a series in hbar: a constant
series, multiplication by a power of the variable, and a map over the
coefficients.  Coefficients are Fraction, RatFun, Rf2, Factored or, for
q-series, WeylPoly; exponent -1 is allowed (the leading WKB term).
"""

from __future__ import annotations

from .series import Series


class HSeries(Series):
    @staticmethod
    def const(v, trunc: int) -> "HSeries":
        return HSeries.make({0: v}, trunc)

    def shift(self, m: int) -> "HSeries":
        """Multiply by hbar^m."""
        return HSeries({k + m: v for k, v in self.coeffs.items()}, self.trunc + m)

    def map(self, fn) -> "HSeries":
        return HSeries.make({k: fn(v) for k, v in self.coeffs.items()}, self.trunc)
