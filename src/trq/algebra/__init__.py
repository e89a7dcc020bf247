"""Exact scalar, polynomial, rational, logarithmic and series arithmetic."""

from . import poly
from .forms import Factored, FormBase
from .hseries import HSeries
from .lograt import LogRat
from .ratfun import RatFun
from .ratfun2 import Rf2
from .series import INF, LocalSeries, series_at

__all__ = [
    "poly",
    "RatFun",
    "Rf2",
    "Factored",
    "FormBase",
    "LogRat",
    "LocalSeries",
    "series_at",
    "INF",
    "HSeries",
]
