"""Numerics for genus-0 and genus-1 entire functions of order one.

The package evaluates such functions from their zero sequences via
truncated canonical products, expands them in Taylor and even series,
restricts them to a symmetry line, and estimates growth order, the
zero-counting exponent, and zero multiplicities.
"""

from . import analysis, core_types, critical_line, product_engine, series_engine
from .analysis import *
from .core_types import *
from .critical_line import *
from .product_engine import *
from .series_engine import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core_types.__all__,
    *product_engine.__all__,
    *series_engine.__all__,
    *critical_line.__all__,
    *analysis.__all__,
]
