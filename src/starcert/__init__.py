"""Numerical certification of starlikeness criteria on the unit disk."""

from .series import builtin_candidate, make_series

__version__ = "0.1.0"
