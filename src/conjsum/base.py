"""Exit-code exceptions, GridSpec, the theorem and modulus names and _Kept: what the CLI needs at load, without numpy.

Each public name is also importable from the module that uses it (functions, summability, conjugate, moduli,
verify).  _Kept is the one record of a value computed once and the values summed from it: the conjugate's
panel sums and the (value, estimate) pairs read from them by eps, the partial sums of x and the transform values
by (A, B, n), the kernel-form cut records and their deviation pairs by (A, B, n), the modulus profiles and the
right-hand sides by n (and A), and the AB weights and kernel tails that a matrix keeps by (B, n).
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

THEOREM_IDS = ("T1.51", "T1.5", "R1.6", "T2", "T2.trunc", "T3", "T4", "COR")
MODULUS_KINDS = ("w", "w_bar", "w_tilde", "w_tilde_bar")

# At this m the moduli node table takes about 104 MB and each 256*m increment
# array of the classical moduli 34 MB.
MAX_GRID_M = 2**14
# Depth 64 grades down to pi * 2**-64 = 1.7e-19; near depth 1050, t/2 underflows to 0 at the finest nodes.
MAX_GRID_REFINEMENT = 64


class SingularIntegrandError(ValueError):
    """The integrand produced a non-finite value at a quadrature node."""


class DomainError(ValueError):
    """An argument fell outside the operation's stated domain."""


class UnknownNameError(KeyError):
    """A name the registry does not hold; a KeyError whose message prints unquoted."""

    def __str__(self) -> str:
        return str(self.args[0])


class ConvergenceError(RuntimeError):
    """The quadrature error estimate exceeded conjugate.CONJUGATE_TOL; last_values is (value, est_error)."""

    def __init__(self, message, last_values):
        super().__init__(message)
        self.last_values = tuple(last_values)


class MatrixValidationError(ValueError):
    pass


class _Kept:
    """A cached value, data, and the values summed from it once: summed maps an order n (or an eps) to its value.

    under(A) is the _Kept of the values summed with A as well, and under(A).under(B) with A and B.  below holds
    each such key weakly, so those values go with any matrix they read; it is made at the first key.
    """

    __slots__ = ("data", "summed", "below")

    def __init__(self, data=None):
        self.data = data
        self.summed = {}
        self.below = None  # key -> _Kept, a WeakKeyDictionary

    def under(self, key) -> _Kept:
        below = self.below
        if below is None:
            below = self.below = weakref.WeakKeyDictionary()
        return below.get(key) or below.setdefault(key, _Kept())


class _GridFields(NamedTuple):
    m: int = 1024
    refinement: int = 24


class GridSpec(_GridFields):
    """Quadrature resolution: m nodes per period (16 <= m <= 2**14), dyadic grading depth (1 to 64).

    A validated named pair: it hashes and compares as a tuple, in C, since nearly every lru cache keys on it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 16:
            raise DomainError(f"grid m must be >= 16, got {self.m}")
        if self.m > MAX_GRID_M:
            raise DomainError(f"grid m must be <= {MAX_GRID_M}, got {self.m}")
        if self.m % 2 != 0:
            raise DomainError(f"grid m must be even, got {self.m}")
        if self.refinement < 1:
            raise DomainError(f"refinement must be positive, got {self.refinement}")
        if self.refinement > MAX_GRID_REFINEMENT:
            raise DomainError(f"refinement must be <= {MAX_GRID_REFINEMENT}, got {self.refinement}")
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it validates too
        return cls(*iterable)


DEFAULT_GRID = GridSpec()
