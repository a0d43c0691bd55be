"""Truncated power series over complex coefficients.

A :class:`Series` holds the coefficients ``c0..cN`` of a polynomial
surrogate for a function analytic on the unit disk; ``N`` is the
truncation order.  It is a finiteness-checked, read-only array with no
operators; each operation is one named function and reports only an
order whose coefficients its inputs fully determine: multiplication
truncates to the shorter factor and differentiation drops one order.
Fractional powers of ``z`` never materialize; :func:`integrate_offset`
factors the ``z^c`` part out symbolically, and :func:`pow_unit`,
:func:`exp_unit`, :func:`log_unit` stay on the principal branch anchored
at the unit constant term.
The truncated product and the term-wise derivative are each one array
kernel, ``_mul`` and ``_derivative``; :func:`mul` and :func:`derivative`
box their results as a :class:`Series`, and a caller that composes
several steps (``functionals``) runs the kernels on coefficient arrays
and boxes only what it keeps.  :func:`reciprocal` builds ``1/b`` from an
eight-term forward substitution and then Newton iteration in O(log N)
convolutions, each step's residual a middle product, and is the one place
a divisor is checked for a unit constant term.  :func:`div` is a product
with it, so a caller dividing by one series several times builds its
reciprocal once; :func:`log_unit` runs the same iteration on its
unit-constant argument.  :func:`exp_unit` keeps its O(N^2) recurrence,
which holds the relative accuracy of small coefficients; it fills its
result back to front, so each step's dot product reads two forward
slices.  Both loops give the bits of their
textbook forms (full product, negative-stride view).
:func:`evaluate_grid` samples a series on a :class:`Circle` by one FFT, the
one way a series is read off a circle.

Series values are immutable and all functions here are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TRUNC_ORDER = 128
MAX_TRUNC_ORDER = 2 ** 16  # refused above, before any array is laid out

# Relative floor for "unit" constant terms (division, logarithms, powers).
UNIT_TOL = 1e-12
# Minimum |c + k| accepted by the shifted integral before a retained
# coefficient would be amplified past double-precision meaningfulness.
RESONANCE_TOL = 1e-8
# Coefficients below this relative level count as zero in the tail
# heuristic; they are rounding dust, not information about growth.
TAIL_DUST = 1e-14
# Leading coefficients of a reciprocal found by forward substitution before
# its Newton steps; below this length a step is nearly all call overhead.
_RECIPROCAL_START = 8


class SeriesError(ValueError):
    """Base class for series construction and arithmetic failures."""


class NonFiniteCoefficientError(SeriesError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite coefficient at index {index}")


class NonUnitDivisorError(SeriesError):
    """Divisor constant term is (numerically) zero."""


class ResonantExponentError(SeriesError):
    def __init__(self, k: int, offset: complex):
        self.k = k
        self.offset = offset
        super().__init__(
            f"resonant exponent at k={k}: |c + k| = {abs(offset + k):.3e} "
            f"for c = {offset}"
        )


@dataclass(frozen=True, eq=False)
class Series:
    """Coefficients ``c0..cN`` of a power series truncated at order N."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise SeriesError("coefficients must form a non-empty 1-d sequence")
        finite = np.isfinite(arr)
        if not finite.all():
            raise NonFiniteCoefficientError(int(np.argmin(finite)))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def trunc_order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.coeffs.size > 4 else ""
        return f"Series(order={self.trunc_order}, [{head}{tail}])"


def make_series(coeffs, trunc_order: int | None = None) -> Series:
    """Build a Series from ``c0..cN``, verifying length and finiteness."""
    arr = np.asarray(coeffs, dtype=np.complex128)
    if trunc_order is not None and arr.size != trunc_order + 1:
        raise SeriesError(
            f"expected {trunc_order + 1} coefficients for truncation order "
            f"{trunc_order}, got {arr.size}"
        )
    return Series(arr)


def scale(a: Series, s) -> Series:
    return Series(a.coeffs * complex(s))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated at the shorter."""
    m = min(a.size, b.size)
    return np.convolve(a[:m], b[:m])[:m]


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the smaller input order."""
    return Series(_mul(a.coeffs, b.coeffs))


def _reciprocal(b: np.ndarray) -> np.ndarray:
    """``1/b`` to the length of ``b`` (``b[0] != 0``) by Newton iteration.

    The first ``_RECIPROCAL_START`` coefficients come from the forward
    substitution ``x_k = -(sum_(j=1..k) b_j x_(k-j)) x_0`` on Python
    scalars, where a convolution would cost more in calls than in work.
    Each Newton step then doubles the known length ``k``: ``b x = 1 + z^k r``
    modulo ``z^(2k)``, so ``x (2 - b x) = x - z^k x r`` extends ``x`` by
    ``-x r`` and leaves its first ``k`` coefficients as they were.  Two
    convolutions per step, ``ceil(log2(n/8))`` steps for ``n > 8``
    coefficients (Kung 1974).  The residual ``r`` is the middle product
    of ``b[1:2k]`` and ``x`` (Hanrot, Quercia and Zimmermann 2004), which
    skips the product's low half.
    """
    size = b.size
    k = min(_RECIPROCAL_START, size)
    head = b[:k].tolist()
    x0 = 1 / head[0]
    start = [x0]
    for i in range(1, k):
        acc = 0j
        for j in range(1, i + 1):
            acc += head[j] * start[i - j]
        start.append(-acc * x0)
    x = np.empty(size, dtype=np.complex128)
    x[:k] = start
    while k < size:
        k2 = min(2 * k, size)
        r = np.convolve(b[1:k2], x[:k], "valid")  # entries k..k2-1 of b x
        x[k:k2] = -np.convolve(x[: k2 - k], r)[: k2 - k]
        k = k2
    return x


def reciprocal(b: Series) -> Series:
    """``1/b`` to the order of ``b``, by Newton iteration.

    Requires a unit divisor: ``|b0|`` must clear ``UNIT_TOL`` relative to
    the largest retained coefficient of ``b``.
    """
    bc = b.coeffs
    b0 = bc[0]
    scale_ref = max(1.0, float(np.max(np.abs(bc))))
    if abs(b0) < UNIT_TOL * scale_ref:
        raise NonUnitDivisorError(
            f"non-unit divisor: |b0| = {abs(b0):.3e} is below "
            f"{UNIT_TOL:g} × max(1, max|b_k|) = {scale_ref:.1e}"
        )
    return Series(_reciprocal(bc))


def div(a: Series, b: Series) -> Series:
    """Series quotient ``q`` with ``mul(q, b) == a`` to truncation: ``a``
    times the :func:`reciprocal` of ``b`` cut to the common order."""
    m = min(a.trunc_order, b.trunc_order)
    return mul(a, reciprocal(Series(b.coeffs[: m + 1])))


def _derivative(c: np.ndarray) -> np.ndarray:
    """Term-wise derivative of the coefficients ``c0..cN``: ``k c_k`` for
    ``k = 1..N``."""
    return c[1:] * np.arange(1, c.size)


def derivative(a: Series) -> Series:
    """Term-wise derivative; truncation order drops by one.  A coefficient
    that overflows is refused by the ``Series`` finiteness check."""
    if a.trunc_order == 0:
        return Series(np.zeros(1, dtype=np.complex128))
    with np.errstate(over="ignore"):  # an overflow is the refusal below
        d = _derivative(a.coeffs)
    return Series(d)


def exp_unit(a: Series) -> Series:
    """Exponential of a series with zero constant term.

    Solves E' = a'E with E(0) = 1, so the constant term of the result is
    exactly 1.
    """
    scale_ref = max(1.0, float(np.max(np.abs(a.coeffs))))
    if abs(a.coeffs[0]) > UNIT_TOL * scale_ref:
        raise SeriesError(
            f"exp_unit requires zero constant term, got {a.coeffs[0]}; "
            "factor the scalar exponential first"
        )
    n = a.trunc_order
    ka = a.coeffs * np.arange(n + 1)  # j * a_j
    rev = np.zeros(n + 1, dtype=np.complex128)  # e_k is rev[n - k]
    rev[n] = 1.0
    for k in range(1, n + 1):  # e_k = sum_j j a_j e_(k-j) / k
        rev[n - k] = ka[1 : k + 1].dot(rev[n - k + 1 :]) / k
    return Series(rev[::-1])


def log_unit(a: Series) -> Series:
    """Logarithm of a series with unit constant term (principal branch,
    zero constant term in the result): the integral of ``a'`` times the
    Newton reciprocal of ``a``."""
    scale_ref = max(1.0, float(np.max(np.abs(a.coeffs))))
    if abs(a.coeffs[0] - 1.0) > UNIT_TOL * scale_ref:
        raise SeriesError(
            f"log_unit requires constant term 1, got {a.coeffs[0]}"
        )
    n = a.trunc_order
    lg = np.zeros(n + 1, dtype=np.complex128)
    if n:  # log a is the integral of a'/a
        lg[1:] = (_mul(_derivative(a.coeffs), _reciprocal(a.coeffs[:n]))
                  / np.arange(1, n + 1))
    return Series(lg)


def pow_unit(a: Series, e: complex) -> Series:
    """Principal power ``a**e`` of a series with constant term 1, computed
    as exp(e * log(a))."""
    return exp_unit(scale(log_unit(a), e))


def integrate_offset(g: Series, c: complex, step: int = 1) -> Series:
    """The shifted antiderivative: with ``F(z) = integral of t^(c-1) g(t)
    from 0 to z`` factored as ``F = z^c h(z)``, returns ``h``.

    ``h_k = g_k / (c + k)``; the symbolic ``z^c`` factor is the caller's to
    reattach (in the extremal constructions an outer power cancels it
    exactly).  With ``step = n``, ``g`` is a series in ``z^n`` held by its
    lattice coefficients, ``g.coeffs[i] = g_(ni)``, and so is the result:
    ``h_(ni) = g_(ni) / (c + n i)``.  A resonance names its order ``n i``.
    """
    gc = g.coeffs
    scale_ref = max(1.0, float(np.max(np.abs(gc))))
    if abs(gc[0]) < UNIT_TOL * scale_ref:
        raise SeriesError(
            f"integrate_offset needs a unit constant term: |g0| = "
            f"{abs(gc[0]):.3e} is below {UNIT_TOL:g} × max(1, max|g_k|) = "
            f"{scale_ref:.1e}")
    denom = complex(c) + step * np.arange(g.trunc_order + 1)
    near = np.abs(denom) < RESONANCE_TOL
    if near.any():
        for i in np.nonzero(near)[0]:
            if gc[i] != 0:
                raise ResonantExponentError(step * int(i), complex(c))
    h = np.zeros_like(gc)
    ok = ~near
    h[ok] = gc[ok] / denom[ok]
    return Series(h)


@dataclass(frozen=True)
class Circle:
    """The ``m`` equally spaced points ``r e^(2 pi i j / m)``, ``j = 0..m-1``."""

    r: float
    m: int

    @property
    def size(self) -> int:
        return self.m


@functools.lru_cache(maxsize=128)
def radius_powers(r: float, size: int) -> np.ndarray:
    """``r^k`` for ``k = 0..size-1``, one read-only array per radius and
    length: every circle read of a series takes its weights from here."""
    powers = r ** np.arange(size)
    powers.setflags(write=False)
    return powers


def evaluate_grid(a: Series, z: Circle) -> np.ndarray:
    """Values of ``a`` at the points of the circle ``z``.

    They are one inverse FFT of length ``m`` of the weights ``c_k r^k``,
    zero-filled to ``m`` when there are fewer.  When there are more, they
    are first folded modulo ``m``: ``e^(2 pi i j k / m)`` depends on
    ``k mod m`` only, and the transform would otherwise drop the weights
    past ``m``.
    """
    b = a.coeffs * radius_powers(z.r, a.coeffs.size)
    if b.size > z.m:
        b = np.pad(b, (0, -b.size % z.m)).reshape(-1, z.m).sum(0)
    return np.fft.ifft(b, n=z.m, norm="forward")


def tail_estimate(a: Series, r: float) -> float:
    """Heuristic bound for the discarded tail on ``|z| = r``.

    Extrapolates the top-quartile coefficient growth ratio ``q`` into a
    geometric tail ``|c_N| q r^(N+1) / (1 - q r)``.  Returns ``inf`` when
    ``q r >= 1`` (sampling at that radius should be refused).  Non-rigorous
    by construction; reports must flag it as such.
    """
    if not 0.0 <= r < 1.0:
        raise SeriesError(f"tail estimate requires 0 <= r < 1, got {r}")
    mags = np.abs(a.coeffs)
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    floor = TAIL_DUST * top
    mags = np.where(mags <= floor, 0.0, mags)
    n = a.trunc_order
    if mags[n] == 0.0:
        return 0.0
    qstart = max(1, (3 * (n + 1)) // 4)
    prev = mags[qstart - 1 : n]
    curr = mags[qstart : n + 1]
    valid = prev > 0.0
    if not valid.any():
        return 0.0
    q = float(np.max(curr[valid] / prev[valid]))
    if q * r >= 1.0:
        return math.inf
    return float(mags[n] * q * r ** (n + 1) / (1.0 - q * r))


def require_trunc_order(trunc_order: int, n: int) -> None:
    """The one size rule for a class-``n`` candidate: refuse a class index
    below 1, then a truncation order outside ``n + 2..MAX_TRUNC_ORDER``."""
    if n < 1:
        raise SeriesError(f"class index n must be >= 1, got {n}")
    if trunc_order < n + 2:
        raise SeriesError(
            f"truncation order {trunc_order} too small for n={n}; "
            f"need at least {n + 2}"
        )
    if trunc_order > MAX_TRUNC_ORDER:
        raise SeriesError(f"truncation order {trunc_order} too large; "
                          f"at most {MAX_TRUNC_ORDER}")


@dataclass(frozen=True, eq=False)
class SchlichtCandidate:
    """A series certified to have the normalized class shape: ``c0 = 0``,
    ``c1 = 1`` and ``c2..cn = 0`` exactly, with enough retained orders for
    every downstream functional."""

    n: int
    series: Series

    def __post_init__(self):
        s = self.series
        require_trunc_order(s.trunc_order, self.n)
        c = s.coeffs
        if c[0] != 0 or c[1] != 1:
            raise SeriesError(
                f"candidate must start z + ...: c0={c[0]}, c1={c[1]}"
            )
        if self.n >= 2 and np.any(c[2 : self.n + 1] != 0):
            raise SeriesError(
                f"coefficients a_2..a_{self.n} must vanish exactly for class "
                f"index n={self.n}"
            )

    @property
    def trunc_order(self) -> int:
        return self.series.trunc_order


def schlicht_from_tail(n: int, tail, trunc_order: int) -> SchlichtCandidate:
    """Candidate from the coefficients ``a_2, a_3, ...`` (``a_1`` implied 1)."""
    require_trunc_order(trunc_order, n)
    tail = np.asarray(tail, dtype=np.complex128)
    if tail.size > trunc_order - 1:
        raise SeriesError(
            f"{tail.size} tail coefficients exceed truncation order "
            f"{trunc_order} (at most {trunc_order - 1} fit)"
        )
    arr = np.zeros(trunc_order + 1, dtype=np.complex128)
    arr[1] = 1.0
    arr[2 : 2 + tail.size] = tail
    return SchlichtCandidate(n=n, series=Series(arr))


BUILTIN_NAMES = ("identity", "koebe", "halfplane")


def builtin_candidate(name: str, trunc_order: int = DEFAULT_TRUNC_ORDER,
                      n: int = 1) -> SchlichtCandidate:
    """Named reference functions: ``identity`` (z), ``koebe`` (z/(1-z)^2),
    ``halfplane`` (z/(1-z))."""
    if name not in BUILTIN_NAMES:
        raise SeriesError(f"unknown builtin '{name}'")
    if name != "identity" and n != 1:
        raise SeriesError(f"{name} lies in the n=1 class only")
    require_trunc_order(trunc_order, n)
    if name == "identity":
        tail = ()
    elif name == "koebe":
        tail = np.arange(2, trunc_order + 1)
    else:
        tail = np.ones(trunc_order - 1)
    return schlicht_from_tail(n, tail, trunc_order)
