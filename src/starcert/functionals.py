"""The analytic functionals the criterion inequalities are stated in.

Every function here maps a normalized candidate ``f`` (class shape
``z + a_{n+1} z^{n+1} + ...``) to a truncated series.  The common factor
``z`` is cancelled before any division, so all quotients are series with
unit denominators: ``zf'/f = f'/u`` and ``w = u/f' - 1`` for ``u = f/z``.
Constant terms that are forced analytically (1 for the quotients, beta
for the first combination) are set exactly.

The three quotients ``zf'/f``, ``1 + zf''/f'`` and ``w`` are products
with a Newton reciprocal, and the last two share the one of ``f'``; every
other functional only recombines them with beta, gamma, alpha or a
centre.  So each reciprocal and each quotient is built at most once per
candidate and kept in this module's cache, keyed by the candidate and
dropped with it; later calls, for any parameters, return the same
read-only series.  Each quotient is composed on coefficient arrays from
``f/z`` (the coefficients past ``c0``), ``f'`` and ``zf''`` with the
series kernels; the cached builders box only the values the cache hands
to callers as :class:`Series`, which checks them finite.  ``1/f'`` is cached
as a read-only array; the checked reciprocal refuses a non-finite ``f'``,
a non-unit divisor or a non-finite result, as a box of each would.

Both rewrite identities are linear in (beta, gamma).  With ``P = zf'/f``
and ``Q = 1 + zf''/f'``, their residuals are ``(beta - gamma) R1 +
gamma R2`` (A) and ``beta R1 + gamma R2`` (B), where ``R1 = P(1 + w) - 1``
and ``R2 = Q(1 + w) - 1 + z w'`` vanish in exact arithmetic.  The
identity sweep lays its random candidates out as rows of one coefficient
block and builds ``R1`` and ``R2`` for every row with the same array
functions and kernels, taking ``1 + w`` as the one product ``u (1/f')``,
so a row has the bits of its cached build; no sweep candidate enters the
cache.  A (beta, gamma) pair costs no product, and arrays of beta and
gamma take every pair over every row of a block in one elementwise
expression, each entry with the bits of its scalar call.
That cache is the one piece of state here: neither a candidate nor a
cached series can change, so sharing changes no result.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .series import (
    MAX_TRUNC_ORDER,
    Series,
    SchlichtCandidate,
    _checked_reciprocal,
    _derivative,
    _mul,
    _orders,
    _require_finite,
    require_trunc_order,
)


class FunctionalKind(Enum):
    LHS_A = "lhs_a"              # (beta-gamma) zf'/f + gamma (1 + zf''/f')
    LHS_B = "lhs_b"              # beta (zf'/f - 1) + gamma zf''/f'
    MOCANU_Q = "mocanu_q"        # (1-alpha) zf'/f + alpha (1 + zf''/f')


class ParameterError(ValueError):
    """Scalar parameter outside its admissible range."""


# Candidate -> {builder: what it built}; a candidate hashes by identity.
_quotients: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _once_per_candidate(build):
    """Run ``build(f)`` once per candidate; later calls return the value
    the first call stored in the quotient cache."""

    @functools.wraps(build)
    def cached(f: SchlichtCandidate):
        store = _quotients.setdefault(f, {})
        if build not in store:
            store[build] = build(f)
        return store[build]

    return cached


def _starlike(c: np.ndarray, fprime: np.ndarray) -> np.ndarray:
    """``z f'/f`` of one row from the coefficients of ``f`` and of ``f'``:
    ``f'`` times ``1/u``, ``u = f/z``."""
    return _mul(fprime, _checked_reciprocal(c[1:]))


@_once_per_candidate
def starlike_quotient(f: SchlichtCandidate) -> Series:
    """``z f'(z) / f(z)``; constant term exactly 1."""
    c = f.series.coeffs
    return Series(_starlike(c, _derivative(c)))


@_once_per_candidate
def _fprime_reciprocal(f: SchlichtCandidate) -> np.ndarray:
    """``1/f'`` as a read-only array, the denominator of ``1 + zf''/f'``
    and of ``w``."""
    return _checked_reciprocal(_derivative(f.series.coeffs))


def _z_derivative(c: np.ndarray) -> np.ndarray:
    """``z g'`` from the coefficients of ``g`` (of each row of a block), one
    order longer than ``g'``."""
    return c * _orders(c.shape[-1])


def _convex(zf2: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``1 + z f''/f'`` of one row from ``z f''`` and ``1/f'``."""
    q = _mul(zf2, inv)
    q[0] += 1.0
    return q


@_once_per_candidate
def convex_quotient(f: SchlichtCandidate) -> Series:
    """``1 + z f''(z) / f'(z)``; constant term exactly 1."""
    # 1/f' first: it refuses an f' too large for z f'' to be finite
    inv = _fprime_reciprocal(f)
    return Series(_convex(_z_derivative(_derivative(f.series.coeffs)), inv))


@_once_per_candidate
def w_func(f: SchlichtCandidate) -> Series:
    """``w = f/(z f') - 1``; vanishes to order >= n for class index n."""
    w = _mul(f.series.coeffs[1:], _fprime_reciprocal(f))
    w[0] += -1.0  # not -= 1.0, which keeps a -0.0 imaginary part
    return Series(w)


def _combination(f: SchlichtCandidate, x: complex, y: complex,
                 c0: complex) -> Series:
    """``x zf'/f + y (1 + zf''/f')`` with its constant term set to exactly
    ``c0``."""
    c = (starlike_quotient(f).coeffs * complex(x)
         + convex_quotient(f).coeffs * complex(y))
    c[0] = c0
    return Series(c)


def lhs_a(f: SchlichtCandidate, beta: complex, gamma: complex) -> Series:
    """``(beta - gamma) zf'/f + gamma (1 + zf''/f')``; constant term is
    exactly ``beta``."""
    return _combination(f, beta - gamma, gamma, beta)


def lhs_b(f: SchlichtCandidate, beta: complex, gamma: complex) -> Series:
    """``beta (zf'/f - 1) + gamma zf''/f'``; constant term exactly 0."""
    return _combination(f, beta, gamma, 0.0)


def mocanu_functional(f: SchlichtCandidate, alpha: float) -> Series:
    """The alpha-convex combination ``(1-alpha) zf'/f + alpha (1+zf''/f')``;
    constant term exactly 1.  Any real alpha is allowed."""
    return _combination(f, 1.0 - alpha, alpha, 1.0)


def centered_quotient(f: SchlichtCandidate, center: float) -> Series:
    """``f/(z f') - center``, the series a conclusion disk is centred on;
    any centre is valid."""
    c = w_func(f).coeffs.copy()
    c[0] += complex(1.0 - center)
    return Series(c)


def identity_parts(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R1 = P(1 + w) - 1`` and ``R2 = Q(1 + w) - 1 + z w'``, the two
    series every identity residual combines, for each row of the
    coefficient block ``c`` (one candidate per row).

    The derivatives are taken once for the block; the two reciprocals and
    five products run per row, with the kernels the cached quotients use,
    so each row has the bits of a build from those quotients.  ``1 + w``
    is the product ``(f/z)(1/f')``, whose constant term is exactly 1, and
    ``z w'`` is ``z (1 + w)'``.
    """
    fprime = _derivative(c)
    zf2 = _z_derivative(fprime)
    one_plus_w = np.empty_like(fprime)
    r1 = np.empty_like(fprime)
    r2 = np.empty_like(fprime)
    for i, row in enumerate(c):
        p = _starlike(row, fprime[i])
        inv = _checked_reciprocal(fprime[i])
        one_plus_w[i] = _mul(row[1:], inv)
        r1[i] = _mul(p, one_plus_w[i])
        r2[i] = _mul(_convex(zf2[i], inv), one_plus_w[i])
    r1[:, 0] += -1.0
    r2[:, 0] += -1.0
    r2 += _z_derivative(one_plus_w)
    return r1, r2


def _residual(parts, x, y):
    """Largest coefficient modulus of ``x R1 + y R2`` over every row of the
    parts: a float for scalar ``x, y``, else one per entry of the arrays."""
    r1, r2 = parts
    x = np.asarray(x, dtype=np.complex128)[..., None, None]
    y = np.asarray(y, dtype=np.complex128)[..., None, None]
    worst = np.abs(r1 * x + r2 * y).max(axis=(-2, -1))
    return worst if worst.ndim else float(worst)


def identity_a_residual(parts, beta, gamma):
    """Max coefficient residual of ``lhs_a * (1 + w) - (beta - gamma z w')``,
    which is ``(beta - gamma) R1 + gamma R2``, over the rows of the
    :func:`identity_parts` ``parts``; one per entry when ``beta`` and
    ``gamma`` are arrays of one length."""
    return _residual(parts, np.subtract(beta, gamma), gamma)


def identity_b_residual(parts, beta, gamma):
    """Max coefficient residual of ``lhs_b * (1 + w) + (beta w + gamma (z w' + w))``,
    which is ``beta R1 + gamma R2``, over the rows of the
    :func:`identity_parts` ``parts``; one per entry when ``beta`` and
    ``gamma`` are arrays of one length."""
    return _residual(parts, beta, gamma)


# Scale and geometric decay of random_candidates' tail coefficients.
_RANDOM_AMP = 0.15
_RANDOM_DECAY = 0.15


def random_candidates(n: int, count: int, trunc_order: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``count`` random class members with geometrically decaying tail
    coefficients, as rows of coefficients ``c0..cN``.

    The decay keeps f', f/z and the capped w/z^n zero-free
    on the closed disk, so every quotient the identity sweeps take has a
    convergent series there and residuals stay at rounding level instead
    of being amplified through a pole.  Each row draws ``uniform(0.5, 1)``
    radii, then ``uniform(0, 2 pi)`` phases, one per tail coefficient, and
    consecutive calls continue the stream, so a block of rows draws what
    as many one-row calls draw.
    """
    require_trunc_order(trunc_order, n)
    m = trunc_order - n
    u = rng.random((count, 2, m))
    # Generator.uniform(lo, hi) is lo + (hi - lo) random()
    radii = _RANDOM_AMP * _RANDOM_DECAY ** np.arange(m) * (0.5 + 0.5 * u[:, 0])
    phases = 2.0 * np.pi * u[:, 1]
    c = np.zeros((count, trunc_order + 1), dtype=np.complex128)
    c[:, 1] = 1.0
    c[:, n + 1:] = radii * np.exp(1j * phases)
    return c


# The most (beta, gamma) pairs, and candidates per class index, a sweep
# takes; refused above, before any draw.
MAX_PAIRS = 2 ** 16
MAX_PER_N = 2 ** 16
# Elements in the largest temporary of one sweep block, the residual
# expression over (pair, row, order): a block holds
# max(1, _BLOCK_ELEMENTS // (pairs (N + 1))) candidates and its residuals
# take max(1, _BLOCK_ELEMENTS // (N + 1)) pairs at a time, so a sweep's
# memory grows neither with its candidates nor with its pairs.
_BLOCK_ELEMENTS = 2 ** 14


@dataclass(frozen=True)
class IdentitySweepResult:
    max_residual_a: float
    max_residual_b: float
    functions: int
    pairs: int
    trunc_order: int
    seed: int


def identity_sweep(per_n: int, pairs: int, trunc_order: int,
                   seed: int) -> IdentitySweepResult:
    """Randomized conformance sweep for both rewrite identities.

    Draws ``per_n`` random candidates for each class index 1, 2 and 3 and
    ``pairs`` random (beta, gamma) pairs, returning the largest residual
    seen for each identity.  A sweep that would check nothing, whose draws
    cannot be made (class 3 needs ``trunc_order >= 5``), or whose per_n,
    pairs or order exceed their caps, is refused.  The candidates are
    drawn, in class order, as blocks of coefficient rows, and each block's
    residuals are taken by one call per identity and slice of pairs (one
    slice unless ``pairs (N + 1)`` exceeds ``_BLOCK_ELEMENTS``); the
    largest residual does not depend on the slicing.
    """
    if per_n < 1 or pairs < 1:
        raise ParameterError(
            f"identity sweep needs per_n >= 1 and pairs >= 1, got "
            f"per_n={per_n}, pairs={pairs}")
    if per_n > MAX_PER_N:
        raise ParameterError(
            f"identity sweep needs per_n <= {MAX_PER_N}, got {per_n}")
    if pairs > MAX_PAIRS:
        raise ParameterError(
            f"identity sweep needs pairs <= {MAX_PAIRS}, got {pairs}")
    if not 5 <= trunc_order <= MAX_TRUNC_ORDER:
        bound = ">= 5" if trunc_order < 5 else f"<= {MAX_TRUNC_ORDER}"
        raise ParameterError(
            f"identity sweep needs trunc_order {bound}, got {trunc_order}")
    if seed < 0:
        raise ParameterError(f"identity sweep needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    # rows (Re beta, Im beta, Re gamma, Im gamma), drawn in that order
    beta, gamma = rng.uniform(-1, 1, (pairs, 4)).view(np.complex128).T
    rows = max(1, _BLOCK_ELEMENTS // (pairs * (trunc_order + 1)))
    step = max(1, _BLOCK_ELEMENTS // (trunc_order + 1))
    total = 3 * per_n
    worst_a = 0.0
    worst_b = 0.0
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        # class n holds the sweep's candidates (n - 1) per_n .. n per_n - 1
        counts = [(n, min(stop, n * per_n) - max(start, (n - 1) * per_n))
                  for n in (1, 2, 3)]
        block = np.concatenate([random_candidates(n, count, trunc_order, rng)
                                for n, count in counts if count > 0])
        _require_finite(block)
        parts = identity_parts(block)
        for lo in range(0, pairs, step):
            b, g = beta[lo:lo + step], gamma[lo:lo + step]
            worst_a = max(worst_a, float(identity_a_residual(parts, b, g).max()))
            worst_b = max(worst_b, float(identity_b_residual(parts, b, g).max()))
    return IdentitySweepResult(
        max_residual_a=worst_a,
        max_residual_b=worst_b,
        functions=total,
        pairs=pairs,
        trunc_order=trunc_order,
        seed=seed,
    )
