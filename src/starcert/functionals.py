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
read-only series.  The builders compose ``f/z``, ``f'``, ``zf''`` and
their products on coefficient arrays with the series kernels, and box
only the values they cache as :class:`Series`, which checks them finite.

Both rewrite identities are linear in (beta, gamma).  With ``P = zf'/f``
and ``Q = 1 + zf''/f'``, their residuals are ``(beta - gamma) R1 +
gamma R2`` (A) and ``beta R1 + gamma R2`` (B), where ``R1 = P(1 + w) - 1``
and ``R2 = Q(1 + w) - 1 + z w'`` vanish in exact arithmetic.  The cache
holds ``R1`` and ``R2`` too, so a (beta, gamma) pair costs no product,
and arrays of beta and gamma take every pair in one elementwise
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
    _derivative,
    _mul,
    reciprocal,
    require_trunc_order,
    schlicht_from_tail,
)


class FunctionalKind(Enum):
    LHS_A = "lhs_a"              # (beta-gamma) zf'/f + gamma (1 + zf''/f')
    LHS_B = "lhs_b"              # beta (zf'/f - 1) + gamma zf''/f'
    MOCANU_Q = "mocanu_q"        # (1-alpha) zf'/f + alpha (1 + zf''/f')


class ParameterError(ValueError):
    """Scalar parameter outside its admissible range."""


def unit_part(f: SchlichtCandidate) -> Series:
    """``u = f/z``: the candidate's ``c0`` is exactly 0, so dropping it
    divides by ``z``, and the constant term is its ``c1``, exactly 1."""
    return Series(f.series.coeffs[1:])


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


@_once_per_candidate
def starlike_quotient(f: SchlichtCandidate) -> Series:
    """``z f'(z) / f(z)``; constant term exactly 1."""
    fprime = _derivative(f.series.coeffs)
    return Series(_mul(fprime, reciprocal(unit_part(f)).coeffs))


@_once_per_candidate
def _fprime_reciprocal(f: SchlichtCandidate) -> Series:
    """``1/f'``, the denominator of ``1 + zf''/f'`` and of ``w``."""
    return reciprocal(Series(_derivative(f.series.coeffs)))


def _z_derivative(c: np.ndarray) -> np.ndarray:
    """``z g'`` from the coefficients of ``g``, one order longer than ``g'``."""
    return np.concatenate(([0j], _derivative(c)))


@_once_per_candidate
def convex_quotient(f: SchlichtCandidate) -> Series:
    """``1 + z f''(z) / f'(z)``; constant term exactly 1."""
    # 1/f' first: it refuses an f' too large for z f'' to be finite
    inv = _fprime_reciprocal(f).coeffs
    q = _mul(_z_derivative(_derivative(f.series.coeffs)), inv)
    q[0] += 1.0
    return Series(q)


@_once_per_candidate
def w_func(f: SchlichtCandidate) -> Series:
    """``w = f/(z f') - 1``; vanishes to order >= n for class index n."""
    w = _mul(f.series.coeffs[1:], _fprime_reciprocal(f).coeffs)
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


@_once_per_candidate
def _identity_parts(f: SchlichtCandidate) -> tuple[Series, Series]:
    """``R1 = P(1 + w) - 1`` and ``R2 = Q(1 + w) - 1 + z w'``, the two
    series every identity residual combines."""
    w = w_func(f).coeffs
    one_plus_w = w.copy()
    one_plus_w[0] += 1.0
    r1 = _mul(starlike_quotient(f).coeffs, one_plus_w)
    r1[0] += -1.0
    r2 = _mul(convex_quotient(f).coeffs, one_plus_w)
    r2[0] += -1.0
    r2 += _z_derivative(w)
    return Series(r1), Series(r2)


def _residual(f: SchlichtCandidate, x, y):
    """Largest coefficient modulus of ``x R1 + y R2``: a float for scalar
    ``x, y``, else one per entry of the arrays."""
    r1, r2 = _identity_parts(f)
    x = np.asarray(x, dtype=np.complex128)[..., None]
    y = np.asarray(y, dtype=np.complex128)[..., None]
    worst = np.max(np.abs(r1.coeffs * x + r2.coeffs * y), axis=-1)
    return worst if worst.ndim else float(worst)


def identity_a_residual(f: SchlichtCandidate, beta, gamma):
    """Max coefficient residual of ``lhs_a * (1 + w) - (beta - gamma z w')``,
    which is ``(beta - gamma) R1 + gamma R2``; one per entry when ``beta``
    and ``gamma`` are arrays of one length."""
    return _residual(f, np.subtract(beta, gamma), gamma)


def identity_b_residual(f: SchlichtCandidate, beta, gamma):
    """Max coefficient residual of ``lhs_b * (1 + w) + (beta w + gamma (z w' + w))``,
    which is ``beta R1 + gamma R2``; one per entry when ``beta`` and
    ``gamma`` are arrays of one length."""
    return _residual(f, beta, gamma)


# Scale and geometric decay of random_candidate's tail coefficients.
_RANDOM_AMP = 0.15
_RANDOM_DECAY = 0.15


def random_candidate(n: int, trunc_order: int,
                     rng: np.random.Generator) -> SchlichtCandidate:
    """Random class member with geometrically decaying tail coefficients.

    The decay keeps f', f/z and the capped w/z^n zero-free
    on the closed disk, so every quotient the identity sweeps take has a
    convergent series there and residuals stay at rounding level instead
    of being amplified through a pole.
    """
    require_trunc_order(trunc_order, n)
    count = trunc_order - n
    radii = (_RANDOM_AMP * _RANDOM_DECAY ** np.arange(count)
             * rng.uniform(0.5, 1.0, count))
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    tail = np.concatenate((np.zeros(n - 1), radii * np.exp(1j * phases)))
    return schlicht_from_tail(n, tail, trunc_order)


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
    seen for each identity.  A sweep that would check nothing, or whose
    draws cannot be made (class 3 needs ``trunc_order >= 5``), is refused.
    """
    if per_n < 1 or pairs < 1:
        raise ParameterError(
            f"identity sweep needs per_n >= 1 and pairs >= 1, got "
            f"per_n={per_n}, pairs={pairs}")
    if not 5 <= trunc_order <= MAX_TRUNC_ORDER:
        bound = ">= 5" if trunc_order < 5 else f"<= {MAX_TRUNC_ORDER}"
        raise ParameterError(
            f"identity sweep needs trunc_order {bound}, got {trunc_order}")
    if seed < 0:
        raise ParameterError(f"identity sweep needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    beta, gamma = np.array([
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        for _ in range(pairs)
    ]).T
    worst_a = 0.0
    worst_b = 0.0
    total = 0
    for n in (1, 2, 3):
        for _ in range(per_n):
            f = random_candidate(n, trunc_order, rng)
            total += 1
            worst_a = max(worst_a, float(identity_a_residual(f, beta, gamma).max()))
            worst_b = max(worst_b, float(identity_b_residual(f, beta, gamma).max()))
    return IdentitySweepResult(
        max_residual_a=worst_a,
        max_residual_b=worst_b,
        functions=total,
        pairs=pairs,
        trunc_order=trunc_order,
        seed=seed,
    )
