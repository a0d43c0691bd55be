"""Extremal example families built by pure series manipulation.

Both families are one construction, ``f = z (k h)^e``.  Here
``h_j = g_j / (c + j)`` is the shifted integral of an inner series ``g``:
``integral_0^z t^(c-1) g(t) dt = z^c h(z)``.  The outer exponent is
``e = 1/c``, so the fractional power of ``z`` cancels exactly and the
construction never leaves single-valued series arithmetic.  ``g`` is a
series in ``z^n`` written from its closed form, a binomial or exponential
series, and the outer power is ``exp(e log(k h))``.  Only ``g``, ``c``, the
scale ``k`` and ``e`` depend on the family:

* family A:  g = (1 + (conj(beta)/S) z^n)^((S^2 - |beta|^2)/(n conj(beta) gamma)),
  c = k = beta/gamma, e = gamma/beta;
* family B:  g = exp((S/(n gamma)) z^n),
  c = beta/gamma + 1, k = (beta + gamma)/gamma, e = gamma/(beta + gamma).

Family B satisfies the exact coefficient identity
``beta (zf'/f - 1) + gamma zf''/f' = S z^n``, checked by
:func:`verify_identity_b`.  Family A's test functional admits a Moebius
closed form in ``z^n``; :func:`probe_identity_a` compares the computed
series against the two natural variants (built from beta and from gamma)
and reports which one holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .series import (
    DEFAULT_TRUNC_ORDER,
    SchlichtCandidate,
    Series,
    SeriesError,
    as_schlicht,
    div,
    integrate_offset,
    monomial,
    pow_unit,
    scale,
    shift,
)
from .functionals import lhs_a, lhs_b
from .criteria import CriterionKind, CriterionParams, build_spec

# Coefficient residual below which lhs_a matches a closed form.
_MATCH_TOL = 1e-9


class ExtremalFamily(Enum):
    EXTREMAL_A = "EXTREMAL_A"
    EXTREMAL_B = "EXTREMAL_B"


class DegenerateExtremalError(SeriesError):
    """A structural guard failed (S=0, beta=0, beta+gamma=0)."""

    def __init__(self, constraint: str):
        self.constraint = constraint
        super().__init__(f"degenerate extremal parameters: {constraint}")


class InadmissibleExtremalError(ValueError):
    """The matching criterion's parameter constraint does not hold."""

    def __init__(self, constraint: str, margin: float):
        self.constraint = constraint
        self.margin = margin
        super().__init__(
            f"inadmissible extremal parameters: {constraint} "
            f"(margin {margin:.6g})"
        )


@dataclass(frozen=True)
class ExtremalParams:
    family: ExtremalFamily
    n: int
    alpha: float
    beta: complex
    gamma: complex
    S: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if self.n < 1:
            raise SeriesError(f"class index n must be >= 1, got {self.n}")
        if self.gamma == 0:
            raise SeriesError("gamma must be nonzero")
        if not 0.0 < self.alpha < 1.0:
            raise SeriesError(f"alpha must lie in (0, 1), got {self.alpha}")
        family_a = self.family is ExtremalFamily.EXTREMAL_A
        spec = build_spec(CriterionParams(
            kind=CriterionKind.THM_A if family_a else CriterionKind.THM_B,
            n=self.n, beta=self.beta, gamma=self.gamma, alpha=self.alpha))
        s = spec.rhs_bound
        scale_ref = max(abs(self.beta), abs(self.gamma))
        if family_a:
            if abs(self.beta) < 1e-12 * scale_ref:
                raise DegenerateExtremalError("beta=0")
            if s < 1e-12 * scale_ref:
                raise DegenerateExtremalError("S=0")
            constraint = f"Re(beta/gamma) < {self.n * spec.rho:.6g}"
        else:
            if abs(self.beta + self.gamma) < 1e-12 * scale_ref:
                raise DegenerateExtremalError("beta+gamma=0")
            constraint = f"Re(beta/gamma) > -{self.n + 1}"
        if not spec.admissible:
            raise InadmissibleExtremalError(constraint,
                                            spec.admissibility_margin)
        object.__setattr__(self, "S", float(s))


def build_extremal(p: ExtremalParams, trunc_order: int = DEFAULT_TRUNC_ORDER
                   ) -> SchlichtCandidate:
    """The family's candidate ``z (k h)^e`` at the given truncation order."""
    work = trunc_order - 1
    beta, gamma, n, s = p.beta, p.gamma, p.n, p.S
    j = np.arange(1, work // n + 1)
    if p.family is ExtremalFamily.EXTREMAL_A:
        # binomial series: g_(nj) = binom(power, j) x^j
        x = np.conj(beta) / s
        power = (s * s - abs(beta) ** 2) / (n * np.conj(beta) * gamma)
        terms = (power - j + 1) * x / j
        c = k = beta / gamma
        e = gamma / beta
    else:
        # exponential series: g_(nj) = x^j / j!
        terms = s / (n * gamma) / j
        # k is not folded into c: it keeps the coefficients bit-stable
        c, k = beta / gamma + 1.0, (beta + gamma) / gamma
        e = gamma / (beta + gamma)
    g = np.zeros(work + 1, dtype=np.complex128)
    g[0] = 1.0
    g[n::n] = np.cumprod(terms)
    fz = pow_unit(scale(integrate_offset(Series(g), c), k), e)
    return as_schlicht(n, shift(fz, 1))


def verify_identity_b(f: SchlichtCandidate, p: ExtremalParams) -> float:
    """Max coefficient residual of ``lhs_b(f) - S z^n``, skipping the top
    two retained orders (truncation casualties)."""
    left = lhs_b(f, p.beta, p.gamma)
    target = monomial(p.S, p.n, left.trunc_order)
    resid = np.abs(left.coeffs - target.coeffs)
    keep = max(1, resid.size - 2)
    return float(resid[:keep].max())


@dataclass(frozen=True)
class ProbeIdentityA:
    """Outcome of comparing family A's functional to both closed forms."""

    residual_beta_form: float
    residual_gamma_form: float
    matches_beta_form: bool
    matches_gamma_form: bool
    matched: str                    # "beta_form" | "gamma_form" | "both" | "neither"


def _moebius_form(x: complex, s: float, n: int, order: int) -> Series:
    num = monomial(s, n, order) + complex(x)
    den = monomial(np.conj(x) / s, n, order) + 1.0
    return div(num, den)


def probe_identity_a(f: SchlichtCandidate,
                     p: ExtremalParams) -> ProbeIdentityA:
    """Compare ``lhs_a(f)`` against the beta- and gamma-built Moebius
    forms; ``check_criterion`` samples its sup as the THM_A hypothesis."""
    left = lhs_a(f, p.beta, p.gamma)
    order = left.trunc_order
    keep = max(1, order - 1)

    def resid(x: complex) -> float:
        diff = np.abs(left.coeffs - _moebius_form(x, p.S, p.n, order).coeffs)
        return float(diff[:keep].max())

    r_beta = resid(p.beta)
    r_gamma = resid(p.gamma)
    m_beta = r_beta < _MATCH_TOL
    m_gamma = r_gamma < _MATCH_TOL
    matched = {(True, True): "both", (True, False): "beta_form",
               (False, True): "gamma_form", (False, False): "neither"}[
        (m_beta, m_gamma)]
    return ProbeIdentityA(
        residual_beta_form=r_beta,
        residual_gamma_form=r_gamma,
        matches_beta_form=m_beta,
        matches_gamma_form=m_gamma,
        matched=matched,
    )


# Documented parameter grid for the built-in sweeps.  Pairs are chosen to
# keep every admissibility margin at or above 0.1 for all n in {1,2,3} and
# alpha in {0.3, 0.5, 0.7}.  The family-A pairs additionally keep |beta|
# well below S (the bound |lhs_a(0)| = |beta| < S makes that necessary)
# and keep beta/gamma on the positive real axis: for misaligned ratios the
# family-A conclusion overshoots its disk even though the sup bound holds,
# so only aligned pairs certify end to end.
GRID_NS = (1, 2, 3)
GRID_ALPHAS = (0.3, 0.5, 0.7)
GRID_PAIRS_A = (
    (0.1 + 0j, 1.0 + 0j),
    (0.12 - 0.024j, 1.0 - 0.2j),
    (0.08 + 0.024j, 1.0 + 0.3j),
    (0.06 - 0.03j, 1.0 - 0.5j),
)
GRID_PAIRS_B = (
    (1.0 + 0j, 1.0 + 0j),
    (0.5j, 1.0 + 0j),
    (-0.5 + 0j, 1.0 + 0.5j),
    (2.0 + 0j, 1.0 - 1.0j),
)


def documented_grid(family: ExtremalFamily) -> tuple[ExtremalParams, ...]:
    """The frozen test grid for one family (validated on construction)."""
    pairs = (GRID_PAIRS_A if family is ExtremalFamily.EXTREMAL_A
             else GRID_PAIRS_B)
    out = []
    for n in GRID_NS:
        for alpha in GRID_ALPHAS:
            for beta, gamma in pairs:
                out.append(ExtremalParams(family=family, n=n, alpha=alpha,
                                          beta=beta, gamma=gamma))
    return tuple(out)
