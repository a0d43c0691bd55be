"""Extremal example families built by pure series manipulation.

Both families are one construction, ``f = z (k h)^e``.  Here
``h_j = g_j / (c + j)`` is the shifted integral of an inner series ``g``:
``integral_0^z t^(c-1) g(t) dt = z^c h(z)``.  The outer exponent is
``e = 1/c``, so the fractional power of ``z`` cancels exactly and the
construction never leaves single-valued series arithmetic.  ``g`` is a
series in ``z^n`` written from its closed form, a binomial or exponential
series, and the outer power is ``exp(e log(k h))``.  So ``h`` and the power
are series in ``w = z^n`` too: at truncation order ``N`` they are built on
their ``(N-1)//n + 1`` lattice coefficients, and ``f`` is laid out once,
``z`` times the power on its ``z^n`` lattice, with exact zeros off it.  The
power's constant term is exactly 1, so ``c0 = 0`` and ``c1 = 1`` hold by
construction and nothing is snapped.  Only ``g``, ``c``, the scale ``k``
and ``e`` depend on the family:

* family A:  g = (1 + (conj(beta)/S) z^n)^((S^2 - |beta|^2)/(n conj(beta) gamma)),
  c = k = beta/gamma, e = gamma/beta;
* family B:  g = exp((S/(n gamma)) z^n),
  c = beta/gamma + 1, k = (beta + gamma)/gamma, e = gamma/(beta + gamma).

Each family's hypothesis functional equals one closed form in ``z^n``,
``(S z^n + b0) / (1 + (conj(b0)/S) z^n)``, and each self-check is the
largest coefficient residual against its expansion:

* family A:  ``lhs_a(f)`` at ``b0 = beta``, checked by :func:`probe_identity_a`;
* family B:  ``lhs_b(f)`` at ``b0 = 0``, where the form is ``S z^n``,
  checked by :func:`verify_identity_b`.

Family A's functional is ``beta`` at the origin, so its hypothesis
``|lhs_a| < S`` needs ``|beta| < S``; :class:`ExtremalParams` refuses the
rest as inadmissible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .series import (
    NonFiniteCoefficientError,
    SchlichtCandidate,
    Series,
    SeriesError,
    integrate_offset,
    pow_unit,
    require_trunc_order,
    scale,
)
from .functionals import lhs_a, lhs_b
from .criteria import CriterionKind, CriterionParams, build_spec


# Self-check tolerance relative to max(1, S); a larger residual means the
# construction lost the identity it was built to satisfy.  The CLI's
# identities sweep passes below the same value.
SELFCHECK_RTOL = 1e-10


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
        family_a = self.family is ExtremalFamily.EXTREMAL_A
        spec = build_spec(self.criterion)
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
        if family_a and abs(self.beta) >= s:
            # lhs_a(0) = beta, so the hypothesis already fails at the origin
            raise InadmissibleExtremalError("|beta| < S", s - abs(self.beta))
        object.__setattr__(self, "S", float(s))

    @property
    def selfcheck_tol(self) -> float:
        """Largest self-check residual the construction passes: the
        self-check form's coefficients scale with ``S``, so its rounding
        does too."""
        return SELFCHECK_RTOL * max(1.0, self.S)

    @property
    def criterion(self) -> CriterionParams:
        """The theorem the family's extremal is built for: THM_A or THM_B."""
        kind = (CriterionKind.THM_A if self.family is ExtremalFamily.EXTREMAL_A
                else CriterionKind.THM_B)
        return CriterionParams(kind=kind, n=self.n, beta=self.beta,
                               gamma=self.gamma, alpha=self.alpha)


def build_extremal(p: ExtremalParams, trunc_order: int) -> SchlichtCandidate:
    """The family's candidate ``z (k h)^e`` at the given truncation order."""
    require_trunc_order(trunc_order, p.n)
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
    # g on its lattice: g[j] holds g_(nj)
    g = np.ones(j.size + 1, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # Series refuses it
        g[1:] = np.cumprod(terms)
    try:
        fw = pow_unit(scale(integrate_offset(Series(g), c, n), k), e)
    except NonFiniteCoefficientError as err:
        raise NonFiniteCoefficientError(n * err.index) from None
    f = np.zeros(trunc_order + 1, dtype=np.complex128)
    f[1::n] = fw.coeffs
    return SchlichtCandidate(n, Series(f))


def _residual(left: Series, b0: complex, s: float, n: int) -> float:
    """Max coefficient residual of ``left`` against the self-check form's
    expansion ``b0 + (S - |b0|^2/S) sum_(j>=1) (-conj(b0)/S)^(j-1) z^(nj)``,
    skipping the top two retained orders (truncation casualties)."""
    target = np.zeros(left.trunc_order + 1, dtype=np.complex128)
    target[0] = b0
    ratio = -np.conj(b0) / s
    target[n::n] = ((s - abs(b0) ** 2 / s)
                    * ratio ** np.arange(left.trunc_order // n))
    resid = np.abs(left.coeffs - target)
    return float(resid[: max(1, resid.size - 2)].max())


def verify_identity_b(f: SchlichtCandidate, p: ExtremalParams) -> float:
    """Coefficient residual of ``lhs_b(f) - S z^n``, the ``b0 = 0`` case."""
    return _residual(lhs_b(f, p.beta, p.gamma), 0.0, p.S, p.n)


def probe_identity_a(f: SchlichtCandidate, p: ExtremalParams) -> float:
    """Coefficient residual of
    ``lhs_a(f) - (S z^n + beta) / (1 + (conj(beta)/S) z^n)``."""
    return _residual(lhs_a(f, p.beta, p.gamma), p.beta, p.S, p.n)


# Documented parameter grid for the built-in sweeps.  Pairs are chosen to
# keep every admissibility margin at or above 0.1 for all n in {1,2,3} and
# alpha in {0.3, 0.5, 0.7}.  The family-A pairs additionally keep |beta|
# well below S (ExtremalParams refuses |beta| >= S) and keep beta/gamma on
# the positive real axis: for misaligned ratios the family-A conclusion
# overshoots its disk even though the sup bound holds, so only aligned
# pairs certify end to end.
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
