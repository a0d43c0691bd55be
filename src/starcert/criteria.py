"""Hypothesis bounds, admissibility checks and conclusion geometry.

Each criterion kind pairs a strict sup bound for one of the functionals
with a parameter constraint and a concluded disk for ``Q = f/(z f')``:

* ``LEMMA_A``:  |lhs_a| < |n rho gamma - beta| / (1 + rho)   needs Re(beta/gamma) < n rho,
  concludes |Q - 1| < rho.
* ``THM_A``:    |lhs_a| < |n gamma - beta| / 2               (alpha <= 1/2, Re(beta/gamma) < n)
  or |lhs_a| < |n gamma (1-alpha) - alpha beta|              (alpha >= 1/2, Re(beta/gamma) < n (1/alpha - 1)),
  concludes |Q - 1/(2 alpha)| < 1/(2 alpha).
* ``COR_A``:    THM_A after the substitution (beta, gamma) -> (1, -gamma) for real gamma.
* ``LEMMA_B``:  |lhs_b| < rho |beta + gamma (n+1)| / (1 + rho)  needs Re(beta/gamma) > -(n+1),
  concludes |Q - 1| < rho.
* ``THM_B``:    |lhs_b| < |beta + gamma (n+1)| / 2            (alpha <= 1/2)
  or |lhs_b| < (1-alpha) |beta + gamma (n+1)|                 (alpha >= 1/2), same constraint,
  same concluded disk as THM_A.
* ``MOCANU``:   hypothesis shape Re(mocanu functional) > 0; no modulus bound.

All admissibility inequalities are strict; a zero margin is inadmissible.
At alpha = 1/2 both branch formulas are evaluated and must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .functionals import FunctionalKind, ParameterError


class CriterionKind(Enum):
    LEMMA_A = "LEMMA_A"
    THM_A = "THM_A"
    COR_A = "COR_A"
    LEMMA_B = "LEMMA_B"
    THM_B = "THM_B"
    MOCANU = "MOCANU"


_ALPHA_KINDS = {CriterionKind.THM_A, CriterionKind.COR_A, CriterionKind.THM_B,
                CriterionKind.MOCANU}
_RHO_KINDS = {CriterionKind.LEMMA_A, CriterionKind.LEMMA_B}


@dataclass(frozen=True)
class CriterionParams:
    kind: CriterionKind
    n: int
    beta: complex = 1.0 + 0.0j
    gamma: complex = 1.0 + 0.0j
    alpha: float | None = None
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if self.n < 1:
            raise ParameterError(f"class index n must be >= 1, got {self.n}")
        if self.gamma == 0:
            raise ParameterError("gamma must be nonzero")
        if self.kind in _RHO_KINDS:
            if self.rho is None or not self.rho > 0:
                raise ParameterError(f"{self.kind.value} requires rho > 0")
        if self.kind in _ALPHA_KINDS:
            if self.alpha is None:
                raise ParameterError(f"{self.kind.value} requires alpha")
            if self.kind is not CriterionKind.MOCANU and not 0 < self.alpha < 1:
                raise ParameterError(
                    f"alpha must lie in (0, 1) for {self.kind.value}, got {self.alpha}"
                )
        if self.kind is CriterionKind.COR_A:
            if self.gamma.imag != 0:
                raise ParameterError("COR_A takes a real gamma")
            if self.beta != 1:
                raise ParameterError("COR_A fixes beta = 1; leave beta unset")

    @property
    def wide_alpha(self) -> bool:
        """True when a MOCANU check runs outside the (0,1) alpha range."""
        return (self.kind is CriterionKind.MOCANU and self.alpha is not None
                and not 0 < self.alpha < 1)


@dataclass(frozen=True)
class CriterionSpec:
    kind: CriterionKind
    lhs: FunctionalKind
    hypothesis_shape: str              # "modulus" or "positive_real"
    rhs_bound: float
    admissible: bool
    admissibility_margin: float | None
    conclusion_center: float
    conclusion_radius: float
    eff_beta: complex
    eff_gamma: complex
    alpha: float | None
    rho: float | None


def implied_rho(p: CriterionParams) -> float:
    """The disk radius the two-branch criteria run their lemma at:
    1 for alpha <= 1/2, ``1/alpha - 1`` for alpha >= 1/2."""
    if p.kind not in (CriterionKind.THM_A, CriterionKind.THM_B, CriterionKind.COR_A):
        raise ParameterError(f"implied_rho undefined for {p.kind.value}")
    if p.alpha <= 0.5:
        return 1.0
    return 1.0 / p.alpha - 1.0


def corollary_mapping(gamma_real: float) -> tuple[complex, complex]:
    """Parameters the corollary's statement substitutes into the theorem:
    beta = 1 and gamma negated."""
    if gamma_real == 0:
        raise ParameterError("corollary gamma must be nonzero")
    return 1.0 + 0.0j, complex(-gamma_real)


def _effective_params(p: CriterionParams) -> tuple[complex, complex]:
    """The (beta, gamma) a criterion's formulas take: COR_A's after the
    corollary substitution, every other kind's as given."""
    if p.kind is CriterionKind.COR_A:
        return corollary_mapping(p.gamma.real)
    return p.beta, p.gamma


def branch_bounds(p: CriterionParams) -> tuple[float | None, float | None]:
    """The (alpha <= 1/2, alpha >= 1/2) branch bounds; both are populated
    only at alpha = 1/2 exactly."""
    beta, gamma = _effective_params(p)
    if p.kind in (CriterionKind.THM_A, CriterionKind.COR_A):
        low = 0.5 * abs(p.n * gamma - beta)
        high = abs(p.n * gamma * (1.0 - p.alpha) - p.alpha * beta)
    elif p.kind is CriterionKind.THM_B:
        base = abs(beta + gamma * (p.n + 1))
        low, high = 0.5 * base, (1.0 - p.alpha) * base
    else:
        raise ParameterError(f"branch bounds undefined for {p.kind.value}")
    return (low if p.alpha <= 0.5 else None), (high if p.alpha >= 0.5 else None)


def _merge_branches(low: float | None, high: float | None) -> float:
    if low is not None and high is not None:
        if not math.isclose(low, high, rel_tol=0.0, abs_tol=1e-12 * max(1.0, low)):
            raise RuntimeError(
                f"branch formulas disagree at alpha = 1/2: {low!r} vs {high!r}"
            )
        return low
    return low if low is not None else high


def build_spec(p: CriterionParams) -> CriterionSpec:
    """Bound, admissibility and conclusion geometry for one criterion."""
    beta, gamma = _effective_params(p)
    ratio = (beta / gamma).real
    if p.kind is CriterionKind.MOCANU:
        # class-membership shape only, no modulus bound to certify
        lhs, bound, margin = FunctionalKind.MOCANU_Q, 0.0, None
        shape = "positive_real"
        alpha, rho, center, radius = p.alpha, None, 0.0, 0.0
    else:
        shape = "modulus"
        # A lemma concludes |Q - 1| < rho; a theorem runs its lemma at the
        # implied rho and concludes |Q - 1/(2 alpha)| < 1/(2 alpha).
        if p.kind in _RHO_KINDS:
            alpha, rho, center, radius = None, p.rho, 1.0, p.rho
        else:
            alpha, rho = p.alpha, implied_rho(p)
            center = radius = 1.0 / (2.0 * p.alpha)
        if p.kind in (CriterionKind.LEMMA_B, CriterionKind.THM_B):
            lhs, margin = FunctionalKind.LHS_B, ratio + (p.n + 1)
        else:
            lhs, margin = FunctionalKind.LHS_A, p.n * rho - ratio
        if p.kind is CriterionKind.LEMMA_A:
            bound = abs(p.n * rho * gamma - beta) / (1.0 + rho)
        elif p.kind is CriterionKind.LEMMA_B:
            bound = rho / (1.0 + rho) * abs(beta + gamma * (p.n + 1))
        else:
            bound = _merge_branches(*branch_bounds(p))
    return CriterionSpec(
        kind=p.kind,
        lhs=lhs,
        hypothesis_shape=shape,
        rhs_bound=bound,
        admissible=margin is None or margin > 0,
        admissibility_margin=margin,
        conclusion_center=center,
        conclusion_radius=radius,
        eff_beta=beta,
        eff_gamma=gamma,
        alpha=alpha,
        rho=rho,
    )
