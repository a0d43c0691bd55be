"""Hypothesis bounds, admissibility checks and conclusion geometry.

Each criterion kind pairs a strict sup bound for one of the functionals
with a parameter constraint and a concluded disk for ``Q = f/(z f')``:

* ``LEMMA_A``:  |lhs_a| < |n rho gamma - beta| / (1 + rho)   needs Re(beta/gamma) < n rho,
  concludes |Q - 1| < rho.
* ``LEMMA_B``:  |lhs_b| < rho |beta + gamma (n+1)| / (1 + rho)  needs Re(beta/gamma) > -(n+1),
  concludes |Q - 1| < rho.
* ``THM_A``, ``THM_B``:  the family's lemma at rho(alpha) = 1/max(1/2, alpha) - 1,
  concluding |Q - 1/(2 alpha)| < 1/(2 alpha).  The lemma weight
  s = 1/(1 + rho) is max(1/2, alpha); :func:`build_spec` takes s first and
  rho = 1/s - 1 from it.  So the bounds read |n gamma - beta| / 2
  and |beta + gamma (n+1)| / 2 for alpha <= 1/2, and |n gamma (1-alpha) - alpha beta|
  and (1-alpha) |beta + gamma (n+1)| for alpha >= 1/2.
* ``COR_A``:    THM_A after the substitution (beta, gamma) -> (1, -gamma) for real gamma,
  made by :func:`build_spec` before any formula reads beta or gamma.
* ``MOCANU``:   hypothesis shape Re(mocanu functional) > 0; no modulus bound.
  Every alpha-convex function is starlike (Miller, Mocanu and Reade,
  Proc. AMS 37, 1973), so it concludes Re(zf'/f) > 0.

``CriterionSpec.order`` is the starlikeness order a criterion concludes:
alpha for the theorems and the corollary, 0 for ``MOCANU``, None for the
lemmas, whose disk |Q - 1| < rho states no order.

All admissibility inequalities are strict; a zero margin is inadmissible.
"""

from __future__ import annotations

import cmath
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
        for name in ("beta", "gamma", "alpha", "rho"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.n < 1:
            raise ParameterError(f"class index n must be >= 1, got {self.n}")
        if self.gamma == 0:
            raise ParameterError("gamma must be nonzero")
        if self.kind in _RHO_KINDS:
            if self.rho is None or not self.rho > 0:
                raise ParameterError(f"{self.kind.value} requires rho > 0")
            if self.alpha is not None:
                raise ParameterError(f"{self.kind.value} takes rho, not alpha")
        else:
            if self.rho is not None:
                raise ParameterError(f"{self.kind.value} takes alpha, not rho")
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
    order: float | None                # concluded Re(zf'/f) > order


def _effective_params(p: CriterionParams) -> tuple[complex, complex]:
    """The (beta, gamma) a criterion's formulas take: COR_A's after the
    corollary substitution (1, -gamma), every other kind's as given."""
    if p.kind is CriterionKind.COR_A:
        return 1.0 + 0.0j, complex(-p.gamma.real)
    return p.beta, p.gamma


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
        # implied rho and concludes |Q - 1/(2 alpha)| < 1/(2 alpha).  Every
        # bound is written in the lemma weights s = 1/(1 + rho) and
        # t = 1 - s = rho/(1 + rho); a theorem's s is max(1/2, alpha)
        # exactly, and its rho is 1/s - 1.  A lemma forms t as
        # rho/(1 + rho), since 1 - s cancels at small rho.
        if p.kind in _RHO_KINDS:
            alpha, rho, center, radius = None, p.rho, 1.0, p.rho
            s, t = 1.0 / (1.0 + rho), rho / (1.0 + rho)
        else:
            alpha, s = p.alpha, max(0.5, p.alpha)
            rho, t = 1.0 / s - 1.0, 1.0 - s
            center = radius = 1.0 / (2.0 * p.alpha)
        if p.kind in (CriterionKind.LEMMA_B, CriterionKind.THM_B):
            lhs, margin = FunctionalKind.LHS_B, ratio + (p.n + 1)
            bound = t * abs(beta + gamma * (p.n + 1))
        else:
            lhs, margin = FunctionalKind.LHS_A, p.n * rho - ratio
            bound = abs(p.n * gamma * t - s * beta)
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
        # MOCANU's alpha weighs its functional; a lemma's alpha is None
        order=0.0 if p.kind is CriterionKind.MOCANU else alpha,
    )
