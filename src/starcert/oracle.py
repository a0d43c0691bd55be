"""Numerical certification engine over the sampled unit disk.

Each functional is a polynomial, so its sup modulus and its minimum real
part over a disk sit on the boundary circle; one circle per functional is
sampled, with golden-section refinement of the extremum angle.  Checks the
strict hypothesis and conclusion inequalities of each criterion with
explicit margins, counts zeros of ``f/z`` and ``f'`` by the argument
principle, and demonstrates the boundary-maximum lemma numerically.

A passing verdict is always ``CERTIFIED_SAMPLED``: every sampled point
plus the heuristic tail allowance satisfies the strict inequality.  That
is deliberately weaker than a proof over the open disk and the reports
say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .series import (
    Series,
    SchlichtCandidate,
    SeriesError,
    derivative,
    evaluate_grid,
    tail_estimate,
)
from .functionals import (
    FunctionalKind,
    centered_quotient,
    lhs_a,
    lhs_b,
    mocanu_functional,
    starlike_quotient,
    unit_part,
    w_func,
)
from .criteria import CriterionKind, CriterionParams, CriterionSpec, build_spec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TAIL_DISCLAIMER = (
    "tail allowance is a coefficient-growth heuristic, not a rigorous bound"
)


class DegenerateSeriesError(SeriesError):
    """Series carries no usable signal for the requested check."""


def _default_radii() -> tuple[float, ...]:
    return tuple(round(0.10 + 0.01 * i, 10) for i in range(90)) + (0.995,)


@dataclass(frozen=True)
class SamplingConfig:
    """Grid and policy for sup estimation on the disk.

    ``radii`` are candidate circles, ascending.  The margin policy is
    fixed: a hypothesis certifies only when the sampled sup plus the tail
    allowance at the sampled radius stays below the bound.
    """

    radii: tuple[float, ...] = field(default_factory=_default_radii)
    angles: int = 2048
    refine: bool = True
    refine_tol: float = 1e-10
    denom_floor: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii:
            raise ValueError("at least one sampling radius is required")
        if any(not 0.0 < r < 1.0 for r in self.radii):
            raise ValueError("sampling radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("sampling radii must be strictly ascending")
        if self.angles < 64:
            raise ValueError(f"need at least 64 angles per circle, got {self.angles}")


class Verdict(Enum):
    CERTIFIED_SAMPLED = "CERTIFIED_SAMPLED"
    HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
    CONCLUSION_FAILED = "CONCLUSION_FAILED"
    INADMISSIBLE = "INADMISSIBLE"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class SupEstimate:
    """Sampled supremum of |series| over the largest accepted disk."""

    sup: float
    witness_r: float
    witness_theta: float
    witness_value: complex
    sup_plus_tail: float
    tail_at_witness: float
    skipped_radii: tuple[float, ...]


@dataclass(frozen=True)
class MinRealEstimate:
    """Sampled infimum of Re(series) over the largest candidate disk."""

    min_re: float
    witness_r: float
    witness_theta: float
    witness_value: complex


@dataclass(frozen=True)
class JackResult:
    k_est: complex
    max_point: complex
    max_modulus: float
    imag_ok: bool
    real_ok: bool

    @property
    def conforms(self) -> bool:
        return self.imag_ok and self.real_ok


@dataclass(frozen=True)
class VerificationReport:
    kind: CriterionKind
    spec: CriterionSpec
    verdict: Verdict
    hypothesis_sup: float | None = None
    hypothesis_tail: float | None = None
    hypothesis_margin: float | None = None
    hypothesis_witness: tuple[float, float] | None = None
    conclusion_sup: float | None = None
    conclusion_margin: float | None = None
    conclusion_witness: tuple[float, float] | None = None
    cross_min_re: float | None = None
    cross_margin: float | None = None
    worst_witness: tuple[float, float, complex] | None = None
    denominator_violations: tuple[tuple[float, float, str, float], ...] = ()
    skipped_radii: tuple[float, ...] = ()
    tail_flag: str = TAIL_DISCLAIMER
    escalation: str | None = None
    config: SamplingConfig = field(default_factory=SamplingConfig)


_angle_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _angles(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _angle_cache:
        theta = 2.0 * np.pi * np.arange(m) / m
        _angle_cache[m] = (theta, np.exp(1j * theta))
    return _angle_cache[m]


def _golden_extremum(fn, lo: float, hi: float, tol: float, sign: float):
    """Golden-section search for max (sign=+1) / min (sign=-1) of ``fn``."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = sign * fn(c)
    fd = sign * fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * fn(d)
    x = c if fc >= fd else d
    return x, sign * max(fc, fd)


def _refine_circle(a: Series, r: float, theta0: float, span: float,
                   tol: float, sign: float):
    def val(theta: float) -> float:
        z = r * complex(math.cos(theta), math.sin(theta))
        acc = 0j
        for c in a.coeffs[::-1]:
            acc = acc * z + c
        return abs(acc) if sign > 0 else acc.real

    x, fx = _golden_extremum(val, theta0 - span, theta0 + span, tol, sign)
    f0 = val(theta0)
    # Never report worse than the grid point itself.
    if sign > 0:
        return (x, fx) if fx >= f0 else (theta0, f0)
    return (x, fx) if fx <= f0 else (theta0, f0)


def _circle_extremum(a: Series, r: float, cfg: SamplingConfig, sign: float):
    """Grid extremum of ``|a|`` (sign=+1, max) or ``Re a`` (sign=-1, min)
    on ``|z| = r``, ties toward the smallest angle, refined if configured.
    Returns ``(theta, extremum, a(z))``."""
    theta, units = _angles(cfg.angles)
    vals = evaluate_grid(a, r * units)
    vals = np.abs(vals) if sign > 0 else vals.real
    j = int(np.argmax(sign * vals))
    best_theta, best = float(theta[j]), float(vals[j])
    if cfg.refine:
        best_theta, best = _refine_circle(a, r, best_theta,
                                          2.0 * np.pi / cfg.angles,
                                          cfg.refine_tol, sign)
    z = r * complex(math.cos(best_theta), math.sin(best_theta))
    return best_theta, best, complex(evaluate_grid(a, np.asarray([z]))[0])


def sup_on_disk(a: Series, cfg: SamplingConfig | None = None) -> SupEstimate:
    """Sampled supremum of ``|a|`` over ``|z| <= r``, taken on ``|z| = r``
    (maximum modulus), for the largest candidate ``r`` whose tail
    allowance is finite.  The heuristic refuses ``r`` iff ``q r >= 1``, so
    the refused radii, reported as skipped, are the top of the ladder.
    """
    cfg = cfg or SamplingConfig()
    for i in reversed(range(len(cfg.radii))):
        tail = tail_estimate(a, cfg.radii[i])
        if not math.isinf(tail):
            break
    else:
        raise DegenerateSeriesError(
            "every sampling radius was refused by the tail heuristic"
        )
    r = cfg.radii[i]
    theta, peak, value = _circle_extremum(a, r, cfg, +1.0)
    return SupEstimate(
        sup=peak,
        witness_r=r,
        witness_theta=theta,
        witness_value=value,
        sup_plus_tail=peak + tail,
        tail_at_witness=tail,
        skipped_radii=cfg.radii[i + 1:],
    )


def min_real_on_disk(a: Series, cfg: SamplingConfig | None = None) -> MinRealEstimate:
    """Sampled infimum of ``Re(a)`` over the largest candidate disk, taken on
    its boundary (minimum principle); the tail allowance is not folded in."""
    cfg = cfg or SamplingConfig()
    r = cfg.radii[-1]
    theta, low, value = _circle_extremum(a, r, cfg, -1.0)
    return MinRealEstimate(min_re=low, witness_r=r, witness_theta=theta,
                           witness_value=value)


def _denominator_violations(f: SchlichtCandidate, cfg: SamplingConfig,
                            cap: int = 32):
    """Zeros of ``f/z`` or ``f'`` inside the outer candidate circle: samples
    below the floor, or else a nonzero argument-principle count (untrusted,
    so also flagged, when a phase step reaches pi/2) reported at the sample
    of least modulus.  A zero-free polynomial has its least modulus on the
    boundary, so near-zeros inside show on this circle too."""
    r = cfg.radii[-1]
    theta, units = _angles(cfg.angles)
    out = []
    for label, s in (("f/z", unit_part(f)), ("f'", derivative(f.series))):
        vals = evaluate_grid(s, r * units)
        mags = np.abs(vals)
        bad = np.nonzero(mags < cfg.denom_floor)[0]
        if not bad.size:
            # summed principal phase steps / 2 pi = zeros inside the circle
            steps = np.angle(np.roll(vals, -1) * np.conj(vals))
            if (np.max(np.abs(steps)) >= 0.5 * np.pi
                    or round(np.sum(steps) / (2.0 * np.pi)) != 0):
                bad = [int(np.argmin(mags))]
        out.extend((r, float(theta[j]), label, float(mags[j])) for j in bad)
    return tuple(out[:cap])


def _functional_series(f: SchlichtCandidate, spec: CriterionSpec) -> Series:
    if spec.lhs is FunctionalKind.LHS_A:
        return lhs_a(f, spec.eff_beta, spec.eff_gamma)
    if spec.lhs is FunctionalKind.LHS_B:
        return lhs_b(f, spec.eff_beta, spec.eff_gamma)
    if spec.lhs is FunctionalKind.MOCANU_Q:
        return mocanu_functional(f, spec.alpha)
    raise ValueError(f"no hypothesis functional for {spec.lhs}")


def check_criterion(f: SchlichtCandidate, p: CriterionParams,
                    cfg: SamplingConfig | None = None) -> VerificationReport:
    """Sample the hypothesis and conclusion of one criterion.

    The implication 'hypothesis implies conclusion' is a theorem, so a run
    where the hypothesis certifies but the conclusion fails is escalated
    as a suspected implementation/numerics bug rather than reported as a
    counterexample.
    """
    cfg = cfg or SamplingConfig()
    spec = build_spec(p)
    if not spec.admissible:
        return VerificationReport(kind=p.kind, spec=spec,
                                  verdict=Verdict.INADMISSIBLE, config=cfg)
    if f.series.trunc_order < f.n + 2:
        return VerificationReport(kind=p.kind, spec=spec,
                                  verdict=Verdict.DEGENERATE, config=cfg)

    violations = _denominator_violations(f, cfg)

    if spec.hypothesis_shape == "positive_real":
        est = min_real_on_disk(_functional_series(f, spec), cfg)
        hyp_margin = est.min_re
        hyp_ok = hyp_margin > 0
        witness = (est.witness_r, est.witness_theta)
        conclusion_sup = est.min_re
        conclusion_margin = hyp_margin
        conclusion_ok = hyp_ok
        conclusion_witness = witness
        hyp_sup: float = est.min_re
        hyp_tail = 0.0
        cross_min = cross_margin = None
        worst = (est.witness_r, est.witness_theta, est.witness_value)
    else:
        hyp_est = sup_on_disk(_functional_series(f, spec), cfg)
        hyp_sup = hyp_est.sup
        hyp_tail = hyp_est.sup_plus_tail - hyp_est.sup
        hyp_margin = spec.rhs_bound - hyp_est.sup_plus_tail
        hyp_ok = hyp_margin > 0
        witness = (hyp_est.witness_r, hyp_est.witness_theta)
        worst = (hyp_est.witness_r, hyp_est.witness_theta, hyp_est.witness_value)

        if spec.kind in (CriterionKind.LEMMA_A, CriterionKind.LEMMA_B):
            target = w_func(f)
        else:
            target = centered_quotient(f, spec.alpha)
        con_est = sup_on_disk(target, cfg)
        conclusion_sup = con_est.sup
        conclusion_margin = spec.conclusion_radius - con_est.sup
        conclusion_ok = conclusion_margin > 0
        conclusion_witness = (con_est.witness_r, con_est.witness_theta)

        cross_min = cross_margin = None
        if spec.kind in (CriterionKind.THM_A, CriterionKind.COR_A,
                         CriterionKind.THM_B):
            cross = min_real_on_disk(starlike_quotient(f), cfg)
            cross_min = cross.min_re
            cross_margin = cross.min_re - spec.alpha
            conclusion_ok = conclusion_ok and cross_margin > 0

    escalation = None
    if not hyp_ok:
        verdict = Verdict.HYPOTHESIS_FAILED
    elif not conclusion_ok:
        verdict = Verdict.CONCLUSION_FAILED
        escalation = (
            "hypothesis certified on samples but the concluded inequality "
            "failed; the implication is a theorem, so treat this as a "
            "suspected implementation or truncation error, not a "
            "counterexample"
        )
    elif violations:
        verdict = Verdict.DEGENERATE
    else:
        verdict = Verdict.CERTIFIED_SAMPLED

    skipped = hyp_est.skipped_radii if spec.hypothesis_shape == "modulus" else ()
    return VerificationReport(
        kind=p.kind,
        spec=spec,
        verdict=verdict,
        hypothesis_sup=hyp_sup,
        hypothesis_tail=hyp_tail,
        hypothesis_margin=hyp_margin,
        hypothesis_witness=witness,
        conclusion_sup=conclusion_sup,
        conclusion_margin=conclusion_margin,
        conclusion_witness=conclusion_witness,
        cross_min_re=cross_min,
        cross_margin=cross_margin,
        worst_witness=worst,
        denominator_violations=violations,
        skipped_radii=skipped,
        escalation=escalation,
        config=cfg,
    )


def jack_demo(w: Series, m: int, r: float,
              cfg: SamplingConfig | None = None) -> JackResult:
    """Locate the modulus maximum of ``w`` on ``|z| = r`` and report
    ``k = z0 w'(z0) / w(z0)`` there.

    For a series vanishing to order ``m`` at the origin, ``k`` should be a
    real number >= m; the result records whether both assertions hold
    within tolerance (1e-6, relative for the real part).
    """
    cfg = cfg or SamplingConfig()
    if m < 1:
        raise ValueError(f"vanishing order must be >= 1, got {m}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    mags = np.abs(w.coeffs)
    scale_ref = float(mags.max()) if mags.size else 0.0
    if scale_ref > 0 and np.any(mags[:m] > 1e-12 * scale_ref):
        raise ValueError(
            f"series does not vanish to order {m} at the origin"
        )
    peak_theta, peak, w0 = _circle_extremum(w, r, cfg, +1.0)
    if peak < 1e-14:
        raise DegenerateSeriesError(
            f"|w| below 1e-14 everywhere on |z| = {r}; no maximum to probe"
        )
    z0 = r * complex(math.cos(peak_theta), math.sin(peak_theta))
    w1 = complex(evaluate_grid(derivative(w), np.asarray([z0]))[0])
    k = z0 * w1 / w0
    imag_ok = abs(k.imag) <= 1e-6 * (1.0 + abs(k))
    real_ok = k.real >= m * (1.0 - 1e-6)
    return JackResult(k_est=k, max_point=z0, max_modulus=peak,
                      imag_ok=imag_ok, real_ok=real_ok)
