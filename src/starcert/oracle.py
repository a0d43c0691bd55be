"""Numerical certification engine over the sampled unit disk.

Each functional is a polynomial, so its sup modulus and its minimum real
part over a disk sit on the boundary circle; one circle per functional is
sampled (one FFT, see :func:`~starcert.series.evaluate_grid`), the grid
extremum is taken at the smallest of the angles that tie for it up to
rounding, and its angle is refined by Newton steps on the circle's
trigonometric sum; a refined point replaces the grid point only when it
gains more than that rounding tolerance.  The steps do their arithmetic
on Python floats, which round as numpy's scalars do.  :func:`check_criterion`
samples each criterion's strict inequalities in one straight line, each
with an explicit margin; proves ``f/z`` and ``f'`` zero-free from their
coefficient arrays where it can and otherwise samples them and counts
their zeros by the argument principle (on samples scaled by one power of
two, so the phase products cannot overflow); and :func:`jack_demo`
demonstrates the boundary-maximum lemma numerically.

A passing verdict is always ``CERTIFIED_SAMPLED``: every sampled point
satisfies each strict inequality, the modulus hypothesis with its heuristic
tail allowance added (no other check folds in a tail).  That is
deliberately weaker than a proof over the open disk and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .series import (
    Circle,
    Series,
    SchlichtCandidate,
    SeriesError,
    _derivative,
    _growth_ratio,
    _require_finite,
    evaluate_grid,
    radius_powers,
    tail_estimate,
)
from .functionals import (
    FunctionalKind,
    ParameterError,
    centered_quotient,
    lhs_a,
    lhs_b,
    mocanu_functional,
    starlike_quotient,
)
from .criteria import CriterionKind, CriterionParams, CriterionSpec, build_spec

# Samples of f/z or f' below this modulus count as denominator zeros.
_DENOM_FLOOR = 1e-9
# At most this many denominator violations are reported.
_DENOM_CAP = 32
# Newton refinement guards: the step cap and the smallest step (radians).
_NEWTON_STEPS = 10
_NEWTON_TINY = 1e-13
# Grid values this many rounding units (of the largest) below the extremum
# tie with it.
_TIE_ULPS = 64
_EPS = float(np.finfo(float).eps)

TAIL_DISCLAIMER = (
    "tail allowance is a coefficient-growth heuristic, not a rigorous bound"
)


class DegenerateSeriesError(SeriesError):
    """Series carries no usable signal for the requested check."""


# 0.10..0.99 step 0.01, then 0.995
_DEFAULT_RADII = tuple(round(0.10 + 0.01 * i, 10) for i in range(90)) + (0.995,)


@dataclass(frozen=True)
class SamplingConfig:
    """Grid and policy for sup estimation on the disk.

    ``radii`` are candidate circles, ascending, each inside (0, 1);
    ``angles`` is an integer (Python or numpy, not ``bool``) from 64 to
    2**20 and ``refine`` a ``bool``.  Anything else is refused with a
    ``ParameterError`` naming the field.  The margin policy is fixed: a
    hypothesis certifies only when the sampled sup plus the tail allowance
    at the sampled radius stays below the bound.
    """

    radii: tuple[float, ...] = _DEFAULT_RADII
    angles: int = 2048
    refine: bool = True

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii:
            raise ParameterError("at least one sampling radius is required")
        if any(not 0.0 < r < 1.0 for r in self.radii):
            raise ParameterError("sampling radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ParameterError("sampling radii must be strictly ascending")
        if (isinstance(self.angles, bool)
                or not isinstance(self.angles, (int, np.integer))):
            raise ParameterError(
                f"angles must be an integer, got {self.angles!r}")
        if self.angles < 64:
            raise ParameterError(f"need at least 64 angles per circle, got {self.angles}")
        if self.angles > 2 ** 20:
            raise ParameterError(f"at most 2**20 angles per circle, got {self.angles}")
        if not isinstance(self.refine, bool):
            raise ParameterError(f"refine must be a bool, got {self.refine!r}")


class Verdict(Enum):
    CERTIFIED_SAMPLED = "CERTIFIED_SAMPLED"
    HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
    CONCLUSION_FAILED = "CONCLUSION_FAILED"
    INADMISSIBLE = "INADMISSIBLE"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class Extremum:
    """Sampled sup of ``|a|`` or min of ``Re a`` over a disk, taken at a
    witness on its boundary circle.  ``tail`` is the allowance at the
    witness radius (0 where none is computed) and ``skipped_radii`` are the
    candidates above it that the tail heuristic refused."""

    value: float
    witness_r: float
    witness_theta: float
    witness_value: complex
    tail: float = 0.0
    skipped_radii: tuple[float, ...] = ()


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
    cross_witness: tuple[float, float] | None = None
    worst_witness: tuple[float, float, complex] | None = None
    denominator_violations: tuple[tuple[float, float, str, float], ...] = ()
    skipped_radii: tuple[float, ...] = ()
    tail_flag: str = TAIL_DISCLAIMER
    escalation: str | None = None


def _objective(v, sign: float):
    return np.abs(v) if sign > 0 else v.real


def _angle_sums(a: Series, r: float):
    """``p(theta) = a(r e^(i theta))``, the trigonometric sum of ``c_k r^k``,
    with its first two derivatives in ``theta`` (``p' = i z a'(z)``), as a
    function of the angle returning all three."""
    k = np.arange(a.coeffs.size)
    ik = 1j * k
    sums = np.empty((3, k.size), dtype=np.complex128)
    b = np.multiply(a.coeffs, radius_powers(r, k.size), out=sums[0])
    np.multiply(ik, b, out=sums[1])
    np.multiply(-(k * k), b, out=sums[2])
    return lambda theta: sums @ np.exp(ik * theta)


def _refine_circle(a: Series, r: float, theta0: float, span: float,
                   sign: float, value0: complex, tol: float):
    """Newton steps on the angle from the grid point ``(theta0, value0)``
    toward the max of ``|a|`` (sign=+1) or min of ``Re a`` (sign=-1) on
    ``|z| = r``, on the trigonometric sums of :func:`_angle_sums`.  Stops on
    wrong-sign curvature, a step out of ``theta0 +- span``, a tiny step or the
    cap.  The sums are read once per angle the steps visit: at ``theta0``,
    then after each step that moves the angle.  Returns refined
    ``(theta, a(z))``, the last read, if its objective beats the grid value
    by more than ``tol``, else the grid point: a gain at rounding level is a
    tie, and a tie stays at the grid angle.  The steps do their arithmetic
    on Python floats, which round as numpy's scalars do."""
    at = _angle_sums(a, r)
    theta, sums = theta0, at(theta0)
    for _ in range(_NEWTON_STEPS):
        p, p1, p2 = sums.tolist()
        if sign > 0:  # half the derivatives of |p|^2
            # scaled by one power of two, so the squares cannot overflow
            # and the step d1/d2 keeps its bits; 2^1023 is the largest
            # finite one, which a subnormal circle would exceed
            e = math.frexp(max(abs(p), abs(p1), abs(p2)))[1]
            s = math.ldexp(1.0, min(1023, -e))
            p, p1, p2 = p * s, p1 * s, p2 * s
            d1 = (p.conjugate() * p1).real
            d2 = abs(p1) ** 2 + (p.conjugate() * p2).real
        else:
            d1, d2 = p1.real, p2.real
        if sign * d2 >= 0.0:
            break
        step = float(d1 / d2)
        if abs(theta - step - theta0) > span:
            break
        if theta - step != theta:
            theta -= step
            sums = at(theta)
        if abs(step) < _NEWTON_TINY:
            break
    value = sums[0]
    better = sign * (_objective(value, sign) - _objective(value0, sign)) > tol
    return (theta, value) if better else (theta0, value0)


def _circle_extremum(a: Series, r: float, cfg: SamplingConfig, sign: float,
                     tail: float = 0.0,
                     skipped_radii: tuple[float, ...] = ()) -> Extremum:
    """Grid extremum of ``|a|`` (sign=+1, max) or ``Re a`` (sign=-1, min)
    on ``|z| = r``, refined if configured, recorded with the given tail
    allowance and skipped radii.  Ties go to the smallest angle: the first
    grid point within ``_TIE_ULPS`` rounding units of the extremum counts
    as reaching it, so rounding cannot pick among equal values (``|S z^n|``
    is constant on the circle, for one)."""
    vals = evaluate_grid(a, Circle(r, cfg.angles))
    obj = sign * _objective(vals, sign)
    top = float(obj.max())
    # the largest |objective|: the modulus is never negative
    big = top if sign > 0 else max(top, -float(obj.min()))
    tol = _TIE_ULPS * _EPS * big
    j = int((obj >= top - tol).argmax())
    theta, value = 2.0 * np.pi * j / cfg.angles, vals[j]
    if cfg.refine:
        theta, value = _refine_circle(
            a, r, theta, 2.0 * np.pi / cfg.angles, sign, value, tol)
    return Extremum(float(_objective(value, sign)), r, theta, complex(value),
                    tail, skipped_radii)


def sup_on_disk(a: Series, cfg: SamplingConfig) -> Extremum:
    """Sampled supremum of ``|a|`` over ``|z| <= r``, taken on ``|z| = r``
    (maximum modulus), for the largest candidate ``r`` whose tail
    allowance is finite.  The heuristic refuses ``r`` iff ``q r >= 1`` for
    one growth ratio ``q >= 0`` of ``a``, and ``q r`` rounds monotonely in
    ``r``, so the refused radii, reported as skipped, top the ascending
    ladder.  The top radius is tried first; if it is refused, the ladder is
    cut in one pass at the last radius with ``q r < 1``: two tail estimates
    and one growth ratio."""
    radii = cfg.radii
    top, tail = len(radii), tail_estimate(a, radii[-1])
    if math.isinf(tail):
        q = _growth_ratio(a)
        top = sum(q * r < 1.0 for r in radii)
        if not top:
            raise DegenerateSeriesError(
                "every sampling radius was refused by the tail heuristic")
        tail = tail_estimate(a, radii[top - 1])
    return _circle_extremum(a, radii[top - 1], cfg, +1.0, tail, radii[top:])


def min_real_on_disk(a: Series, cfg: SamplingConfig) -> Extremum:
    """Sampled infimum of ``Re(a)`` over the largest candidate disk, taken on
    its boundary (minimum principle); no tail allowance is computed."""
    return _circle_extremum(a, cfg.radii[-1], cfg, -1.0)


def _zero_free(b: np.ndarray, r: float) -> bool:
    """Rouche against the constant term: ``sum b_k z^k`` has no zero on
    ``|z| <= r`` when ``|b0| > sum_(k>=1) |b_k| r^k``.  The margin must
    clear the sample floor and the rounding of the sum,
    ``4 (N+1) eps (|b0| + sum)``, so no sample on ``|z| = r`` can fall
    below the floor either; an overflowing sum decides nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.abs(b)
        head = float(mags[0])
        rest = float(mags[1:] @ radius_powers(r, b.size)[1:])
    margin = head - rest
    return (margin > _DENOM_FLOOR
            and margin > 4.0 * b.size * _EPS * (head + rest))


def _denominator_violations(f: SchlichtCandidate, cfg: SamplingConfig):
    """Zeros of ``f/z`` or ``f'`` inside the outer candidate circle.  A
    series the coefficient test :func:`_zero_free` clears has none;
    otherwise it is sampled, and a sample below the floor, or else a
    nonzero argument-principle count (untrusted, so also flagged, when a
    phase step reaches pi/2) reported at the sample of least modulus, is a
    violation.  A zero-free polynomial has its least modulus on the
    boundary, so near-zeros inside show on this circle too.  Both run on
    the coefficient arrays, ``c[1:]`` and ``f'``; an ``f'`` that
    overflows is refused before either is looked at, and only a sampled
    one is boxed as a :class:`Series`."""
    circle = Circle(cfg.radii[-1], cfg.angles)
    c = f.series.coeffs
    with np.errstate(over="ignore"):  # an overflow is the refusal below
        fprime = _derivative(c)
    _require_finite(fprime)
    out = []
    for label, b in (("f/z", c[1:]), ("f'", fprime)):
        if _zero_free(b, circle.r):
            continue
        vals = evaluate_grid(Series(b), circle)
        mags = np.abs(vals)
        bad = (mags < _DENOM_FLOOR).nonzero()[0]
        if not bad.size:
            # scaled by one power of two, the middle of the moduli's
            # exponents, so no product of neighbours over- or underflows;
            # a product finite unscaled keeps its phase bits
            mid = (math.frexp(mags.min())[1] + math.frexp(mags.max())[1]) // 2
            vals = vals * math.ldexp(1.0, -mid)
            # summed principal phase steps / 2 pi = zeros inside the circle
            nxt = np.concatenate((vals[1:], vals[:1]))
            steps = np.angle(nxt * np.conj(vals))
            if (np.abs(steps).max() >= 0.5 * np.pi
                    or round(steps.sum() / (2.0 * np.pi)) != 0):
                bad = [int(mags.argmin())]
        out.extend((circle.r, float(2.0 * np.pi * j / circle.m), label,
                    float(mags[j])) for j in bad)
    return tuple(out[:_DENOM_CAP])


def check_criterion(f: SchlichtCandidate, p: CriterionParams,
                    cfg: SamplingConfig) -> VerificationReport:
    """Sample one criterion in one straight line.  MOCANU takes ``min Re``
    of its functional once, and that record is its hypothesis and its
    conclusion.  A modulus kind takes ``sup |lhs|``, the only margin that
    folds in the tail allowance (refused at every radius, it ends the run
    DEGENERATE with nothing else sampled), then ``sup |f/(zf') - c|``
    (refused, its fields are None and the verdict DEGENERATE unless the
    hypothesis failed).  Where the spec states a starlikeness order,
    ``Re(zf'/f) > order`` is sampled as the cross-check and must hold for a
    certificate.  A class index above the candidate's is refused with a
    ``ParameterError``: the class-``n`` theorem presumes ``a_2..a_n = 0``.

    The implication 'hypothesis implies conclusion' is a theorem, so a run
    where the hypothesis certifies but the conclusion fails is escalated
    as a suspected implementation/numerics bug rather than reported as a
    counterexample.
    """
    if p.n > f.n:
        raise ParameterError(
            f"class index n={p.n} exceeds the candidate's n={f.n}")
    spec = build_spec(p)
    if not spec.admissible:
        return VerificationReport(kind=p.kind, spec=spec,
                                  verdict=Verdict.INADMISSIBLE)

    violations = _denominator_violations(f, cfg)
    if spec.lhs is FunctionalKind.MOCANU_Q:
        h = c = min_real_on_disk(mocanu_functional(f, spec.alpha), cfg)
        hyp_margin = con_margin = h.value - spec.rhs_bound
    else:
        lhs = lhs_a if spec.lhs is FunctionalKind.LHS_A else lhs_b
        try:
            h = sup_on_disk(lhs(f, spec.eff_beta, spec.eff_gamma), cfg)
        except DegenerateSeriesError:
            return VerificationReport(kind=p.kind, spec=spec,
                                      verdict=Verdict.DEGENERATE,
                                      denominator_violations=violations,
                                      skipped_radii=cfg.radii)
        hyp_margin = spec.rhs_bound - (h.value + h.tail)
        try:
            c = sup_on_disk(centered_quotient(f, spec.conclusion_center), cfg)
        except DegenerateSeriesError:
            c = con_margin = None
        else:
            con_margin = spec.conclusion_radius - c.value
    x = cross_margin = None
    if spec.order is not None:
        x = min_real_on_disk(starlike_quotient(f), cfg)
        cross_margin = x.value - spec.order

    escalation = None
    if not hyp_margin > 0:
        verdict = Verdict.HYPOTHESIS_FAILED
    elif con_margin is None:
        verdict = Verdict.DEGENERATE
    elif not (con_margin > 0 and (cross_margin is None or cross_margin > 0)):
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

    return VerificationReport(
        kind=p.kind,
        spec=spec,
        verdict=verdict,
        hypothesis_sup=h.value,
        hypothesis_tail=h.tail,
        hypothesis_margin=hyp_margin,
        hypothesis_witness=(h.witness_r, h.witness_theta),
        conclusion_sup=None if c is None else c.value,
        conclusion_margin=con_margin,
        conclusion_witness=None if c is None else (c.witness_r, c.witness_theta),
        cross_min_re=None if x is None else x.value,
        cross_margin=cross_margin,
        cross_witness=None if x is None else (x.witness_r, x.witness_theta),
        worst_witness=(h.witness_r, h.witness_theta, h.witness_value),
        denominator_violations=violations,
        skipped_radii=h.skipped_radii,
        escalation=escalation,
    )


def jack_demo(w: Series, m: int, r: float, cfg: SamplingConfig) -> JackResult:
    """Locate the modulus maximum of ``w`` on ``|z| = r`` and report
    ``k = z0 w'(z0) / w(z0)`` there.

    For a series vanishing to order ``m`` at the origin, ``k`` should be a
    real number >= m; the result records whether both assertions hold
    within tolerance (1e-6, relative for the real part).  A circle on which
    ``sum (1 + k^2) |c_k| r^k``, a bound on every sum the probe takes,
    overflows is refused before it is sampled.
    """
    if m < 1:
        raise ParameterError(f"vanishing order must be >= 1, got {m}")
    if not 0.0 < r < 1.0:
        raise ParameterError(f"radius must lie in (0, 1), got {r}")
    mags = np.abs(w.coeffs)
    scale_ref = float(mags.max()) if mags.size else 0.0
    if scale_ref > 0 and np.any(mags[:m] > 1e-12 * scale_ref):
        raise ParameterError(
            f"series does not vanish to order {m} at the origin"
        )
    k = np.arange(mags.size)
    with np.errstate(over="ignore"):  # an overflow is the refusal below
        bound = float(np.sum((1.0 + k * k) * mags * radius_powers(r, k.size)))
    if not math.isfinite(bound):
        raise DegenerateSeriesError(
            f"sum of (1 + k^2) |c_k| r^k overflows on |z| = {r}; the circle "
            "cannot be evaluated"
        )
    peak = _circle_extremum(w, r, cfg, +1.0)
    if peak.value < 1e-14:
        raise DegenerateSeriesError(
            f"|w| below 1e-14 everywhere on |z| = {r}; no maximum to probe"
        )
    z0 = r * complex(math.cos(peak.witness_theta), math.sin(peak.witness_theta))
    # z0 w'(z0) = -i p'(theta) = sum k c_k r^k e^(i k theta)
    k = complex(-1j * _angle_sums(w, r)(peak.witness_theta)[1]
                / peak.witness_value)
    imag_ok = abs(k.imag) <= 1e-6 * (1.0 + abs(k))
    real_ok = k.real >= m * (1.0 - 1e-6)
    return JackResult(k_est=k, max_point=z0, max_modulus=peak.value,
                      imag_ok=imag_ok, real_ok=real_ok)
