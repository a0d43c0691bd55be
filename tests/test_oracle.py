import collections
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starcert import oracle, series
from starcert.series import (
    Circle,
    Series,
    SchlichtCandidate,
    builtin_candidate,
    derivative,
    evaluate_grid,
    make_series,
    schlicht_from_tail,
    tail_estimate,
)
from starcert.criteria import CriterionKind, CriterionParams, build_spec
from starcert.extremals import (
    ExtremalFamily,
    ExtremalParams,
    build_extremal,
    documented_grid,
)
from starcert.functionals import (
    FunctionalKind,
    ParameterError,
    centered_quotient,
    lhs_a,
    lhs_b,
    starlike_quotient,
    unit_part,
)
from starcert.oracle import (
    DegenerateSeriesError,
    Extremum,
    SamplingConfig,
    Verdict,
    check_criterion,
    jack_demo,
    min_real_on_disk,
    sup_on_disk,
)


def monomial(coeff: complex, power: int, trunc_order: int) -> Series:
    """``coeff z^power`` truncated at order ``trunc_order``."""
    arr = np.zeros(trunc_order + 1, dtype=np.complex128)
    arr[power] = coeff
    return Series(arr)


CFG = SamplingConfig(
    radii=tuple(round(0.1 + 0.05 * i, 10) for i in range(18)) + (0.99, 0.995),
    angles=512,
)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(radii=(0.5, 0.4))
    with pytest.raises(ValueError):
        SamplingConfig(radii=(0.5, 1.0))
    with pytest.raises(ValueError):
        SamplingConfig(angles=16)


@pytest.mark.parametrize("kwargs", [
    {"angles": 2048.0}, {"angles": True}, {"angles": "512"},
    {"refine": "no"}, {"refine": 1}, {"refine": None},
], ids=repr)
def test_config_refuses_mistyped_angles_and_refine(kwargs):
    (field,) = kwargs
    with pytest.raises(ParameterError, match=field):
        SamplingConfig(**kwargs)


def test_config_accepts_numpy_integer_angles():
    assert SamplingConfig(angles=np.int64(512)).angles == 512


@pytest.mark.parametrize("angles", [2 ** 20 + 1, 10 ** 20])
def test_config_refuses_more_than_2_to_the_20_angles(angles):
    assert SamplingConfig(angles=2 ** 20).angles == 2 ** 20
    with pytest.raises(ParameterError) as e:
        SamplingConfig(angles=angles)
    assert str(e.value) == f"at most 2**20 angles per circle, got {angles}"


def test_default_radii_grid():
    cfg = SamplingConfig()
    assert cfg.radii[0] == 0.1
    assert cfg.radii[-1] == 0.995
    assert cfg.radii[-2] == 0.99
    assert len(cfg.radii) == 91


# ------------------------------------------------------------------ sup

def test_sup_monomial_is_top_radius_power():
    for n in (1, 2, 3):
        est = sup_on_disk(monomial(1.0, n, 16), CFG)
        assert est.value == pytest.approx(0.995**n, rel=1e-12)
        assert est.witness_r == 0.995


def test_sup_one_plus_z():
    est = sup_on_disk(make_series([1.0, 1.0] + [0] * 6), CFG)
    assert est.value == pytest.approx(1.995, rel=1e-10)
    assert min(abs(est.witness_theta), abs(est.witness_theta - 2 * math.pi)) < 1e-6


def test_sup_truncated_geometric_near_closed_form():
    s = make_series([1.0] * 65, 64)
    cfg = SamplingConfig(radii=tuple(round(0.1 + 0.1 * i, 10) for i in range(9)),
                         angles=256)
    est = sup_on_disk(s, cfg)
    assert est.value == pytest.approx(10.0, rel=0.01)


def value_at(s, z):
    return complex(np.polyval(s.coeffs[::-1], z))


def test_sup_witness_reproduces_value():
    rng = np.random.default_rng(3)
    s = Series(rng.normal(size=12) + 1j * rng.normal(size=12))
    est = sup_on_disk(s, CFG)
    z = est.witness_r * complex(math.cos(est.witness_theta),
                                math.sin(est.witness_theta))
    assert abs(value_at(s, z)) == pytest.approx(est.value, abs=1e-10)


def test_sup_monotone_in_angles_and_radii():
    s = make_series([1.0] * 33, 32)
    sups = []
    for m in (64, 256, 1024):
        cfg = SamplingConfig(radii=(0.3, 0.6, 0.9), angles=m, refine=False)
        sups.append(sup_on_disk(s, cfg).value)
    assert sups[0] <= sups[1] + 1e-12
    assert sups[1] <= sups[2] + 1e-12
    bigger = SamplingConfig(radii=(0.3, 0.6, 0.9, 0.95), angles=1024,
                            refine=False)
    assert sup_on_disk(s, bigger).value >= sups[2] - 1e-12


def test_sup_refinement_never_below_grid():
    # decaying coefficients keep the tail heuristic finite at this radius
    rng = np.random.default_rng(4)
    for _ in range(10):
        mags = 0.5 ** np.arange(10) * rng.uniform(0.7, 1.0, 10)
        s = Series(mags * np.exp(2j * np.pi * rng.uniform(0, 1, 10)))
        coarse = SamplingConfig(radii=(0.9,), angles=64, refine=False)
        fine = SamplingConfig(radii=(0.9,), angles=64, refine=True)
        assert (sup_on_disk(s, fine).value
                >= sup_on_disk(s, coarse).value - 1e-12)


def test_refined_witness_is_first_order_stationary():
    # d/dtheta |p|^2 = -2 |p|^2 Im(z p'/p) and d/dtheta Re p = -Im(z p')
    rng = np.random.default_rng(5)
    cfg = SamplingConfig(radii=(0.9,), angles=256)
    k = np.arange(16)
    for _ in range(20):
        mags = 0.6 ** k * rng.uniform(0.5, 1.0, 16)
        s = Series(mags * np.exp(2j * np.pi * rng.uniform(0, 1, 16)))
        ds = derivative(s)
        est = sup_on_disk(s, cfg)
        assert type(est.witness_theta) is float
        z = 0.9 * complex(math.cos(est.witness_theta),
                          math.sin(est.witness_theta))
        q = z * value_at(ds, z) / value_at(s, z)
        assert abs(q.imag) / (1.0 + abs(q)) <= 1e-12
        low = min_real_on_disk(s, cfg)
        z = 0.9 * complex(math.cos(low.witness_theta),
                          math.sin(low.witness_theta))
        scale = float(np.sum(k * np.abs(s.coeffs) * 0.9 ** k))
        assert abs((z * value_at(ds, z)).imag) <= 1e-12 * scale


def test_sup_skips_radii_with_infinite_tail():
    s = Series(np.array([2.0**k for k in range(17)]))
    cfg = SamplingConfig(radii=(0.2, 0.9), angles=64)
    est = sup_on_disk(s, cfg)
    assert est.skipped_radii == (0.9,)
    assert est.witness_r == 0.2


def test_one_circle_equals_best_single_radius():
    # maximum modulus and minimum principle: sampling only the outer
    # candidate circle gives the best result of sampling each radius alone
    rng = np.random.default_rng(11)
    radii = (0.3, 0.6, 0.9, 0.95)
    cfg = SamplingConfig(radii=radii, angles=256)
    singles = [SamplingConfig(radii=(r,), angles=256) for r in radii]
    for _ in range(10):
        mags = 0.5 ** np.arange(12) * rng.uniform(0.5, 1.0, 12)
        s = Series(mags * np.exp(2j * np.pi * rng.uniform(0, 1, 12)))
        est = sup_on_disk(s, cfg)
        per_radius = [sup_on_disk(s, c) for c in singles]
        best = max(per_radius, key=lambda e: e.value)
        assert (est.value, est.witness_r, est.witness_theta) == (
            best.value, best.witness_r, best.witness_theta)
        assert est.value + est.tail == max(e.value + e.tail for e in per_radius)
        low = min_real_on_disk(s, cfg)
        assert isinstance(low, Extremum)
        assert (low.tail, low.skipped_radii) == (0.0, ())
        best_low = min((min_real_on_disk(s, c) for c in singles),
                       key=lambda e: e.value)
        assert (low.value, low.witness_r, low.witness_theta) == (
            best_low.value, best_low.witness_r, best_low.witness_theta)


def test_min_real_halfplane_quotient():
    # zf'/f for z/(1-z) is 1/(1-z), whose min Re on |z| = r is 1/(1+r);
    # cap the radius so the truncated geometric series is resolved there
    q = builtin_candidate("halfplane", 96)
    from starcert.functionals import starlike_quotient
    cfg = SamplingConfig(radii=(0.3, 0.6, 0.9), angles=512)
    est = min_real_on_disk(starlike_quotient(q), cfg)
    assert est.value == pytest.approx(1 / 1.9, abs=1e-4)
    assert abs(est.witness_theta - math.pi) < 0.01


# ------------------------------------------------------------------ check_criterion

def test_identity_function_certifies_thm_b():
    f = builtin_candidate("identity", 32)
    p = CriterionParams(kind=CriterionKind.THM_B, n=1, beta=0.1, gamma=1.0,
                        alpha=0.5)
    rep = check_criterion(f, p, CFG)
    assert rep.verdict is Verdict.CERTIFIED_SAMPLED
    assert rep.hypothesis_margin > 0
    assert rep.conclusion_margin > 0
    assert rep.cross_margin > 0
    assert not rep.denominator_violations


def test_constant_functional_witness_is_grid_argmax():
    # every functional of f = z is constant: no angle beats the first one
    f = builtin_candidate("identity", 32)
    p = CriterionParams(kind=CriterionKind.THM_B, n=1, beta=0.1, gamma=1.0,
                        alpha=0.5)
    cfg = SamplingConfig(radii=(0.2, 0.5, 0.8, 0.9), angles=256)
    rep = check_criterion(f, p, cfg)
    assert rep.hypothesis_witness == (0.9, 0.0)
    assert rep.conclusion_witness == (0.9, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_b_hypothesis_witness_at_smallest_angle(n):
    # lhs_b is S z^n: every grid angle reaches the sup up to rounding, so the
    # tie goes to theta = 0 whatever the evaluator's rounding
    p = ExtremalParams(family=ExtremalFamily.EXTREMAL_B, n=n, alpha=0.5,
                       beta=1.0, gamma=1.0)
    crit = CriterionParams(kind=CriterionKind.THM_B, n=n, beta=1.0, gamma=1.0,
                           alpha=0.5)
    rep = check_criterion(build_extremal(p, 128), crit, CFG)
    assert rep.hypothesis_witness == (0.995, 0.0)


@pytest.mark.parametrize("cfg", [
    SamplingConfig(),
    SamplingConfig(radii=tuple(round(0.10 + 0.02 * i, 10) for i in range(45))
                   + (0.99,), angles=512),
], ids=["default", "acceptance"])
def test_grid_family_b_hypothesis_witness_not_moved_by_refinement(cfg):
    # |S z^n| is constant on the circle, so a refined angle can gain at most
    # rounding over the grid's theta = 0 and must not replace it
    for p in documented_grid(ExtremalFamily.EXTREMAL_B):
        crit = CriterionParams(kind=CriterionKind.THM_B, n=p.n, beta=p.beta,
                               gamma=p.gamma, alpha=p.alpha)
        rep = check_criterion(build_extremal(p, 128), crit, cfg)
        assert rep.hypothesis_witness == (cfg.radii[-1], 0.0), p


def test_identity_function_certifies_lemma_a():
    f = builtin_candidate("identity", 32)
    p = CriterionParams(kind=CriterionKind.LEMMA_A, n=1, beta=0.0, gamma=1.0,
                        rho=1.0)
    rep = check_criterion(f, p, CFG)
    # lhs_a for f=z is the constant beta=0; bound 0.5
    assert rep.verdict is Verdict.CERTIFIED_SAMPLED
    assert rep.hypothesis_sup == pytest.approx(0.0, abs=1e-14)
    assert rep.conclusion_sup == pytest.approx(0.0, abs=1e-14)


def test_inadmissible_short_circuits():
    f = builtin_candidate("identity", 32)
    p = CriterionParams(kind=CriterionKind.LEMMA_A, n=1, beta=2.0, gamma=1.0,
                        rho=1.0)
    rep = check_criterion(f, p, CFG)
    assert rep.verdict is Verdict.INADMISSIBLE
    assert rep.hypothesis_sup is None


def test_koebe_fails_hypothesis_thm_a():
    f = builtin_candidate("koebe", 128)
    p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.0, gamma=1.0,
                        alpha=0.5)
    rep = check_criterion(f, p, CFG)
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED
    assert rep.hypothesis_margin < 0


def test_hypothesis_tail_is_the_allowance_at_the_witness_radius():
    # the allowance here is far below one ulp of the sup: sup + tail == sup
    f = builtin_candidate("koebe", 128)
    beta, gamma = 0.2, 1 - 0.2j
    p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=beta, gamma=gamma,
                        alpha=0.7)
    rep = check_criterion(f, p, SamplingConfig())
    tail = tail_estimate(lhs_a(f, beta, gamma), rep.hypothesis_witness[0])
    assert rep.hypothesis_tail == tail > 0
    assert rep.hypothesis_margin == rep.spec.rhs_bound - (
        rep.hypothesis_sup + rep.hypothesis_tail)


def test_koebe_contrapositive_sample():
    # the hypothesis may never certify while the conclusion fails
    rng = np.random.default_rng(8)
    f = builtin_candidate("koebe", 128)
    for _ in range(5):
        t = rng.uniform(-1.0, 0.8)
        gamma = complex(math.cos(rng.uniform(0, 2 * math.pi)),
                        math.sin(rng.uniform(0, 2 * math.pi)))
        beta = gamma * complex(t, rng.uniform(-1, 1))
        p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=beta,
                            gamma=gamma, alpha=0.5)
        rep = check_criterion(f, p, CFG)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
        hyp_ok = rep.hypothesis_margin is not None and rep.hypothesis_margin > 0
        concl_bad = rep.conclusion_margin is not None and rep.conclusion_margin <= 0
        assert not (hyp_ok and concl_bad)


def test_extremal_b_certifies():
    p = ExtremalParams(family=ExtremalFamily.EXTREMAL_B, n=1, alpha=0.5,
                       beta=1.0, gamma=1.0)
    f = build_extremal(p, 128)
    crit = CriterionParams(kind=CriterionKind.THM_B, n=1, beta=1.0, gamma=1.0,
                           alpha=0.5)
    rep = check_criterion(f, crit, CFG)
    assert rep.verdict is Verdict.CERTIFIED_SAMPLED
    # lhs_b is S z, so the sampled sup sits at S * (top radius)
    assert rep.hypothesis_sup == pytest.approx(1.5 * 0.995, rel=1e-9)


def test_every_radius_refused_is_degenerate():
    f = builtin_candidate("koebe", 128)
    cfg = SamplingConfig(radii=(0.2, 0.5, 0.8, 0.9), angles=256)
    for beta, gamma, alpha in ((0.1, 2.0, 0.5), (0.2, 1 - 0.2j, 0.7)):
        p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=beta,
                            gamma=gamma, alpha=alpha)
        rep = check_criterion(f, p, cfg)
        assert rep.verdict is Verdict.DEGENERATE
        assert rep.skipped_radii == cfg.radii
        assert rep.hypothesis_sup is None


def test_refused_conclusion_keeps_sampled_hypothesis():
    # the hypothesis tail accepts r = 0.2 while the conclusion's refuses
    # every radius: the failed hypothesis decides the verdict
    tail = [-1.27 - 0.37j, 1.01 - 0.54j, -1.31 + 0.32j, -0.79 + 1.21j,
            0.11 - 0.19j, -0.04 + 0.53j, -1.15 + 0.76j]
    f = schlicht_from_tail(1, tail, 8)
    p = CriterionParams(kind=CriterionKind.LEMMA_B, n=1, beta=0.1, gamma=1.0,
                        rho=1.0)
    cfg = SamplingConfig(radii=(0.2, 0.5, 0.8, 0.9), angles=256)
    rep = check_criterion(f, p, cfg)
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED
    assert rep.hypothesis_witness[0] == 0.2
    assert rep.hypothesis_margin == pytest.approx(-4.56, abs=0.01)
    assert rep.skipped_radii == (0.5, 0.8, 0.9)
    assert rep.conclusion_sup is None and rep.conclusion_margin is None


# the Koebe THM_A cases (beta, gamma, alpha) of the benchmark's
# check_default workload
KOEBE_THM_A = (
    (0j, 1 + 0j, 0.5),
    (0.3 + 0.1j, 1 + 0j, 0.5),
    (-0.5 + 0j, 1 + 0.5j, 0.3),
    (0.2 + 0j, 1 - 0.2j, 0.7),
    (0.5j, 1 + 0j, 0.3),
    (-1 + 0j, 1 + 0j, 0.7),
)


def _linear_sup_on_disk(a, cfg=None):
    """sup_on_disk by a downward scan of the whole ladder, the reference."""
    cfg = cfg or SamplingConfig()
    for i in reversed(range(len(cfg.radii))):
        tail = tail_estimate(a, cfg.radii[i])
        if not math.isinf(tail):
            break
    else:
        raise DegenerateSeriesError(
            "every sampling radius was refused by the tail heuristic")
    peak = oracle._circle_extremum(a, cfg.radii[i], cfg, +1.0)
    return dataclasses.replace(peak, tail=tail, skipped_radii=cfg.radii[i + 1:])


@pytest.fixture
def tail_calls(monkeypatch):
    """Calls to ``series.tail_estimate`` through every starcert binding."""
    calls = []
    original = series.tail_estimate

    def counting(a, r):
        calls.append(r)
        return original(a, r)

    for name, module in list(sys.modules.items()):
        if name == "starcert" or name.startswith("starcert."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_bisected_ladder_matches_a_linear_scan(monkeypatch, tail_calls):
    f = builtin_candidate("koebe", 128)
    per_check = []
    bisected = oracle.sup_on_disk

    def counting(a, cfg=None):
        before = len(tail_calls)
        est = bisected(a, cfg)
        per_check.append(len(tail_calls) - before)
        return est

    for beta, gamma, alpha in KOEBE_THM_A:
        p = CriterionParams(kind=CriterionKind.THM_A, n=1, alpha=alpha,
                            beta=beta, gamma=gamma)
        monkeypatch.setattr(oracle, "sup_on_disk", counting)
        got = check_criterion(f, p, SamplingConfig())
        monkeypatch.setattr(oracle, "sup_on_disk", _linear_sup_on_disk)
        assert check_criterion(f, p, SamplingConfig()) == got
    # four hypotheses refuse the top radius (a downward scan took 31 to 85
    # tail estimates); bisecting 91 radii takes at most 1 + 7
    assert sum(n > 1 for n in per_check) == 4
    assert max(per_check) <= 9


def test_bisected_ladder_matches_a_linear_scan_on_random_ladders():
    rng = np.random.default_rng(23)
    for _ in range(60):
        q = rng.uniform(0.9, 1.6)
        s = Series(q ** np.arange(24) * rng.uniform(0.5, 1.0, 24))
        radii = np.sort(rng.choice(np.arange(0.05, 0.99, 0.01),
                                   size=int(rng.integers(1, 14)),
                                   replace=False))
        cfg = SamplingConfig(radii=tuple(radii), angles=64)
        try:
            want = _linear_sup_on_disk(s, cfg)
        except DegenerateSeriesError:
            with pytest.raises(DegenerateSeriesError):
                sup_on_disk(s, cfg)
            continue
        assert sup_on_disk(s, cfg) == want


def test_certified_hypothesis_with_failed_conclusion_escalates():
    """COR_A at n = 1, gamma = 2, alpha = 0.7 on the family-A extremal at
    (beta, gamma) = (1, -2): the sampled hypothesis holds, the conclusion
    fails, and the run is escalated.  Here the paper's COR_A bound exceeds
    the one Jack's lemma supports; checking against the latter (ROADMAP
    item 1) will turn this case into HYPOTHESIS_FAILED."""
    p = ExtremalParams(family=ExtremalFamily.EXTREMAL_A, n=1, alpha=0.7,
                       beta=1.0, gamma=-2.0)
    crit = CriterionParams(kind=CriterionKind.COR_A, n=1, gamma=2.0, alpha=0.7)
    cfg = SamplingConfig(radii=(0.5, 0.9), angles=256)
    rep = check_criterion(build_extremal(p), crit, cfg)
    assert rep.verdict is Verdict.CONCLUSION_FAILED
    assert rep.hypothesis_margin == pytest.approx(0.0177, abs=1e-4)
    assert rep.conclusion_margin == pytest.approx(-0.0227, abs=1e-4)
    assert "suspected implementation or truncation error" in rep.escalation


def test_cor_a_is_thm_a_at_corollary_parameters():
    for name in ("identity", "halfplane", "koebe"):
        f = builtin_candidate(name, 32 if name == "identity" else 128)
        for gamma, alpha in ((-0.5, 0.3), (0.5, 0.7), (-2.0, 0.5)):
            cor = check_criterion(f, CriterionParams(
                kind=CriterionKind.COR_A, n=1, gamma=gamma, alpha=alpha), CFG)
            thm = check_criterion(f, CriterionParams(
                kind=CriterionKind.THM_A, n=1, beta=1.0, gamma=-gamma,
                alpha=alpha), CFG)
            spec = dataclasses.replace(cor.spec, kind=CriterionKind.THM_A)
            assert dataclasses.replace(
                cor, kind=CriterionKind.THM_A, spec=spec) == thm, (name, gamma)


def test_lemma_conclusion_samples_w():
    # for f = z/(1-z), f/(zf') - 1 = -z, so sup |w| on |z| = 0.9 is 0.9
    f = builtin_candidate("halfplane", 128)
    cfg = SamplingConfig(radii=(0.2, 0.5, 0.8, 0.9), angles=256)
    for kind, beta, rho in ((CriterionKind.LEMMA_A, 0.0, 1.0),
                            (CriterionKind.LEMMA_B, 0.1, 0.5)):
        p = CriterionParams(kind=kind, n=1, beta=beta, gamma=1.0, rho=rho)
        rep = check_criterion(f, p, cfg)
        assert abs(rep.conclusion_sup - 0.9) < 1e-12
        assert rep.conclusion_margin == rho - rep.conclusion_sup
        assert rep.cross_margin is None


def test_denominator_violation_detected():
    # f = z + z^2 has f'(-1/2) = 0 inside the sampled disk
    f = SchlichtCandidate(n=1, series=make_series([0, 1, 1] + [0] * 29))
    p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.1, gamma=1.0,
                        alpha=0.5)
    cfg = SamplingConfig(radii=(0.25, 0.5, 0.75), angles=512)
    rep = check_criterion(f, p, cfg)
    assert rep.denominator_violations
    assert any(label == "f'" for _, _, label, _ in rep.denominator_violations)
    assert rep.verdict is not Verdict.CERTIFIED_SAMPLED


def test_denominator_zero_between_samples_detected():
    # f'(z) = 1 + 2az vanishes at |z| = 0.9055, between two default radii
    # and off every sampling ray; f/z = 1 + az has no zero in the disk
    a = complex(math.cos(1.0), math.sin(1.0)) / (2 * 0.9055)
    f = SchlichtCandidate(n=1, series=make_series([0, 1, a] + [0] * 29))
    p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.1, gamma=1.0,
                        alpha=0.5)
    rep = check_criterion(f, p, SamplingConfig())
    assert [label for _, _, label, _ in rep.denominator_violations] == ["f'"]
    assert rep.verdict is not Verdict.CERTIFIED_SAMPLED


def test_truncated_koebe_derivative_zeros_detected():
    # the truncated Koebe derivative has positive increasing coefficients,
    # so its zeros crowd the unit circle (Enestrom-Kakeya)
    f = builtin_candidate("koebe", 128)
    p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.0, gamma=1.0,
                        alpha=0.5)
    rep = check_criterion(f, p, SamplingConfig())
    assert rep.denominator_violations
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED


def _scan(s, r, m):
    """The denominator monitor's sampled test on one series, as it runs
    when the coefficient test decides nothing: the samples below the floor
    and the argument-principle zero count on ``|z| = r``."""
    vals = evaluate_grid(s, Circle(r, m))
    steps = np.angle(np.roll(vals, -1) * np.conj(vals))
    return (int(np.sum(np.abs(vals) < oracle._DENOM_FLOOR)),
            round(np.sum(steps) / (2.0 * np.pi)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.floats(0.05, 0.999), st.floats(0.5, 1.2),
       st.sampled_from([64, 512]), st.integers(0, 2**32 - 1))
def test_coefficient_test_settles_only_zero_free_circles(degree, r, ratio, m,
                                                         seed):
    # sum_(k>=1) |b_k| r^k is ratio |b0|, so about half the draws settle
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.0, degree + 1) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, degree + 1))
    b[1:] *= ratio * abs(b[0]) / np.sum(np.abs(b[1:]) * r ** np.arange(1, degree + 1))
    if oracle._zero_free(b, r):
        assert _scan(Series(b), r, m) == (0, 0)


@pytest.mark.parametrize("excess, settled", [
    (-2e-9, True), (-0.5e-9, False), (0.0, False), (1e-6, False)])
def test_coefficient_test_needs_a_margin_above_the_floor(excess, settled):
    # 1 + c z^8 with c r^8 = 1 + excess is zero-free on |z| <= r iff
    # excess < 0; the test clears it only when -excess is above the floor
    r = 0.99
    b = np.zeros(9, dtype=np.complex128)
    b[0], b[8] = 1.0, (1.0 + excess) / r ** 8
    assert oracle._zero_free(b, r) is settled


def test_coefficient_test_refuses_a_zero_inside_the_circle():
    # f/z = 1 - z/z0 with |z0| = 0.98 < r; f' = 1 - 2z/z0 vanishes at z0/2
    z0 = 0.98 * complex(math.cos(0.3), math.sin(0.3))
    f = SchlichtCandidate(n=1, series=make_series([0, 1, -1 / z0] + [0] * 29))
    assert not oracle._zero_free(unit_part(f).coeffs, 0.99)
    cfg = SamplingConfig(radii=(0.99,), angles=512)
    assert [label for _, _, label, _ in
            oracle._denominator_violations(f, cfg)] == ["f/z", "f'"]


def test_coefficient_test_decides_nothing_on_an_overflowing_sum():
    # sum |b_k| r^k overflows to inf: the series falls through to the
    # sampled test, without a numpy warning
    b = np.array([1.0] + [1e308] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not oracle._zero_free(b, 0.99)


def test_zero_free_quotient_is_not_flagged_for_a_coarse_phase_step():
    # 1 + 1.3 z^40 is zero-free on |z| <= 0.99 (1.3 * 0.99^40 = 0.87 < 1),
    # but its phase turns by more than pi/2 between 64 samples; its
    # derivative 1 + 53.3 z^40 has zeros inside the circle
    f = schlicht_from_tail(1, [0.0] * 39 + [1.3], 64)
    cfg = SamplingConfig(radii=(0.99,), angles=64)
    assert oracle._zero_free(unit_part(f).coeffs, 0.99)
    got = oracle._denominator_violations(f, cfg)
    assert [(r, theta, label) for r, theta, label, _ in got] == [
        (0.99, 2.0 * np.pi * 4 / 64, "f'")]


def test_mocanu_halfplane_certifies():
    # radii capped where the truncated geometric coefficients resolve
    f = builtin_candidate("halfplane", 96)
    p = CriterionParams(kind=CriterionKind.MOCANU, n=1, gamma=1.0, alpha=0.5)
    cfg = SamplingConfig(radii=(0.3, 0.6, 0.9), angles=512)
    rep = check_criterion(f, p, cfg)
    assert rep.verdict is Verdict.CERTIFIED_SAMPLED
    assert rep.hypothesis_margin > 0


def test_mocanu_wide_alpha_runs():
    f = builtin_candidate("identity", 32)
    p = CriterionParams(kind=CriterionKind.MOCANU, n=1, gamma=1.0, alpha=3.0)
    rep = check_criterion(f, p, CFG)
    assert rep.verdict is Verdict.CERTIFIED_SAMPLED


HALFPLANE_CFG = SamplingConfig(radii=(0.5, 0.9), angles=512)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_mocanu_halfplane_closed_forms(alpha):
    """For f = z/(1-z), zf'/f = 1/(1-z) and 1 + zf''/f' = (1+z)/(1-z), so
    J = (1 + alpha z)/(1 - z); on |z| = r both real parts are least at
    z = -r, at 1/(1+r) and (1 - alpha r)/(1+r).  Truncated at order N
    the two quotient series lose z^N/(1-z) and 2 z^N/(1-z), which at
    z = -r (N even) take r^N/(1+r) and (1 + alpha) r^N/(1+r) off those
    values.  Keep r <= 0.9: near r = 1 the truncation's f/z, whose zeros
    lie on |z| = 1, fails every alpha."""
    trunc, r = 128, HALFPLANE_CFG.radii[-1]
    rep = check_criterion(builtin_candidate("halfplane", trunc),
                          CriterionParams(kind=CriterionKind.MOCANU, n=1,
                                          alpha=alpha), HALFPLANE_CFG)
    tail = r ** trunc / (1 + r)
    assert rep.hypothesis_witness == (r, np.pi)
    assert rep.hypothesis_sup == pytest.approx(
        (1 - alpha * r) / (1 + r) - (1 + alpha) * tail, abs=1e-12)
    assert rep.cross_min_re == pytest.approx(1 / (1 + r) - tail, abs=1e-12)
    assert rep.cross_margin == rep.cross_min_re
    assert abs(rep.cross_min_re - 1 / 1.9) < 1e-6
    if alpha <= 1.0:
        assert rep.verdict is Verdict.CERTIFIED_SAMPLED
    else:  # J tends to -1/2 as z -> -1
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
        assert rep.hypothesis_sup == pytest.approx((1 - 1.8) / 1.9, abs=1e-5)


def test_mocanu_failed_conclusion_escalates(monkeypatch):
    # a genuine input fails Re(zf'/f) > 0 only through sampling or
    # truncation error, so the conclusion's input is substituted
    monkeypatch.setattr(oracle, "starlike_quotient",
                        lambda f: make_series([-0.25, 0.0, 0.0]))
    rep = check_criterion(builtin_candidate("halfplane", 128),
                          CriterionParams(kind=CriterionKind.MOCANU, n=1,
                                          alpha=0.5), HALFPLANE_CFG)
    assert rep.hypothesis_margin > 0
    assert rep.cross_min_re == rep.cross_margin == -0.25
    # a constant ties at every angle: the top radius, the smallest angle
    assert rep.cross_witness == (0.9, 0.0)
    assert rep.verdict is Verdict.CONCLUSION_FAILED
    assert "suspected implementation or truncation error" in rep.escalation


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_mocanu_conclusion_is_its_hypothesis_record(alpha):
    # Re J > 0 is sampled once; that record fills the conclusion fields too
    rep = check_criterion(builtin_candidate("halfplane", 128),
                          CriterionParams(kind=CriterionKind.MOCANU, n=1,
                                          alpha=alpha), HALFPLANE_CFG)
    assert rep.hypothesis_tail == 0.0
    assert rep.conclusion_sup == rep.hypothesis_sup
    assert rep.conclusion_margin == rep.hypothesis_margin
    assert rep.conclusion_witness == rep.hypothesis_witness
    assert rep.cross_witness == (0.9, np.pi)


def test_check_refuses_a_class_index_the_candidate_lacks():
    # z + 0.3 z^2 is class 1 only; the n = 2 theorem presumes a_2 = 0, and
    # sampled under it this candidate would certify (margin +0.1145)
    f = schlicht_from_tail(1, [0.3], 32)
    cfg = SamplingConfig(radii=(0.5, 0.9, 0.99), angles=512)

    def thm_b(n):
        return CriterionParams(kind=CriterionKind.THM_B, n=n, beta=1,
                               gamma=1, alpha=0.5)

    rep = check_criterion(f, thm_b(1), cfg)
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED
    assert rep.hypothesis_margin == pytest.approx(-0.3855, abs=1e-4)
    with pytest.raises(ParameterError,
                       match=r"class index n=2 exceeds the candidate's n=1"):
        check_criterion(f, thm_b(2), cfg)
    # a smaller class index is a weaker claim: A(2) lies inside A(1)
    g = builtin_candidate("identity", 32, n=2)
    assert check_criterion(g, thm_b(1), cfg).verdict is Verdict.CERTIFIED_SAMPLED


# ------------------------------------------------------------------ jack

def test_jack_pure_power():
    for m in (1, 2, 3):
        res = jack_demo(monomial(1.0, m, 8), m, 0.9, CFG)
        assert res.conforms
        assert res.k_est.real == pytest.approx(m, rel=1e-12)
        assert abs(res.k_est.imag) < 1e-12


def test_jack_closed_form_example():
    # argmax at z0 = 0.5 where (1 + z0)/(1 + 0.5 z0) = 1.2
    w = make_series([0, 1, 0.5] + [0] * 5)
    res = jack_demo(w, 1, 0.5, CFG)
    assert res.conforms
    assert res.k_est.real == pytest.approx(1.2, rel=1e-7)
    assert abs(res.k_est.imag) < 1e-7
    assert abs(res.max_point - 0.5) < 1e-6


def test_jack_degenerate_zero_series():
    with pytest.raises(DegenerateSeriesError):
        jack_demo(make_series([0, 0, 0, 0]), 1, 0.9, CFG)


def test_jack_rejects_wrong_vanishing_order():
    with pytest.raises(ValueError):
        jack_demo(make_series([0, 1.0, 0.5, 0]), 2, 0.9, CFG)


def test_jack_k_matches_pointwise_derivative():
    # k read off the circle's trigonometric sums equals z0 w'(z0) / w(z0)
    # with w' evaluated at the witness as a polynomial
    rng = np.random.default_rng(12)
    for _ in range(20):
        arr = np.zeros(16, dtype=np.complex128)
        arr[1:] = 0.7 ** np.arange(15) * np.exp(2j * np.pi * rng.uniform(0, 1, 15))
        w = Series(arr)
        res = jack_demo(w, 1, 0.9, CFG)
        z0 = res.max_point
        want = z0 * value_at(derivative(w), z0) / value_at(w, z0)
        assert abs(res.k_est - want) <= 1e-12 * abs(want)


def test_jack_randomized_conformance():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        deg = m + int(rng.integers(1, 9))
        arr = np.zeros(deg + 1, dtype=np.complex128)
        mags = rng.uniform(0.3, 1.0, deg + 1 - m)
        phases = rng.uniform(0, 2 * math.pi, deg + 1 - m)
        arr[m:] = mags * np.exp(1j * phases)
        res = jack_demo(Series(arr), m, 0.9, CFG)
        assert res.imag_ok, f"Im(k) too large: {res.k_est}"
        assert res.real_ok, f"Re(k) below order: {res.k_est} vs {m}"


# ----------------------------------------------------- loops as first written
# The sampling loops as first written, kept as references: the oracle must
# give reports and jack results equal to theirs.

def _stacked_angle_sums(a, r):
    """_angle_sums stacking its three weight rows."""
    k = np.arange(a.coeffs.size)
    b = a.coeffs * r ** k
    sums = np.stack([b, 1j * k * b, -(k * k) * b])
    return lambda theta: sums @ np.exp(1j * k * theta)


def _numpy_scalar_refine(a, r, theta0, span, sign, value0, tol):
    """_refine_circle taking its Newton steps on numpy scalars."""
    at = _stacked_angle_sums(a, r)
    theta = theta0
    for _ in range(oracle._NEWTON_STEPS):
        p, p1, p2 = at(theta)
        if sign > 0:
            s = math.ldexp(1.0, -math.frexp(max(abs(p), abs(p1), abs(p2)))[1])
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
        theta -= step
        if abs(step) < oracle._NEWTON_TINY:
            break
    value = at(theta)[0]
    obj = oracle._objective
    better = sign * (obj(value, sign) - obj(value0, sign)) > tol
    return (theta, value) if better else (theta0, value0)


def _abs_max_circle_extremum(a, r, cfg, sign, tail=0.0, skipped_radii=()):
    """_circle_extremum taking its tolerance from the max of |objective|."""
    vals = evaluate_grid(a, Circle(r, cfg.angles))
    obj = sign * oracle._objective(vals, sign)
    tol = oracle._TIE_ULPS * np.finfo(float).eps * float(np.max(np.abs(obj)))
    j = int(np.argmax(obj >= np.max(obj) - tol))
    theta, value = 2.0 * np.pi * j / cfg.angles, vals[j]
    if cfg.refine:
        theta, value = oracle._refine_circle(
            a, r, theta, 2.0 * np.pi / cfg.angles, sign, value, tol)
    return Extremum(float(oracle._objective(value, sign)), r, theta,
                    complex(value), tail, skipped_radii)


def _roll_monitor(f, cfg):
    """_denominator_violations with np.roll and unscaled phase products."""
    r = cfg.radii[-1]
    out = []
    for label, s in (("f/z", unit_part(f)), ("f'", derivative(f.series))):
        vals = evaluate_grid(s, Circle(r, cfg.angles))
        mags = np.abs(vals)
        bad = np.nonzero(mags < oracle._DENOM_FLOOR)[0]
        if not bad.size:
            steps = np.angle(np.roll(vals, -1) * np.conj(vals))
            if (np.max(np.abs(steps)) >= 0.5 * np.pi
                    or round(np.sum(steps) / (2.0 * np.pi)) != 0):
                bad = [int(np.argmin(mags))]
        out.extend((r, float(2.0 * np.pi * j / cfg.angles), label,
                    float(mags[j])) for j in bad)
    return tuple(out[:oracle._DENOM_CAP])


def _use_first_loops(monkeypatch):
    monkeypatch.setattr(oracle, "_angle_sums", _stacked_angle_sums)
    monkeypatch.setattr(oracle, "_refine_circle", _numpy_scalar_refine)
    monkeypatch.setattr(oracle, "_circle_extremum", _abs_max_circle_extremum)
    monkeypatch.setattr(oracle, "_denominator_violations", _roll_monitor)


ACC_CFG = SamplingConfig(
    radii=tuple(round(0.10 + 0.02 * i, 10) for i in range(45)) + (0.99,),
    angles=512,
)


@pytest.mark.parametrize("cfg", [ACC_CFG, SamplingConfig()],
                         ids=["acceptance", "default"])
def test_grid_reports_equal_the_first_loops(monkeypatch, cfg):
    runs = []
    for family in ExtremalFamily:
        for p in documented_grid(family):
            f = build_extremal(p, 128)
            runs.append((f, p.criterion))
            runs.append((f, CriterionParams(kind=CriterionKind.MOCANU, n=p.n,
                                            alpha=p.alpha)))
    runs.append((builtin_candidate("koebe", 128),
                 CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0j,
                                 gamma=1 + 0j, alpha=0.5)))
    got = [repr(check_criterion(f, c, cfg)) for f, c in runs]
    _use_first_loops(monkeypatch)
    assert got == [repr(check_criterion(f, c, cfg)) for f, c in runs]


def test_jack_k_equals_the_first_loops(monkeypatch):
    rng = np.random.default_rng(41)
    probes = [(builtin_candidate("koebe", 128).series, 1, 0.9)]
    for _ in range(12):
        m = int(rng.integers(1, 4))
        arr = np.zeros(m + 9, dtype=np.complex128)
        arr[m:] = rng.uniform(0.3, 1.0, 9) * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
        probes.append((Series(arr), m, float(rng.uniform(0.5, 0.95))))
    got = [repr(jack_demo(w, m, r, CFG).k_est) for w, m, r in probes]
    _use_first_loops(monkeypatch)
    assert got == [repr(jack_demo(w, m, r, CFG).k_est) for w, m, r in probes]


def _uncached_grid(a, z):
    """evaluate_grid forming its weights ``r^k`` on every call."""
    b = a.coeffs * z.r ** np.arange(a.coeffs.size)
    if b.size > z.m:
        b = np.pad(b, (0, -b.size % z.m)).reshape(-1, z.m).sum(0)
    return np.fft.ifft(b, n=z.m, norm="forward")


def test_mocanu_grid_checks_its_starlike_conclusion():
    # every alpha-convex function is starlike; the eight n = 3, alpha = 0.5
    # cells fail the sampled hypothesis, and no cell fails the conclusion
    verdicts = collections.Counter()
    for family in ExtremalFamily:
        for p in documented_grid(family):
            rep = check_criterion(build_extremal(p, 128), CriterionParams(
                kind=CriterionKind.MOCANU, n=p.n, alpha=p.alpha), ACC_CFG)
            verdicts[rep.verdict] += 1
            assert rep.cross_margin == rep.cross_min_re
            if rep.verdict is Verdict.CERTIFIED_SAMPLED:
                assert rep.cross_min_re >= 0.5685
            else:
                assert (p.n, p.alpha) == (3, 0.5)
                assert rep.verdict is Verdict.HYPOTHESIS_FAILED
    assert verdicts == {Verdict.CERTIFIED_SAMPLED: 64,
                        Verdict.HYPOTHESIS_FAILED: 8}


def test_cached_circle_weights_give_the_uncached_bytes():
    # every series the grid cells sample: the three functionals, f/z, f'
    r = ACC_CFG.radii[-1]
    thetas = (0.0, 0.7, 2.0 * np.pi * 37 / 512, 5.1)
    checked = 0
    for family in ExtremalFamily:
        for p in documented_grid(family):
            f = build_extremal(p, 128)
            spec = build_spec(p.criterion)
            # the grid's theorems take lhs_a (THM_A) or lhs_b (THM_B)
            lhs = lhs_a if spec.lhs is FunctionalKind.LHS_A else lhs_b
            for a in (lhs(f, spec.eff_beta, spec.eff_gamma),
                      centered_quotient(f, spec.conclusion_center),
                      starlike_quotient(f), unit_part(f),
                      derivative(f.series)):
                powers = series.radius_powers(r, a.coeffs.size)
                assert not powers.flags.writeable
                assert powers.tobytes() == (r ** np.arange(a.coeffs.size)).tobytes()
                z = Circle(r, ACC_CFG.angles)
                assert (evaluate_grid(a, z).tobytes()
                        == _uncached_grid(a, z).tobytes())
                at, want = oracle._angle_sums(a, r), _stacked_angle_sums(a, r)
                for theta in thetas:
                    assert at(theta).tobytes() == want(theta).tobytes()
                checked += 1
    assert checked == 72 * 5
