import numpy as np
import pytest

from starcert.criteria import CriterionKind, CriterionParams, build_spec
from starcert.functionals import FunctionalKind, ParameterError


def lemma_a(n=1, beta=0.0, gamma=1.0, rho=1.0):
    return CriterionParams(kind=CriterionKind.LEMMA_A, n=n, beta=beta,
                           gamma=gamma, rho=rho)


def thm_a(n=1, beta=0.0, gamma=1.0, alpha=0.5):
    return CriterionParams(kind=CriterionKind.THM_A, n=n, beta=beta,
                           gamma=gamma, alpha=alpha)


def thm_b(n=1, beta=1.0, gamma=1.0, alpha=0.5):
    return CriterionParams(kind=CriterionKind.THM_B, n=n, beta=beta,
                           gamma=gamma, alpha=alpha)


def displayed_branches(p):
    """The paper's (alpha <= 1/2, alpha >= 1/2) bounds for THM_A or THM_B,
    written out independently of ``build_spec``."""
    if p.kind is CriterionKind.THM_A:
        return (0.5 * abs(p.n * p.gamma - p.beta),
                abs(p.n * p.gamma * (1.0 - p.alpha) - p.alpha * p.beta))
    base = abs(p.beta + p.gamma * (p.n + 1))
    return 0.5 * base, (1.0 - p.alpha) * base


# ------------------------------------------------------------- displayed bounds

def test_lemma_a_displayed_substitution():
    spec = build_spec(lemma_a(n=1, rho=1.0, beta=0.0, gamma=1.0))
    assert spec.rhs_bound == pytest.approx(0.5, abs=0)
    assert spec.admissible and spec.admissibility_margin == 1.0
    assert spec.conclusion_center == 1.0 and spec.conclusion_radius == 1.0
    assert spec.lhs is FunctionalKind.LHS_A


def test_thm_a_branch_agreement_at_half():
    p = thm_a(n=1, beta=0.0, gamma=1.0, alpha=0.5)
    spec = build_spec(p)
    low, high = displayed_branches(p)
    assert low == high == spec.rhs_bound == 0.5
    assert spec.conclusion_center == 1.0 and spec.conclusion_radius == 1.0


def test_thm_b_displayed_substitution():
    spec = build_spec(thm_b(n=2, beta=1.0, gamma=1.0, alpha=0.75))
    assert spec.rhs_bound == pytest.approx(0.25 * abs(1 + 3), abs=0)
    assert spec.admissible and spec.admissibility_margin == pytest.approx(4.0)
    assert spec.conclusion_center == pytest.approx(2 / 3)
    assert spec.conclusion_radius == pytest.approx(2 / 3)
    assert spec.lhs is FunctionalKind.LHS_B


def test_lemma_b_bound():
    p = CriterionParams(kind=CriterionKind.LEMMA_B, n=1, beta=1.0, gamma=1.0,
                        rho=0.5)
    spec = build_spec(p)
    assert spec.rhs_bound == pytest.approx(0.5 / 1.5 * 3.0)
    assert spec.admissibility_margin == pytest.approx(3.0)


def test_strict_admissibility_boundary_fails():
    # zero margin is inadmissible
    spec = build_spec(lemma_a(n=1, rho=1.0, beta=1.0, gamma=1.0))
    assert spec.admissibility_margin == 0.0
    assert not spec.admissible


def test_lemma_a_margin_is_the_reported_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gamma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if gamma == 0:
            continue
        rho = rng.uniform(0.1, 2.0)
        n = int(rng.integers(1, 5))
        spec = build_spec(lemma_a(n=n, beta=beta, gamma=gamma, rho=rho))
        margin = n * rho - (beta / gamma).real
        assert spec.admissibility_margin == pytest.approx(margin, abs=1e-15)
        assert spec.admissible == (margin > 0)


def test_bound_positive_whenever_admissible():
    rng = np.random.default_rng(6)
    kinds = [CriterionKind.LEMMA_A, CriterionKind.LEMMA_B,
             CriterionKind.THM_A, CriterionKind.THM_B]
    for _ in range(200):
        kind = kinds[rng.integers(0, 4)]
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gamma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(gamma) < 1e-6:
            continue
        kwargs = dict(kind=kind, n=int(rng.integers(1, 5)), beta=beta,
                      gamma=gamma)
        if kind in (CriterionKind.LEMMA_A, CriterionKind.LEMMA_B):
            kwargs["rho"] = rng.uniform(0.1, 2.0)
        else:
            kwargs["alpha"] = rng.uniform(0.05, 0.95)
        spec = build_spec(CriterionParams(**kwargs))
        if spec.admissible:
            assert spec.rhs_bound > 0


# ------------------------------------------------------------- branch behavior

def test_branch_continuity_random_sweep():
    rng = np.random.default_rng(7)
    alpha_rng = np.random.default_rng(70)    # keeps rng's tuples unchanged
    for _ in range(300):
        n = int(rng.integers(1, 7))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(gamma) < 1e-3:
            continue
        for kind in (CriterionKind.THM_A, CriterionKind.THM_B):
            p = CriterionParams(kind=kind, n=n, beta=beta, gamma=gamma,
                                alpha=0.5)
            bound = build_spec(p).rhs_bound
            low, high = displayed_branches(p)
            assert abs(bound - low) <= 1e-15
            assert abs(bound - high) <= 1e-15
            for alpha, side in ((0.5 - 1e-9, 0), (0.5 + 1e-9, 1),
                                (alpha_rng.uniform(0.01, 0.5), 0),
                                (alpha_rng.uniform(0.5, 0.99), 1)):
                q = CriterionParams(kind=kind, n=n, beta=beta, gamma=gamma,
                                    alpha=alpha)
                assert build_spec(q).rhs_bound == displayed_branches(q)[side]


def test_theorem_is_its_lemma_at_implied_rho():
    # The lemma receives rho(alpha) = 1/alpha - 1 in floating point; the
    # rounding of 1/alpha moves its weight t = rho/(1 + rho) away from
    # 1 - alpha by up to alpha/(1 - alpha) relative ulps, and family A also
    # amplifies by the cancellation in |n gamma t - s beta|.  So the bounds
    # agree to 1e-15 relative times that amplification, and exactly at
    # alpha <= 1/2, where rho = 1 and s = t = 1/2 on both sides.
    rng = np.random.default_rng(8)
    lemma_of = {CriterionKind.THM_A: CriterionKind.LEMMA_A,
                CriterionKind.THM_B: CriterionKind.LEMMA_B}
    for i in range(500):
        n = int(rng.integers(1, 7))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gamma = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        alpha = 0.5 if i % 10 == 0 else rng.uniform(0.01, 0.99)
        for kind, lemma_kind in lemma_of.items():
            thm = CriterionParams(kind=kind, n=n, beta=beta, gamma=gamma,
                                  alpha=alpha)
            t_spec = build_spec(thm)
            l_spec = build_spec(CriterionParams(
                kind=lemma_kind, n=n, beta=beta, gamma=gamma,
                rho=t_spec.rho))
            assert t_spec.lhs is l_spec.lhs
            assert t_spec.rho == l_spec.rho
            assert t_spec.admissibility_margin == l_spec.admissibility_margin
            assert t_spec.admissible == l_spec.admissible
            if alpha <= 0.5:
                assert t_spec.rhs_bound == l_spec.rhs_bound
                continue
            amplification = alpha / (1.0 - alpha)
            if kind is CriterionKind.THM_A:
                amplification *= (abs(n * gamma * (1.0 - alpha))
                                  + abs(alpha * beta)) / t_spec.rhs_bound
            assert t_spec.rhs_bound == pytest.approx(
                l_spec.rhs_bound, rel=1e-15 * amplification, abs=0)


def test_implied_rho_values():
    assert build_spec(thm_a(alpha=0.5)).rho == 1.0
    assert build_spec(thm_a(alpha=0.25)).rho == 1.0
    assert build_spec(thm_a(alpha=0.8)).rho == pytest.approx(0.25)
    assert build_spec(thm_b(alpha=0.8)).rho == pytest.approx(0.25)


# ------------------------------------------------------------- corollary

def test_corollary_equivalence_field_for_field():
    alphas = (0.3, 0.5, 0.75)
    for gamma in np.linspace(0.25, 3.0, 12):
        for alpha in alphas:
            for n in (1, 2, 3):
                cor = build_spec(CriterionParams(
                    kind=CriterionKind.COR_A, n=n, gamma=gamma, alpha=alpha))
                # the corollary's statement: beta = 1 and gamma negated
                beta_m, gamma_m = 1.0, -gamma
                thm = build_spec(CriterionParams(
                    kind=CriterionKind.THM_A, n=n, beta=beta_m, gamma=gamma_m,
                    alpha=alpha))
                assert cor.rhs_bound == thm.rhs_bound
                assert cor.admissible == thm.admissible
                assert cor.admissibility_margin == thm.admissibility_margin
                assert cor.conclusion_center == thm.conclusion_center
                assert cor.conclusion_radius == thm.conclusion_radius
                assert cor.eff_beta == thm.eff_beta
                assert cor.eff_gamma == thm.eff_gamma


def test_corollary_displayed_bounds():
    # low branch: (n gamma + 1)/2; high branch: n gamma (1-alpha) + alpha
    for gamma in (0.5, 1.0, 2.0):
        for n in (1, 2):
            low = build_spec(CriterionParams(
                kind=CriterionKind.COR_A, n=n, gamma=gamma, alpha=0.4))
            assert low.rhs_bound == pytest.approx(0.5 * (n * gamma + 1), rel=1e-15)
            high = build_spec(CriterionParams(
                kind=CriterionKind.COR_A, n=n, gamma=gamma, alpha=0.75))
            assert high.rhs_bound == pytest.approx(n * gamma * 0.25 + 0.75,
                                                   rel=1e-15)


def test_corollary_example_n2():
    spec = build_spec(CriterionParams(kind=CriterionKind.COR_A, n=2,
                                      gamma=2.0, alpha=0.75))
    assert spec.rhs_bound == pytest.approx(1.75, rel=1e-15)


def test_corollary_requires_real_gamma_and_default_beta():
    with pytest.raises(ParameterError):
        CriterionParams(kind=CriterionKind.COR_A, n=1, gamma=1 + 1j, alpha=0.5)
    with pytest.raises(ParameterError):
        CriterionParams(kind=CriterionKind.COR_A, n=1, beta=2.0, gamma=1.0,
                        alpha=0.5)


# ------------------------------------------------------------- parameter guards

def test_gamma_zero_rejected():
    with pytest.raises(ParameterError):
        CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.0, gamma=0.0,
                        alpha=0.5)


def test_alpha_out_of_range_rejected():
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.0,
                            gamma=1.0, alpha=alpha)


def test_lemma_requires_rho():
    with pytest.raises(ParameterError):
        CriterionParams(kind=CriterionKind.LEMMA_A, n=1, beta=0.0, gamma=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(kind=CriterionKind.THM_B, alpha=0.5, rho=0.3),
    dict(kind=CriterionKind.COR_A, alpha=0.5, rho=1.0),
    dict(kind=CriterionKind.MOCANU, alpha=0.5, rho=2.0),
    dict(kind=CriterionKind.LEMMA_A, rho=1.0, alpha=0.9),
    dict(kind=CriterionKind.LEMMA_B, rho=1.0, alpha=0.5),
])
def test_unused_parameter_rejected(kwargs):
    with pytest.raises(ParameterError):
        CriterionParams(n=1, gamma=1.0, **kwargs)


def test_mocanu_wide_alpha_flag():
    wide = CriterionParams(kind=CriterionKind.MOCANU, n=1, gamma=1.0,
                           alpha=2.5)
    spec = build_spec(wide)
    assert spec.hypothesis_shape == "positive_real"
    assert spec.rhs_bound == 0.0
    assert spec.admissible


@pytest.mark.parametrize("kwargs, order", [
    (dict(kind=CriterionKind.THM_A, alpha=0.3), 0.3),
    (dict(kind=CriterionKind.THM_B, alpha=0.7), 0.7),
    (dict(kind=CriterionKind.COR_A, alpha=0.6), 0.6),
    (dict(kind=CriterionKind.MOCANU, alpha=2.5), 0.0),
    (dict(kind=CriterionKind.LEMMA_A, rho=0.5), None),
    (dict(kind=CriterionKind.LEMMA_B, rho=0.5), None),
], ids=lambda v: v["kind"].value if isinstance(v, dict) else None)
def test_spec_states_the_concluded_starlikeness_order(kwargs, order):
    # MOCANU's alpha weighs its functional; what it concludes is order 0
    spec = build_spec(CriterionParams(n=1, gamma=1.0, **kwargs))
    assert spec.order == order


def test_mocanu_spec_shape():
    spec = build_spec(CriterionParams(kind=CriterionKind.MOCANU, n=1,
                                      gamma=1.0, alpha=0.3))
    assert spec.lhs is FunctionalKind.MOCANU_Q
    assert spec.admissibility_margin is None
