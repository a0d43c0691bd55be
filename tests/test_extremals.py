import numpy as np
import pytest

from starcert.series import (
    ResonantExponentError,
    Series,
    SeriesError,
    builtin_candidate,
    exp_unit,
    integrate_offset,
    pow_unit,
    scale,
)
from starcert.extremals import (
    DegenerateExtremalError,
    ExtremalFamily,
    ExtremalParams,
    GRID_PAIRS_A,
    GRID_PAIRS_B,
    InadmissibleExtremalError,
    build_extremal,
    documented_grid,
    probe_identity_a,
    verify_identity_b,
)
from starcert.cli import main
from starcert.functionals import lhs_a, lhs_b
from starcert.oracle import SamplingConfig, check_criterion

from reference_formulas import add_scalar, monomial, shift


FAST_CFG = SamplingConfig(
    radii=tuple(round(0.1 + 0.05 * i, 10) for i in range(18)) + (0.99,),
    angles=256,
)


def params_a(n=1, alpha=0.4, beta=0.2j, gamma=1.0):
    return ExtremalParams(family=ExtremalFamily.EXTREMAL_A, n=n, alpha=alpha,
                          beta=beta, gamma=gamma)


def params_b(n=1, alpha=0.5, beta=1.0, gamma=1.0):
    return ExtremalParams(family=ExtremalFamily.EXTREMAL_B, n=n, alpha=alpha,
                          beta=beta, gamma=gamma)


# ------------------------------------------------------------------ parameters

def test_s_value_low_branch_a():
    p = params_a(n=1, alpha=0.4, beta=0.2j, gamma=1.0)
    assert p.S == pytest.approx(0.5 * abs(1 - 0.2j), rel=1e-15)


def test_s_value_high_branch_a():
    p = params_a(n=1, alpha=0.7, beta=0.1, gamma=1.0)
    assert p.S == pytest.approx(abs(0.3 - 0.07), rel=1e-15)


def test_s_value_b_branches():
    assert params_b(alpha=0.5).S == pytest.approx(1.5, abs=0)
    assert params_b(alpha=0.75).S == pytest.approx(0.25 * 3, rel=1e-15)


def test_degenerate_s_zero_guard():
    with pytest.raises(DegenerateExtremalError) as exc:
        params_a(n=1, alpha=0.4, beta=1.0, gamma=1.0)
    assert exc.value.constraint == "S=0"


def test_degenerate_beta_zero_guard():
    with pytest.raises(DegenerateExtremalError) as exc:
        params_a(beta=0.0)
    assert exc.value.constraint == "beta=0"


def test_degenerate_beta_plus_gamma_guard():
    with pytest.raises(DegenerateExtremalError) as exc:
        params_b(beta=-1.0, gamma=1.0)
    assert exc.value.constraint == "beta+gamma=0"


def test_inadmissible_raises_with_margin():
    with pytest.raises(InadmissibleExtremalError) as exc:
        params_a(n=1, alpha=0.4, beta=2.0, gamma=1.0)
    assert exc.value.margin == pytest.approx(-1.0)
    with pytest.raises(InadmissibleExtremalError):
        params_b(n=1, beta=-3.0, gamma=1.0)


# ---------------------------------------------------------------- construction

def test_spec_example_beta_beyond_s_refused():
    # admissible, but lhs_a(0) = beta already breaks |lhs_a| < S
    with pytest.raises(InadmissibleExtremalError) as exc:
        params_a(n=1, alpha=0.4, beta=1j, gamma=1.0)
    assert exc.value.constraint == "|beta| < S"
    assert exc.value.margin == pytest.approx(0.5 * abs(1 - 1j) - 1.0,
                                             rel=1e-15)


def test_beta_equal_to_s_refused():
    # n = 3, alpha = 0.4 gives S = |3 - beta| / 2 = 1 = |beta|
    with pytest.raises(InadmissibleExtremalError) as exc:
        params_a(n=3, alpha=0.4, beta=1.0, gamma=1.0)
    assert exc.value.constraint == "|beta| < S"
    assert exc.value.margin == 0.0


def test_extremal_b_reference_coefficients():
    f = build_extremal(params_b(), 128)
    assert f.series.coeffs[1] == 1.0
    assert abs(f.series.coeffs[2] - 0.5) < 1e-14
    assert abs(f.series.coeffs[3] - 0.15625) < 1e-14


def sweep_draws(family, count, seed):
    """``count`` seeded admitted builds of one family, each at its own
    truncation order ``n + 2 .. 199``: beta a complex normal times a scale
    log-uniform on 0.1..50, gamma a complex normal, n in 1..3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, alpha = int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.95))
        trunc = int(rng.integers(n + 2, 200))
        scale = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
        beta = complex(*rng.normal(size=2)) * scale
        gamma = complex(*rng.normal(size=2))
        try:
            p = ExtremalParams(family=family, n=n, alpha=alpha, beta=beta,
                               gamma=gamma)
            out.append((p, build_extremal(p, trunc)))
        except (SeriesError, InadmissibleExtremalError):
            continue
    return out


def test_normalization_snap_recorded(capsys):
    # f = z (k h)^e with the power's constant term exactly 1: f starts
    # z + ... bit for bit and vanishes exactly off the orders 1 + n i,
    # with nothing snapped and no snap printed
    cases = [(p, build_extremal(p, 128)) for family in ExtremalFamily
             for p in documented_grid(family)]
    for family in ExtremalFamily:
        cases += sweep_draws(family, 160, 29)
    assert len(cases) == 72 + 320
    for p, f in cases:
        c = f.series.coeffs
        assert c[0] == 0 and c[1] == 1, p
        off = (np.arange(c.size) - 1) % p.n != 0
        assert np.all(c[off] == 0), p
    assert main(["extremal", "--family", "EXTREMAL_B", "--n", "2",
                 "--alpha", "0.5", "--beta", "1", "--gamma", "1",
                 "--trunc", "32", "--radii", "0.5,0.9", "--angles", "256"]) == 0
    assert "snap" not in capsys.readouterr().out


def test_class_shape_exact_zeros():
    for n in (2, 3):
        fa = build_extremal(params_a(n=n), 96)
        fb = build_extremal(params_b(n=n), 96)
        for f in (fa, fb):
            assert np.all(f.series.coeffs[2 : n + 1] == 0)


def test_sparsity_pattern_matches_structure():
    f = build_extremal(params_b(n=3), 96)
    idx = np.nonzero(f.series.coeffs)[0]
    # nonzero only at 1 + 3k
    assert np.all((idx - 1) % 3 == 0)


def test_resonant_exponent_rejected():
    # beta/gamma = -(2 - 1e-10) puts c + k within 1e-10 of zero at k = 2,
    # while |beta| stays just below S = |2 + beta/2| = 2 - 5e-11
    p = params_a(n=2, alpha=0.4, beta=-(2 - 1e-10), gamma=1.0)
    with pytest.raises(ResonantExponentError) as exc:
        build_extremal(p, 64)
    assert exc.value.k == 2
    assert abs(exc.value.offset + 2) == pytest.approx(1e-10, rel=1e-5)


@pytest.mark.parametrize("trunc", [0, 1, 2])
def test_truncation_too_small_refused_before_construction(trunc):
    with pytest.raises(SeriesError, match=f"truncation order {trunc} too "
                                          "small for n=1; need at least 3"):
        build_extremal(params_b(), trunc)


def series_built_extremal(p, trunc_order):
    """``build_extremal`` with the inner series ``g`` taken through
    ``exp_unit``/``pow_unit`` instead of its closed form."""
    work = trunc_order - 1
    beta, gamma, n, s = p.beta, p.gamma, p.n, p.S
    if p.family is ExtremalFamily.EXTREMAL_A:
        exponent = (s * s - abs(beta) ** 2) / (n * np.conj(beta) * gamma)
        g = pow_unit(add_scalar(monomial(np.conj(beta) / s, n, work), 1.0),
                     exponent)
        c = k = beta / gamma
        e = gamma / beta
    else:
        g = exp_unit(monomial(s / (n * gamma), n, work))
        c, k = beta / gamma + 1.0, (beta + gamma) / gamma
        e = gamma / (beta + gamma)
    fz = pow_unit(scale(integrate_offset(g, c), k), e)
    return shift(fz, 1).coeffs


@pytest.mark.parametrize("family", list(ExtremalFamily))
def test_closed_form_inner_series_matches_series_construction(family):
    for p in documented_grid(family):
        got = build_extremal(p, 128).series.coeffs
        want = series_built_extremal(p, 128)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), p
        # the sparsity pattern is exact on both sides
        assert np.array_equal(got == 0, want == 0), p


# ------------------------------------------------------------------ identity B

def test_identity_b_residual_small_on_grid_cell():
    for p in (params_b(), params_b(n=2, alpha=0.3, beta=0.5j, gamma=1.0)):
        f = build_extremal(p, 128)
        assert verify_identity_b(f, p) < 1e-9


def test_identity_b_truncation_stability():
    p = params_b(n=2, alpha=0.7, beta=2.0, gamma=1 - 1j)
    for trunc in (64, 128):
        f = build_extremal(p, trunc)
        assert verify_identity_b(f, p) < 1e-9


def test_identity_b_residual_for_identity_function_is_s():
    p = params_b()
    f = builtin_candidate("identity", 64)
    assert verify_identity_b(f, p) == pytest.approx(p.S, rel=1e-15)


# ------------------------------------------------------------------ identity A

def test_probe_matches_beta_form_only():
    p = params_a()
    f = build_extremal(p, 128)
    assert probe_identity_a(f, p) < 1e-9
    rep = check_criterion(f, p.criterion, FAST_CFG)
    assert rep.hypothesis_margin > 0
    assert rep.spec.rhs_bound == p.S
    assert rep.hypothesis_sup + rep.hypothesis_tail < p.S


def test_probe_identity_function_no_match_below_bound():
    # f = z with |beta| < S: trivially below the bound, no closed-form match
    p = params_a(n=1, alpha=0.4, beta=0.2j, gamma=1.0)
    f = builtin_candidate("identity", 64)
    assert probe_identity_a(f, p) > 1e-9
    rep = check_criterion(f, p.criterion, FAST_CFG)
    assert rep.hypothesis_sup == pytest.approx(abs(p.beta), abs=1e-12)
    assert rep.hypothesis_margin > 0


def test_identity_a_residual_small_on_random_admitted_sample():
    # the documented grid is criterion 09's
    rng = np.random.default_rng(20240813)
    admitted = 0
    for _ in range(200):
        try:
            p = params_a(
                n=int(rng.integers(1, 4)), alpha=rng.uniform(0.05, 0.95),
                beta=complex(*rng.uniform(-1, 1, 2)),
                gamma=complex(*rng.uniform(-2, 2, 2)))
        except (InadmissibleExtremalError, DegenerateExtremalError):
            continue
        admitted += 1
        assert abs(p.beta) < p.S
        assert probe_identity_a(build_extremal(p, 64), p) < 1e-9, p
    assert admitted > 100


# ------------------------------------------------------------ self-check form

def reference_residual(left, target):
    """Largest ``|left - target|`` coefficient below the top two orders."""
    resid = np.abs(left.coeffs - target)
    return float(resid[: max(1, resid.size - 2)].max())


def expansion_target(p, order):
    """Family A's form ``(S z^n + beta) / (1 + (conj(beta)/S) z^n)`` from its
    expansion ``beta + (S - |beta|^2/S) sum_(j>=1) (-conj(beta)/S)^(j-1)
    z^(nj)``."""
    target = np.zeros(order + 1, dtype=np.complex128)
    target[0] = p.beta
    ratio = -np.conj(p.beta) / p.S
    target[p.n :: p.n] = ((p.S - abs(p.beta) ** 2 / p.S)
                          * ratio ** np.arange(order // p.n))
    return target


def assert_selfchecks_equal_references(p, trunc):
    # family B's target is the monomial S z^n, family A's its expansion;
    # both self-checks must give their residuals bit for bit
    f = build_extremal(p, trunc)
    left_b, left_a = lhs_b(f, p.beta, p.gamma), lhs_a(f, p.beta, p.gamma)
    assert verify_identity_b(f, p) == reference_residual(
        left_b, monomial(p.S, p.n, left_b.trunc_order).coeffs), p
    assert probe_identity_a(f, p) == reference_residual(
        left_a, expansion_target(p, left_a.trunc_order)), p


@pytest.mark.parametrize("family", list(ExtremalFamily))
def test_selfchecks_equal_references_on_grid(family):
    for p in documented_grid(family):
        assert_selfchecks_equal_references(p, 128)


@pytest.mark.parametrize("family", list(ExtremalFamily))
def test_selfchecks_equal_references_on_admitted_sample(family):
    rng = np.random.default_rng(20261018)
    admitted = 0
    for _ in range(100):
        try:
            p = ExtremalParams(
                family=family, n=int(rng.integers(1, 4)),
                alpha=rng.uniform(0.05, 0.95),
                beta=complex(*rng.uniform(-1, 1, 2)),
                gamma=complex(*rng.uniform(-2, 2, 2)))
        except (InadmissibleExtremalError, DegenerateExtremalError):
            continue
        admitted += 1
        assert_selfchecks_equal_references(p, 64)
    assert admitted >= 30


# ------------------------------------------------------------------ grid

def test_documented_grid_sizes_and_margins():
    for family, pairs in ((ExtremalFamily.EXTREMAL_A, GRID_PAIRS_A),
                          (ExtremalFamily.EXTREMAL_B, GRID_PAIRS_B)):
        grid = documented_grid(family)
        assert len(grid) == 9 * len(pairs)
        for p in grid:
            if p.family is ExtremalFamily.EXTREMAL_A:
                limit = p.n if p.alpha <= 0.5 else p.n * (1 / p.alpha - 1)
                margin = limit - (p.beta / p.gamma).real
                assert abs(p.beta) < p.S
            else:
                margin = (p.beta / p.gamma).real + p.n + 1
            assert margin >= 0.1


# ------------------------------------------------------------ lattice build

def dense_built_extremal(p, trunc_order):
    """``build_extremal`` running every stage on all orders of ``z``, the
    off-lattice ones included, as it did before the lattice build."""
    work = trunc_order - 1
    beta, gamma, n, s = p.beta, p.gamma, p.n, p.S
    j = np.arange(1, work // n + 1)
    if p.family is ExtremalFamily.EXTREMAL_A:
        x = np.conj(beta) / s
        power = (s * s - abs(beta) ** 2) / (n * np.conj(beta) * gamma)
        terms = (power - j + 1) * x / j
        c = k = beta / gamma
        e = gamma / beta
    else:
        terms = s / (n * gamma) / j
        c, k = beta / gamma + 1.0, (beta + gamma) / gamma
        e = gamma / (beta + gamma)
    g = np.zeros(work + 1, dtype=np.complex128)
    g[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        g[n::n] = np.cumprod(terms)
    fz = pow_unit(scale(integrate_offset(Series(g), c), k), e)
    return shift(fz, 1).coeffs


def admitted_draws(family, ns, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        try:
            out.append(ExtremalParams(
                family=family, n=int(rng.choice(ns)),
                alpha=rng.uniform(0.05, 0.95),
                beta=complex(*rng.uniform(-1, 1, 2)),
                gamma=complex(*rng.uniform(-2, 2, 2))))
        except (InadmissibleExtremalError, DegenerateExtremalError):
            continue
    return out


def lattice_cases():
    for family in ExtremalFamily:
        yield from ((p, 128) for p in documented_grid(family))
        yield from ((p, 64) for p in admitted_draws(family, (2, 3), 40, 27))


def test_lattice_build_keeps_the_dense_values():
    # n = 1 runs the dense stages unchanged; for n >= 2 each coefficient is
    # a sum of at most N + 1 terms on both sides, so they may differ by the
    # rounding of such a sum
    eps = np.finfo(float).eps
    for p, trunc in lattice_cases():
        got = build_extremal(p, trunc).series.coeffs
        want = dense_built_extremal(p, trunc)
        if p.n == 1:
            assert got.tobytes() == want.tobytes(), p
            continue
        off = np.arange(got.size) % p.n != 1
        assert np.all(got[off] == 0) and np.all(want[off] == 0), p
        bound = (trunc + 1) * eps * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound, p


@pytest.mark.parametrize("p, trunc", [
    # g_(nj) = x^j / j! overflows at lattice index 11
    (params_b(n=2, beta=1e30), 32),
    (params_b(n=3, beta=1e30), 128),
    # c + n is 1e-10 away from resonance: family B at its admissibility edge
    (params_b(n=2, beta=-3 + 1e-10), 32),
    (params_b(n=3, beta=-4 + 1e-10), 64),
    (params_a(n=2, alpha=0.4, beta=-(2 - 1e-10)), 64),
], ids=["overflow-n2", "overflow-n3", "resonance-b-n2", "resonance-b-n3",
        "resonance-a-n2"])
def test_lattice_refusals_name_the_dense_order(p, trunc):
    with pytest.raises(SeriesError) as dense:
        dense_built_extremal(p, trunc)
    with pytest.raises(type(dense.value)) as lattice:
        build_extremal(p, trunc)
    assert str(lattice.value) == str(dense.value)
    assert str(dense.value).startswith(("non-finite coefficient at index",
                                        "resonant exponent at k="))
