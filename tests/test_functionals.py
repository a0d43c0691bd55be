import numpy as np
import pytest

from starcert import functionals
from starcert.series import (
    Series,
    SchlichtCandidate,
    SeriesError,
    builtin_candidate,
    div,
    mul,
    scale,
)
from starcert.functionals import (
    ParameterError,
    centered_quotient,
    convex_quotient,
    identity_a_residual,
    identity_b_residual,
    identity_sweep,
    lhs_a,
    lhs_b,
    mocanu_functional,
    random_candidates,
    starlike_quotient,
    w_func,
)

from reference_formulas import (
    add,
    add_scalar,
    derivative,
    functional_candidates,
    max_coeff_diff,
    parts,
    random_candidate,
    rewrite_parts,
    shift,
    unit_part,
)


N = 48
RNG_SEED = 424242


def identity_f(order=N, n=1):
    return builtin_candidate("identity", order, n=n)


def koebe(order=N):
    return builtin_candidate("koebe", order)


def halfplane(order=N):
    return builtin_candidate("halfplane", order)


def halfplane_quotient(order):
    """(1+z)/(1-z) = 1 + 2z + 2z^2 + ... — the closed form shared by the
    starlike and convex quotients of z/(1-z) and by Koebe's starlike one."""
    arr = np.full(order + 1, 2.0, dtype=np.complex128)
    arr[0] = 1.0
    return Series(arr)


def test_starlike_quotient_identity():
    q = starlike_quotient(identity_f())
    assert q.coeffs[0] == 1 and np.all(q.coeffs[1:] == 0)


def test_starlike_quotient_halfplane():
    q = starlike_quotient(halfplane())
    # z f'/f for z/(1-z) is 1/(1-z)
    assert np.max(np.abs(q.coeffs - 1.0)) < 1e-12


def test_starlike_quotient_koebe():
    q = starlike_quotient(koebe())
    assert max_coeff_diff(q, halfplane_quotient(q.trunc_order)) < 1e-12


def test_convex_quotient_identity():
    q = convex_quotient(identity_f())
    assert q.coeffs[0] == 1 and np.all(q.coeffs[1:] == 0)


def test_convex_quotient_halfplane():
    q = convex_quotient(halfplane())
    assert max_coeff_diff(q, halfplane_quotient(q.trunc_order)) < 1e-12


def test_convex_equals_starlike_of_renormalized_zfprime():
    # z g'/g for g = z f' is exactly 1 + z f''/f'
    rng = np.random.default_rng(RNG_SEED)
    for n in (1, 2, 3):
        f = random_candidate(n, N, rng)
        zfp = Series(np.arange(f.trunc_order + 1) * np.asarray(f.series.coeffs))
        g = SchlichtCandidate(n=n, series=zfp)
        assert max_coeff_diff(convex_quotient(f), starlike_quotient(g)) < 1e-12


def test_w_func_identity_is_zero():
    w = w_func(identity_f())
    assert np.all(w.coeffs == 0)


def test_w_func_koebe_closed_form():
    w = w_func(koebe())
    expected = np.array([0] + [2 * (-1) ** k for k in range(1, w.trunc_order + 1)],
                        dtype=np.complex128)
    assert np.max(np.abs(w.coeffs - expected)) < 1e-12


def test_w_func_vanishing_order_is_exact():
    rng = np.random.default_rng(RNG_SEED + 1)
    for n in (1, 2, 3):
        for _ in range(20):
            w = w_func(random_candidate(n, N, rng))
            assert np.all(w.coeffs[:n] == 0)


def test_lhs_a_identity_is_constant_beta():
    beta, gamma = 0.3 - 0.7j, 1.1 + 0.2j
    s = lhs_a(identity_f(), beta, gamma)
    assert s.coeffs[0] == beta and np.all(s.coeffs[1:] == 0)


def test_lhs_a_constant_term_exact_for_awkward_floats():
    s = lhs_a(koebe(), 0.1, 0.3)
    assert s.coeffs[0] == 0.1


def test_lhs_a_beta_equals_gamma_collapses_to_convex():
    gamma = 0.8 + 0.3j
    f = koebe()
    expected = scale(convex_quotient(f), gamma)
    assert max_coeff_diff(lhs_a(f, gamma, gamma), expected) < 1e-14


def test_lhs_a_linear_structure():
    rng = np.random.default_rng(RNG_SEED + 2)
    f = random_candidate(2, N, rng)
    beta, gamma = 0.4 + 0.1j, -0.6 + 0.9j
    recomputed = add(scale(starlike_quotient(f), beta - gamma),
                     scale(convex_quotient(f), gamma))
    assert max_coeff_diff(lhs_a(f, beta, gamma), recomputed) < 1e-15


def test_lhs_b_identity_is_zero():
    s = lhs_b(identity_f(), 0.5, 2.0)
    assert np.all(s.coeffs == 0)


def test_lhs_b_beta_zero_reduces_to_convex_part():
    f = koebe()
    gamma = 1.5 - 0.25j
    expected = scale(add_scalar(convex_quotient(f), -1.0), gamma)
    assert max_coeff_diff(lhs_b(f, 0.0, gamma), expected) == 0.0


def test_lhs_b_vanishing_order():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (1, 2, 3):
        s = lhs_b(random_candidate(n, N, rng), 0.7, 0.9j)
        assert np.max(np.abs(s.coeffs[:n])) < 1e-12


def test_proof_identity_a_random_sweep():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(25):
            f = random_candidate(n, N, rng)
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            worst = max(worst, identity_a_residual(parts(f), beta, gamma))
    assert worst < 1e-10


def test_proof_identity_b_random_sweep():
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(25):
            f = random_candidate(n, N, rng)
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            worst = max(worst, identity_b_residual(parts(f), beta, gamma))
    assert worst < 1e-10


def test_lhs_b_displayed_quotient_form():
    # lhs_b = -(w/(1+w)) (beta + gamma (z w'/w + 1)), with z w'/w taken
    # after cancelling the common z^n
    rng = np.random.default_rng(RNG_SEED + 6)
    for n in (1, 2, 3):
        f = random_candidate(n, N, rng)
        beta, gamma = 0.3 - 0.2j, 0.8 + 0.5j
        w = w_func(f)
        cap = Series(w.coeffs[n:])
        ratio = div(add(scale(cap, n), shift(derivative(cap), 1)), cap)
        quotient = mul(scale(w, -1),
                       add_scalar(scale(ratio, gamma), beta + gamma))
        # divide by (1+w) via multiplying lhs_b by it instead
        lhs = mul(lhs_b(f, beta, gamma), add_scalar(w, 1.0))
        assert max_coeff_diff(lhs, quotient) < 1e-10


def test_mocanu_alpha_limits():
    f = koebe()
    assert max_coeff_diff(mocanu_functional(f, 0.0), starlike_quotient(f)) == 0.0
    assert max_coeff_diff(mocanu_functional(f, 1.0), convex_quotient(f)) == 0.0


def test_mocanu_halfplane_midpoint():
    # for z/(1-z): (1/2) [1/(1-z) + (1+z)/(1-z)] = (1 + z/2)/(1-z),
    # coefficients 1, 1.5, 1.5, ...
    q = mocanu_functional(halfplane(), 0.5)
    expected = np.full(q.trunc_order + 1, 1.5, dtype=np.complex128)
    expected[0] = 1.0
    assert np.max(np.abs(q.coeffs - expected)) < 1e-12


def test_mocanu_constant_term_exact():
    assert mocanu_functional(koebe(), 0.3).coeffs[0] == 1.0


def test_centered_quotient_trivials():
    f = identity_f()
    assert np.all(centered_quotient(f, 1.0).coeffs == 0)
    q = centered_quotient(f, 2.0)
    assert q.coeffs[0] == -1.0 and np.all(q.coeffs[1:] == 0)


def test_centered_quotient_defining_relation():
    rng = np.random.default_rng(RNG_SEED + 7)
    f = random_candidate(1, N, rng)
    alpha = 0.4
    center = 1.0 / (2.0 * alpha)
    want = w_func(f).coeffs.copy()
    want[0] += 1.0 - center
    assert centered_quotient(f, center).coeffs.tobytes() == want.tobytes()


def test_unit_part_has_unit_constant():
    rng = np.random.default_rng(RNG_SEED + 8)
    u = unit_part(random_candidate(2, N, rng))
    assert u.coeffs[0] == 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_candidate_equals_hand_built_array(n):
    # the same draws, in the same order, laid out by hand
    got = random_candidate(n, N, np.random.default_rng(RNG_SEED + n))
    rng = np.random.default_rng(RNG_SEED + n)
    count = N - n
    radii = 0.15 * 0.15 ** np.arange(count) * rng.uniform(0.5, 1.0, count)
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    want = np.zeros(N + 1, dtype=np.complex128)
    want[1] = 1.0
    want[n + 1 :] = radii * np.exp(1j * phases)
    assert got.n == n
    assert got.series.coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_candidates_draw_what_consecutive_rows_draw(n):
    # a block of four rows is four hand-built draws in a row, and the
    # stream goes on from where a row-by-row draw would leave it
    rng = np.random.default_rng(RNG_SEED + n)
    got = random_candidates(n, 4, N, rng)
    ref = np.random.default_rng(RNG_SEED + n)
    count = N - n
    want = np.zeros((4, N + 1), dtype=np.complex128)
    for row in want:
        radii = 0.15 * 0.15 ** np.arange(count) * ref.uniform(0.5, 1.0, count)
        phases = ref.uniform(0.0, 2.0 * np.pi, count)
        row[1] = 1.0
        row[n + 1 :] = radii * np.exp(1j * phases)
    assert got.shape == (4, N + 1)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_identity_sweep_summary():
    res = identity_sweep(per_n=5, pairs=2, trunc_order=24, seed=99)
    assert res.functions == 15
    assert res.max_residual_a < 1e-10
    assert res.max_residual_b < 1e-10


@pytest.mark.parametrize("kwargs", [
    {"per_n": 0}, {"per_n": -3}, {"pairs": 0}, {"pairs": -1},
])
def test_identity_sweep_refuses_to_check_nothing(kwargs):
    with pytest.raises(ParameterError):
        identity_sweep(**{"per_n": 100, "pairs": 5, "trunc_order": 24,
                          "seed": 20240801, **kwargs})


@pytest.mark.parametrize("trunc, bound", [
    (4, ">= 5"), (65537, "<= 65536"), (10 ** 20, "<= 65536"),
])
def test_identity_sweep_refuses_an_order_outside_its_range(trunc, bound):
    with pytest.raises(ParameterError) as e:
        identity_sweep(per_n=1, pairs=1, trunc_order=trunc, seed=0)
    assert str(e.value) == (
        f"identity sweep needs trunc_order {bound}, got {trunc}")


@pytest.mark.parametrize("pairs", [65537, 10 ** 10, 10 ** 20])
def test_identity_sweep_refuses_too_many_pairs(pairs):
    with pytest.raises(ParameterError) as e:
        identity_sweep(per_n=1, pairs=pairs, trunc_order=8, seed=0)
    assert str(e.value) == f"identity sweep needs pairs <= 65536, got {pairs}"


@pytest.mark.parametrize("per_n", [65537, 10 ** 20])
def test_identity_sweep_refuses_too_many_candidates_before_a_draw(
        monkeypatch, per_n):
    def no_draw(*args):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(functionals, "random_candidates", no_draw)
    with pytest.raises(ParameterError) as e:
        identity_sweep(per_n=per_n, pairs=1, trunc_order=5, seed=0)
    assert str(e.value) == f"identity sweep needs per_n <= 65536, got {per_n}"


def test_identity_sweep_takes_as_many_pairs_as_its_cap():
    res = identity_sweep(per_n=1, pairs=2 ** 16, trunc_order=5, seed=0)
    assert res.pairs == 2 ** 16
    assert max(res.max_residual_a, res.max_residual_b) < 1e-10


@pytest.mark.parametrize("n, trunc, message", [
    (0, 8, "class index n must be >= 1, got 0"),
    (3, 4, "truncation order 4 too small for n=3; need at least 5"),
])
def test_random_candidate_refuses_before_it_draws(n, trunc, message):
    rng = np.random.default_rng(RNG_SEED)
    state = rng.bit_generator.state
    with pytest.raises(SeriesError) as e:
        random_candidates(n, 1, trunc, rng)
    assert str(e.value) == message
    assert rng.bit_generator.state == state


# ------------------------------------------- Series-operation references
# The functionals build their sums as single arrays; these are the same
# formulas written as Series operations.  The arithmetic on each
# coefficient is the same, so the results must be equal, not close.

def _combination_reference(f, x, y, c0):
    out = add(scale(starlike_quotient(f), x), scale(convex_quotient(f), y))
    c = out.coeffs.copy()
    c[0] = c0
    return Series(c)


def _pair_free_reference(f, x, y):
    r1, r2 = rewrite_parts(starlike_quotient(f), convex_quotient(f), w_func(f))
    return float(np.max(np.abs(add(scale(r1, x), scale(r2, y)).coeffs)))


def _residual_a_reference(f, beta, gamma):
    return _pair_free_reference(f, beta - gamma, gamma)


def _residual_b_reference(f, beta, gamma):
    return _pair_free_reference(f, beta, gamma)


# The identities as written, one product per (beta, gamma) pair.

def _product_residual_a(f, beta, gamma):
    w = w_func(f)
    left = mul(_combination_reference(f, beta - gamma, gamma, beta),
               add_scalar(w, 1.0))
    right = add_scalar(scale(shift(derivative(w), 1), -gamma), beta)
    return max_coeff_diff(left, right)


def _product_residual_b(f, beta, gamma):
    w = w_func(f)
    left = mul(_combination_reference(f, beta, gamma, 0.0),
               add_scalar(w, 1.0))
    right = add(scale(w, beta), scale(add(shift(derivative(w), 1), w), gamma))
    return max_coeff_diff(left, scale(right, -1.0))


def test_functionals_equal_series_operation_reference():
    rng = np.random.default_rng(RNG_SEED + 10)
    for f in functional_candidates():
        pairs = [(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
                 for _ in range(3)] + [(0.0, 1.0), (1.0 + 0j, 1.0 + 0j)]
        for beta, gamma in pairs:
            assert np.array_equal(
                lhs_a(f, beta, gamma).coeffs,
                _combination_reference(f, beta - gamma, gamma, beta).coeffs)
            assert np.array_equal(
                lhs_b(f, beta, gamma).coeffs,
                _combination_reference(f, beta, gamma, 0.0).coeffs)
            assert (identity_a_residual(parts(f), beta, gamma)
                    == _residual_a_reference(f, beta, gamma))
            assert (identity_b_residual(parts(f), beta, gamma)
                    == _residual_b_reference(f, beta, gamma))
        for alpha in (0.0, 0.3, 1.0, -0.5, 2.5):
            assert np.array_equal(
                mocanu_functional(f, alpha).coeffs,
                _combination_reference(f, 1.0 - alpha, alpha, 1.0).coeffs)


def test_pair_free_residuals_agree_with_the_product_form():
    # both forms are rounding-level; they differ by at most the rounding
    # of the products, eps (|beta| + |gamma|) (|P|_1 + |Q|_1) |1 + w|_1
    rng = np.random.default_rng(RNG_SEED + 11)
    eps = np.finfo(float).eps
    for f in functional_candidates():
        norm = ((np.abs(starlike_quotient(f).coeffs).sum()
                 + np.abs(convex_quotient(f).coeffs).sum())
                * np.abs(add_scalar(w_func(f), 1.0).coeffs).sum())
        pairs = [(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
                 for _ in range(3)] + [(0.0, 1.0), (1.0 + 0j, 1.0 + 0j)]
        for beta, gamma in pairs:
            bound = eps * (abs(beta) + abs(gamma)) * norm
            assert (abs(identity_a_residual(parts(f), beta, gamma)
                        - _product_residual_a(f, beta, gamma)) <= bound)
            assert (abs(identity_b_residual(parts(f), beta, gamma)
                        - _product_residual_b(f, beta, gamma)) <= bound)
