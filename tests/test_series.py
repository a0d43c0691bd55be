import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starcert import series
from starcert.extremals import ExtremalFamily, build_extremal, documented_grid
from starcert.functionals import convex_quotient, starlike_quotient
from starcert.series import (
    Circle,
    NonFiniteCoefficientError,
    NonUnitDivisorError,
    ResonantExponentError,
    SchlichtCandidate,
    Series,
    SeriesError,
    builtin_candidate,
    derivative,
    div,
    evaluate_grid,
    exp_unit,
    integrate_offset,
    log_unit,
    make_series,
    mul,
    pow_unit,
    scale,
    tail_estimate,
)


def monomial(coeff: complex, power: int, trunc_order: int) -> Series:
    """``coeff z^power`` truncated at order ``trunc_order``."""
    arr = np.zeros(trunc_order + 1, dtype=np.complex128)
    arr[power] = coeff
    return Series(arr)


def shift(a: Series, k: int) -> Series:
    """``z^k a``: ``k`` zeros in front of the coefficients."""
    return Series(np.concatenate([np.zeros(k, dtype=np.complex128), a.coeffs]))


def add(a: Series, b: Series) -> Series:
    """``a + b``, truncated at the shorter order."""
    m = min(a.trunc_order, b.trunc_order)
    return Series(a.coeffs[: m + 1] + b.coeffs[: m + 1])


def add_scalar(a: Series, s) -> Series:
    """``a + s``: ``s`` added to the constant term."""
    c = a.coeffs.copy()
    c[0] += complex(s)
    return Series(c)


def max_coeff_diff(a: Series, b: Series) -> float:
    """Largest coefficient deviation over the common retained orders."""
    m = min(a.trunc_order, b.trunc_order)
    return float(np.max(np.abs(a.coeffs[: m + 1] - b.coeffs[: m + 1])))


def rand_series(rng, order, amp=1.0, decay=1.0, unit=None):
    """Random series; ``unit`` pins the constant term."""
    radii = amp * decay ** np.arange(order + 1) * rng.uniform(0, 1, order + 1)
    arr = radii * np.exp(2j * np.pi * rng.uniform(0, 1, order + 1))
    if unit is not None:
        arr[0] = unit
    return Series(arr)


# ---------------------------------------------------------------- construction

def test_make_series_identity_function():
    s = make_series([0, 1], 1)
    assert s.trunc_order == 1
    assert s.coeffs[1] == 1


def test_make_series_geometric_partial_sum():
    s = make_series([0, 1, 1, 1], 3)
    assert list(s.coeffs) == [0, 1, 1, 1]


def test_make_series_rejects_nan_with_index():
    with pytest.raises(NonFiniteCoefficientError) as exc:
        make_series([0, 1, float("nan")], 2)
    assert exc.value.index == 2


def test_make_series_length_mismatch():
    with pytest.raises(SeriesError):
        make_series([1, 2, 3], 5)


def test_coefficients_are_immutable():
    s = make_series([1, 2], 1)
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


# ---------------------------------------------------------------- mul / div

def test_mul_difference_of_squares():
    a = make_series([1, 1, 0], 2)
    b = make_series([1, -1, 0], 2)
    assert np.allclose(mul(a, b).coeffs, [1, 0, -1], atol=0)


def test_mul_by_z_shifts():
    z = make_series([0, 1, 0, 0], 3)
    s = make_series([1, 1, 1, 0], 3)
    assert np.allclose(mul(z, s).coeffs, [0, 1, 1, 1], atol=0)


def test_mul_truncates_to_shorter_factor():
    a = make_series([1, 1, 1])
    b = make_series([1, 1])
    assert mul(a, b).trunc_order == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_mul_commutes_against_direct_convolution(order, seed):
    rng = np.random.default_rng(seed)
    a = rand_series(rng, order)
    b = rand_series(rng, order)
    ab = mul(a, b)
    assert max_coeff_diff(ab, mul(b, a)) < 1e-12
    direct = np.array(
        [sum(a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1))
         for k in range(order + 1)]
    )
    assert np.max(np.abs(ab.coeffs - direct)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_ring_axioms(order, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_series(rng, order) for _ in range(3))
    assert max_coeff_diff(mul(mul(a, b), c), mul(a, mul(b, c))) < 1e-12
    assert max_coeff_diff(mul(a, add(b, c)), add(mul(a, b), mul(a, c))) < 1e-12


def test_div_geometric_series():
    one = make_series([1] + [0] * 16)
    den = make_series([1, -1] + [0] * 15)
    assert np.all(div(one, den).coeffs == 1.0)


def test_div_self_is_one():
    a = make_series([1, 1, 0, 0])
    q = div(a, a)
    assert q.coeffs[0] == 1 and np.all(q.coeffs[1:] == 0)


def test_div_rejects_nonunit_divisor():
    with pytest.raises(NonUnitDivisorError):
        div(make_series([1, 1]), make_series([0, 1]))


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 24), st.integers(0, 2**32 - 1))
def test_div_then_mul_reconstructs(order, seed):
    # Decaying divisor tails keep 1/b bounded on the closed disk; without
    # that the triangular solve is exponentially ill conditioned and no
    # floating implementation could hit the tolerance.
    rng = np.random.default_rng(seed)
    a = rand_series(rng, order)
    b = rand_series(rng, order, amp=0.5, decay=0.55, unit=1.0)
    assert max_coeff_diff(mul(div(a, b), b), a) < 1e-12


# O(N^2) recurrences that div and log_unit replace, kept as references for
# the Newton reciprocal.
def ref_div(a, b):
    a, b = a.coeffs, b.coeffs
    q = np.zeros(min(a.size, b.size), dtype=complex)
    q[0] = a[0] / b[0]
    for k in range(1, q.size):
        q[k] = (a[k] - np.dot(b[1 : k + 1], q[k - 1 :: -1])) / b[0]
    return q


def ref_log(a):
    a = a.coeffs
    lg = np.zeros(a.size, dtype=complex)
    for k in range(1, a.size):
        lg[k] = a[k] - np.dot(np.arange(1, k) * lg[1:k], a[k - 1 : 0 : -1]) / k
    return lg


def rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


KERNEL_ORDERS = (0, 1, 2, 7, 48, 128, 256)


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_div_matches_recurrence(order):
    rng = np.random.default_rng(order)
    for _ in range(5):
        a = rand_series(rng, order)
        b = rand_series(rng, order, amp=0.5, decay=0.55,
                        unit=rng.uniform(0.5, 2) * np.exp(2j * rng.uniform(0, 3)))
        assert rel_diff(div(a, b).coeffs, ref_div(a, b)) < 1e-13


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_log_unit_matches_recurrence(order):
    rng = np.random.default_rng(100 + order)
    for _ in range(5):
        a = rand_series(rng, order, amp=0.5, decay=0.55, unit=1.0)
        got = log_unit(a).coeffs
        assert got[0] == 0
        assert rel_diff(got, ref_log(a)) < 1e-13


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_div_truncated_koebe_exact(order):
    # small integers, so neither path rounds: 1/(1-z)^2 is u = f/z of the
    # Koebe function, and zf'/f = (u + z u')/u is (1+z)/(1-z)
    k = np.arange(order + 1)
    u = make_series(k + 1.0)
    den = make_series(np.r_[1.0, -2.0, 1.0, np.zeros(order)][: order + 1])
    ones = make_series(k == 0)
    assert np.array_equal(div(ones, den).coeffs, u.coeffs)
    starlike = div(make_series((k + 1.0) ** 2), u).coeffs
    assert np.array_equal(starlike, np.where(k == 0, 1.0, 2.0))
    assert np.array_equal(starlike, ref_div(make_series((k + 1.0) ** 2), u))


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_kernels_refuse_non_unit_constant(order):
    rng = np.random.default_rng(order)
    with pytest.raises(NonUnitDivisorError):
        div(rand_series(rng, order), rand_series(rng, order, unit=0.0))
    with pytest.raises(SeriesError):
        log_unit(rand_series(rng, order, unit=1.5))


# The kernels' loops as first written, kept as references: exp_unit and
# _reciprocal must reproduce their bytes (tobytes tells -0.0 from 0.0).
def ref_exp_unit(a):
    """The exp recurrence reading the known coefficients through a
    negative-stride view."""
    n = a.trunc_order
    ka = a.coeffs * np.arange(n + 1)
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    for k in range(1, n + 1):
        e[k] = np.dot(ka[1 : k + 1], e[k - 1 :: -1]) / k
    return e


def ref_reciprocal(b):
    """The Newton reciprocal cutting each residual from the full product,
    from the same eight-term forward substitution as the kernel."""
    x0 = 1 / complex(b[0])
    start = [x0]
    for k in range(1, min(8, b.size)):
        acc = 0j
        for j in range(1, k + 1):
            acc += complex(b[j]) * start[k - j]
        start.append(-acc * x0)
    x = np.array(start, dtype=np.complex128)
    while x.size < b.size:
        k = x.size
        k2 = min(2 * k, b.size)
        r = np.convolve(b[:k2], x)[k:k2]
        x = np.concatenate([x, -np.convolve(x[: k2 - k], r)[: k2 - k]])
    return x


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_exp_unit_bytes_equal_the_negative_stride_recurrence(order):
    rng = np.random.default_rng(300 + order)
    for _ in range(5):
        a = rand_series(rng, order, unit=0.0)
        assert exp_unit(a).coeffs.tobytes() == ref_exp_unit(a).tobytes()


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_reciprocal_bytes_equal_the_full_product_newton_step(order):
    rng = np.random.default_rng(400 + order)
    for _ in range(5):
        b = rand_series(rng, order, amp=0.5, decay=0.55,
                        unit=rng.uniform(0.5, 2) * np.exp(2j * rng.uniform(0, 3)))
        assert (series._reciprocal(b.coeffs).tobytes()
                == ref_reciprocal(b.coeffs).tobytes())


@pytest.fixture(scope="module")
def grid_kernel_inputs():
    """What exp_unit and _reciprocal receive while the grid extremals are
    built and their quotients formed."""
    exps, recips = [], []
    exp0, recip0 = series.exp_unit, series._reciprocal

    def exp_spy(a):
        exps.append(a)
        return exp0(a)

    def recip_spy(b):
        recips.append(b.copy())
        return recip0(b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "exp_unit", exp_spy)
        mp.setattr(series, "_reciprocal", recip_spy)
        for family in ExtremalFamily:
            for p in documented_grid(family):
                f = build_extremal(p, 128)
                starlike_quotient(f)
                convex_quotient(f)
    return exps, recips


def test_kernel_bytes_equal_the_references_on_the_grid_extremals(
        grid_kernel_inputs):
    exps, recips = grid_kernel_inputs
    # one exp_unit and one log_unit reciprocal per extremal, then 1/(f/z)
    # and 1/f'
    assert len(exps) == 72 and len(recips) == 3 * 72
    for a in exps:
        assert exp_unit(a).coeffs.tobytes() == ref_exp_unit(a).tobytes()
    for b in recips:
        assert series._reciprocal(b).tobytes() == ref_reciprocal(b).tobytes()


def ref_newton_reciprocal(b):
    """The Newton reciprocal from its one-term start, as first written."""
    x = np.array([1.0 / b[0]], dtype=np.complex128)
    while x.size < b.size:
        k = x.size
        k2 = min(2 * k, b.size)
        r = np.convolve(b[1:k2], x, "valid")
        x = np.concatenate([x, -np.convolve(x[: k2 - k], r)[: k2 - k]])
    return x


def mp_reciprocal(b, mp):
    """``1/b`` by forward substitution at 50 digits."""
    with mp.workdps(50):
        bm = [mp.mpc(v) for v in b.tolist()]
        x = [1 / bm[0]]
        for k in range(1, len(bm)):
            x.append(-mp.fdot(bm[1 : k + 1], x[::-1]) * x[0])
        return np.array([complex(v) for v in x])


def unit_divisors(rng, size):
    """Two random unit-divisor series of ``size`` coefficients, and two
    ill-conditioned ones: a zero just outside and just inside the unit
    circle times a random unit-constant factor."""
    out = [rand_series(rng, size - 1, amp=0.5, decay=0.55,
                       unit=rng.uniform(0.5, 2) * np.exp(2j * rng.uniform(0, 3))
                       ).coeffs for _ in range(2)]
    for modulus in (1.02, 0.98):
        zeta = modulus * np.exp(2j * np.pi * rng.uniform())
        q = rand_series(rng, size - 1, amp=0.3, decay=0.5, unit=1.0).coeffs
        out.append(np.convolve([1.0, -1.0 / zeta], q)[:size])
    return out


RECIPROCAL_LENGTHS = (1, 2, 7, 8, 9, 24, 48, 127, 128, 256)


@pytest.mark.parametrize("size", RECIPROCAL_LENGTHS)
def test_reciprocal_kernels_match_a_50_digit_forward_substitution(size):
    # the eight-term start and the one-term Newton start alike, on the
    # coefficients above the tail dust level (the worst seen is 1.1e-14)
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(500 + size)
    for b in unit_divisors(rng, size):
        want = mp_reciprocal(b, mp)
        big = np.abs(want) > 1e-14 * np.max(np.abs(want))
        for kernel in (series._reciprocal, ref_newton_reciprocal):
            got = kernel(b)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)[big] / np.abs(want[big])) <= 1e-12


@pytest.mark.parametrize("size, calls", [(8, 0), (9, 2), (24, 4), (48, 6),
                                         (128, 8), (256, 10)])
def test_reciprocal_convolution_count(size, calls, monkeypatch):
    # two per Newton step, ceil(log2(size / 8)) steps after the start
    count = []
    convolve = np.convolve

    def spy(*args, **kwargs):
        count.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(np, "convolve", spy)
    b = rand_series(np.random.default_rng(size), size - 1, unit=1.0).coeffs
    series._reciprocal(b)
    assert len(count) == calls


def test_non_unit_divisor_keeps_its_message():
    b = make_series(np.r_[1e-13, 1.0, np.zeros(10)])
    with pytest.raises(NonUnitDivisorError) as err:
        series.reciprocal(b)
    assert str(err.value) == ("non-unit divisor: |b0| = 1.000e-13 is below "
                              "1e-12 × max(1, max|b_k|) = 1.0e+00")


@pytest.mark.parametrize("kernel, a1, size, index", [
    (series.reciprocal, 1e11, 40, 29),  # overflows in a Newton step
    (log_unit, 1e60, 20, 6),            # in the forward substitution
    (log_unit, 1e30, 20, 11),           # in a Newton step
])
def test_overflow_is_refused_at_its_order(kernel, a1, size, index):
    arr = np.zeros(size, dtype=np.complex128)
    arr[0], arr[1] = 1.0, a1
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteCoefficientError) as err:
            kernel(Series(arr))
    assert str(err.value) == f"non-finite coefficient at index {index}"


# ---------------------------------------------------------------- derivative

def test_derivative_polynomial():
    assert np.allclose(derivative(make_series([0, 1, 1])).coeffs, [1, 2], atol=0)


def test_derivative_constant_is_zero():
    d = derivative(make_series([7.0]))
    assert d.trunc_order == 0 and d.coeffs[0] == 0


def test_derivative_drops_one_order():
    assert derivative(make_series([1, 2, 3, 4])).trunc_order == 2


def test_fundamental_theorem_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rand_series(rng, 20, unit=1.0)
        integral = shift(integrate_offset(g, 1.0), 1)
        assert max_coeff_diff(derivative(integral), g) < 1e-12


# ---------------------------------------------------------------- exp / log / pow

def test_exp_of_zero_is_one():
    e = exp_unit(Series(np.zeros(9)))
    assert e.coeffs[0] == 1 and np.all(e.coeffs[1:] == 0)


def test_exp_classical_coefficients():
    e = exp_unit(monomial(1.0, 1, 16))
    for k in range(17):
        assert abs(e.coeffs[k] - 1.0 / math.factorial(k)) < 1e-15


def test_exp_rejects_nonzero_constant():
    with pytest.raises(SeriesError):
        exp_unit(make_series([0.5, 1]))


def test_exp_group_law():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rand_series(rng, 24, unit=0.0)
        prod = mul(exp_unit(a), exp_unit(scale(a, -1)))
        assert abs(prod.coeffs[0] - 1) < 1e-12
        assert np.max(np.abs(prod.coeffs[1:])) < 1e-12


def test_exp_derivative_compatibility():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_series(rng, 24, unit=0.0)
        e = exp_unit(a)
        assert max_coeff_diff(derivative(e), mul(derivative(a), e)) < 1e-10


def test_pow_binomial_series():
    p = pow_unit(add_scalar(monomial(1.0, 1, 64), 1.0), -2)
    for k in range(65):
        expected = (-1) ** k * (k + 1)
        assert abs(p.coeffs[k] - expected) < 1e-12 * abs(expected)


def test_pow_zero_exponent():
    rng = np.random.default_rng(17)
    a = rand_series(rng, 12, amp=0.5, decay=0.6, unit=1.0)
    p = pow_unit(a, 0.0)
    assert p.coeffs[0] == 1 and np.all(np.abs(p.coeffs[1:]) < 1e-15)


def test_pow_inverse_exponent_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rand_series(rng, 24, amp=0.5, decay=0.6, unit=1.0)
        e = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(e) < 0.3:
            e += 0.5
        assert max_coeff_diff(pow_unit(pow_unit(a, e), 1 / e), a) < 1e-10


def test_pow_exponent_addition():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rand_series(rng, 20, amp=0.5, decay=0.6, unit=1.0)
        e1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        e2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = pow_unit(a, e1 + e2)
        rhs = mul(pow_unit(a, e1), pow_unit(a, e2))
        assert max_coeff_diff(lhs, rhs) < 1e-10


def test_pow_rejects_nonunit_base():
    with pytest.raises(SeriesError):
        pow_unit(make_series([2.0, 1.0]), 0.5)


def test_log_exp_inverse():
    rng = np.random.default_rng(29)
    a = rand_series(rng, 24, unit=0.0)
    assert max_coeff_diff(log_unit(exp_unit(a)), a) < 1e-11


# ---------------------------------------------------------------- integrate_offset

def test_integrate_offset_unit_case():
    h = integrate_offset(make_series([1.0, 0.0]), 1.0)
    assert h.coeffs[0] == 1 and h.coeffs[1] == 0


def test_integrate_offset_termwise():
    h = integrate_offset(make_series([1.0, 1.0]), 2.0)
    assert np.allclose(h.coeffs, [0.5, 1 / 3], atol=1e-16)


def test_integrate_offset_resonance_names_index():
    with pytest.raises(ResonantExponentError) as exc:
        integrate_offset(make_series([1.0, 1.0]), -1.0)
    assert exc.value.k == 1


def test_integrate_offset_skips_resonance_on_exact_zero():
    # only structure powers carry coefficients; the empty slot at the
    # resonant index must not manufacture an error
    g = make_series([1.0, 0.0, 0.5])
    h = integrate_offset(g, -1.0)
    assert h.coeffs[1] == 0


def test_integrate_offset_formal_identity():
    rng = np.random.default_rng(31)
    for c in (0.7, -0.35 + 0.4j, 2.5 - 1j):
        g = rand_series(rng, 24, unit=1.0)
        h = integrate_offset(g, c)
        lhs = add(scale(h, c), shift(derivative(h), 1))
        assert max_coeff_diff(lhs, g) < 1e-12


def test_integrate_offset_requires_nonzero_constant():
    with pytest.raises(SeriesError):
        integrate_offset(make_series([0.0, 1.0]), 1.0)


def test_integrate_offset_names_the_relative_floor():
    # g0 = 1 is refused because the floor scales with g_1 = 2e12
    with pytest.raises(SeriesError) as e:
        integrate_offset(make_series([1.0, 2e12]), 1.0)
    assert str(e.value) == (
        "integrate_offset needs a unit constant term: |g0| = 1.000e+00 is "
        "below 1e-12 × max(1, max|g_k|) = 2.0e+12")


# ---------------------------------------------------------------- evaluate / tail

def _horner(coeffs, z):
    acc = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


@pytest.mark.parametrize("order, m", [(128, 2048), (256, 64), (300, 64)])
def test_evaluate_circle_matches_horner(order, m):
    # at m = 64, order + 1 > m: the weights past m fold back onto the grid
    rng = np.random.default_rng(order)
    s = rand_series(rng, order)
    r = 0.99
    got = evaluate_grid(s, Circle(r, m))
    want = _horner(s.coeffs, r * np.exp(2j * np.pi * np.arange(m) / m))
    weight = np.sum(np.abs(s.coeffs) * r ** np.arange(order + 1))
    assert got.shape == (m,)
    assert np.max(np.abs(got - want)) <= 1e-13 * weight


@pytest.mark.parametrize("order", [0, 10, 100])
def test_evaluate_circle_constant_exact(order):
    s = make_series([2.5 - 1.25j] + [0.0] * order)
    assert np.all(evaluate_grid(s, Circle(0.9, 64)) == 2.5 - 1.25j)


def _folded_circle_reference(s, circle):
    """Weights padded to a multiple of ``m``, folded, then one FFT."""
    b = s.coeffs * circle.r ** np.arange(s.coeffs.size)
    b = np.pad(b, (0, -b.size % circle.m)).reshape(-1, circle.m).sum(0)
    return np.fft.ifft(b, norm="forward")


@pytest.mark.parametrize("order, m", [
    (31, 64), (128, 512), (256, 2048),      # order + 1 < m: zero-filled
    (63, 64), (0, 1),                       # order + 1 == m
    (64, 64), (300, 256), (128, 100),       # order + 1 > m: folded
])
def test_evaluate_circle_equals_folded_reference(order, m):
    s = rand_series(np.random.default_rng(order + m), order)
    circle = Circle(0.95, m)
    assert np.array_equal(evaluate_grid(s, circle),
                          _folded_circle_reference(s, circle))


def test_circle_size_is_its_point_count():
    assert Circle(0.5, 2048).size == 2048


def test_evaluate_geometric_within_tail_bound():
    s = make_series([1.0] * 33, 32)
    val = np.polyval(s.coeffs[::-1], 0.5)
    assert abs(val - 2.0) <= tail_estimate(s, 0.5) + 1e-15


def test_tail_estimate_padded_polynomial_is_zero():
    s = make_series([1.0, 1.0] + [0.0] * 31, 32)
    assert tail_estimate(s, 0.9) == 0.0


def test_tail_estimate_geometric():
    s = make_series([1.0] * 33, 32)
    est = tail_estimate(s, 0.5)
    exact_tail = 0.5**33 / (1 - 0.5)
    assert est == pytest.approx(exact_tail, rel=1e-12)
    assert est <= 2 * 0.5**33 / (1 - 0.5)


def test_tail_estimate_rejects_r_one():
    with pytest.raises(SeriesError):
        tail_estimate(make_series([1.0, 1.0]), 1.0)


def test_tail_estimate_infinite_for_fast_growth():
    s = make_series([2.0**k for k in range(17)], 16)
    assert math.isinf(tail_estimate(s, 0.9))


# ---------------------------------------------------------------- candidates

def test_schlicht_shape_enforced():
    with pytest.raises(SeriesError):
        SchlichtCandidate(n=2, series=make_series([0, 1, 0.5, 0, 0, 0]))


def test_schlicht_needs_enough_orders():
    with pytest.raises(SeriesError):
        SchlichtCandidate(n=3, series=make_series([0, 1, 0, 0]))


def test_builtin_candidates():
    koebe = builtin_candidate("koebe", 16)
    assert np.all(koebe.series.coeffs[1:] == np.arange(1, 17))
    half = builtin_candidate("halfplane", 16)
    assert np.all(half.series.coeffs[1:] == 1.0)
    ident = builtin_candidate("identity", 16, n=4)
    assert ident.n == 4
    with pytest.raises(SeriesError):
        builtin_candidate("koebe", 16, n=2)


@pytest.mark.parametrize("name", ["identity", "koebe", "halfplane"])
@pytest.mark.parametrize("trunc", [-1, 0, 1, 2])
def test_builtin_candidate_refuses_a_short_order_before_building(name, trunc):
    with pytest.raises(SeriesError) as e:
        builtin_candidate(name, trunc)
    assert str(e.value) == (
        f"truncation order {trunc} too small for n=1; need at least 3")


@pytest.mark.parametrize("name, message", [
    ("identity", "class index n must be >= 1, got 0"),
    ("koebe", "koebe lies in the n=1 class only"),
    ("halfplane", "halfplane lies in the n=1 class only"),
])
def test_builtin_candidate_refuses_class_index_zero(name, message):
    with pytest.raises(SeriesError) as e:
        builtin_candidate(name, 16, n=0)
    assert str(e.value) == message


@pytest.mark.parametrize("trunc", [series.MAX_TRUNC_ORDER + 1, 10 ** 20])
def test_size_rule_refuses_an_order_above_its_cap_before_building(trunc):
    series.require_trunc_order(series.MAX_TRUNC_ORDER, 1)
    message = f"truncation order {trunc} too large; at most 65536"
    for build in (lambda: series.require_trunc_order(trunc, 1),
                  lambda: series.schlicht_from_tail(1, [], trunc),
                  lambda: builtin_candidate("koebe", trunc)):
        with pytest.raises(SeriesError) as e:
            build()
        assert str(e.value) == message


@pytest.mark.parametrize("n, trunc", [(0, 100), (-1, -5)])
def test_size_rule_refuses_the_class_index_first(n, trunc):
    with pytest.raises(SeriesError) as e:
        series.require_trunc_order(trunc, n)
    assert str(e.value) == f"class index n must be >= 1, got {n}"


@pytest.mark.parametrize("trunc", [8, 32, 128])
def test_builtin_candidates_equal_hand_built_arrays(trunc):
    want = {name: np.zeros(trunc + 1, dtype=np.complex128)
            for name in ("identity", "koebe", "halfplane")}
    want["identity"][1] = 1.0
    want["koebe"][1:] = np.arange(1, trunc + 1)
    want["halfplane"][1:] = 1.0
    for name, arr in want.items():
        got = builtin_candidate(name, trunc).series.coeffs
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name
