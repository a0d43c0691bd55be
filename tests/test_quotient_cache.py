"""The per-candidate quotient cache: each of ``zf'/f``, ``1 + zf''/f'`` and
``w``, and the reciprocal of ``f'`` the last two share, is built once per
candidate, and sharing it changes no result.  The identity sweep builds the
same series for a block of candidates at a time, outside the cache, with
the same bits.

The uncached reference is the Series-operation form in
``reference_formulas``, run on a fresh ``SchlichtCandidate`` with the same
series for every call, so no call can see another's quotients.
"""

import collections
import dataclasses
import sys
import warnings

import numpy as np
import pytest

from starcert import functionals, series
from starcert.cli import main
from starcert.criteria import CriterionKind, CriterionParams
from starcert.extremals import (
    ExtremalFamily,
    build_extremal,
    documented_grid,
    probe_identity_a,
    verify_identity_b,
)
from starcert.functionals import (
    convex_quotient,
    identity_a_residual,
    identity_b_residual,
    identity_parts,
    identity_sweep,
    lhs_a,
    mocanu_functional,
    random_candidates,
    starlike_quotient,
    w_func,
)
from starcert.oracle import SamplingConfig, check_criterion
from starcert.series import SchlichtCandidate, Series, builtin_candidate

from reference_formulas import (
    derivative,
    functional_candidates,
    parts,
    random_candidate,
    rewrite_parts,
    series_quotients,
    unit_part,
)

CFG = SamplingConfig(radii=(0.5, 0.9, 0.99), angles=256)
QUOTIENTS = (starlike_quotient, convex_quotient, w_func)


def fresh(f: SchlichtCandidate) -> SchlichtCandidate:
    """The same function as ``f`` with an empty quotient cache."""
    return SchlichtCandidate(f.n, f.series)


def reciprocal(b: Series) -> Series:
    """``1/b`` to the order of ``b``: the checked Newton reciprocal, boxed."""
    return Series(series._checked_reciprocal(b.coeffs))


def sample_candidates():
    rng = np.random.default_rng(7)
    out = [random_candidate(n, 32, rng) for n in (1, 2, 3)]
    out.append(builtin_candidate("koebe", 64))
    for family in ExtremalFamily:
        out.append(build_extremal(documented_grid(family)[5], 64))
    return out


def grid_cases():
    """A few grid cells per family, with their extremal parameters, and one
    koebe THM_A case."""
    cases = []
    for family in ExtremalFamily:
        for p in documented_grid(family)[::11]:
            cases.append((build_extremal(p, 96), p.criterion, p))
    cases.append((builtin_candidate("koebe", 128),
                  CriterionParams(kind=CriterionKind.THM_A, n=1, beta=0.3 + 0.1j,
                                  gamma=1.0, alpha=0.5),
                  None))
    return cases


@pytest.mark.parametrize("build", QUOTIENTS, ids=lambda q: q.__name__)
def test_cached_quotient_is_built_once_and_read_only(build):
    f = sample_candidates()[0]
    first = build(f)
    lhs_a(f, 0.3, 1.0 - 0.5j)          # other functionals reuse, never rebuild
    mocanu_functional(f, 0.4)
    assert build(f) is first
    assert not first.coeffs.flags.writeable
    with pytest.raises(ValueError):
        first.coeffs[0] = 2.0


@pytest.mark.parametrize("build", QUOTIENTS, ids=lambda q: q.__name__)
def test_cached_quotient_equals_a_fresh_build(build):
    for f in sample_candidates():
        lhs_a(f, 0.2, 1.0)              # fill the cache through another caller
        cached = build(f)
        assert np.array_equal(cached.coeffs, build(fresh(f)).coeffs)
        assert np.array_equal(cached.coeffs, build.__wrapped__(fresh(f)).coeffs)


def test_fprime_reciprocal_is_one_read_only_array():
    f = sample_candidates()[2]
    inv = functionals._fprime_reciprocal(f)
    convex_quotient(f)
    w_func(f)
    assert functionals._fprime_reciprocal(f) is inv
    assert type(inv) is np.ndarray and not inv.flags.writeable
    want = reciprocal(derivative(f.series)).coeffs
    assert inv.tobytes() == want.tobytes()


def test_cache_is_not_part_of_the_candidate_record():
    f = builtin_candidate("koebe", 16)
    starlike_quotient(f)
    w_func(f)
    assert set(dataclasses.asdict(f)) == {"n", "series"}
    assert "_quotients" not in repr(f)


def test_identity_sweep_matches_uncached_reference():
    per_n, pairs, trunc, seed = 8, 5, 40, 99
    got = identity_sweep(per_n=per_n, pairs=pairs, trunc_order=trunc, seed=seed)
    # identity_sweep's draws, with every residual taken on a fresh candidate
    rng = np.random.default_rng(seed)
    bg = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
           complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
          for _ in range(pairs)]
    worst_a = worst_b = 0.0
    for n in (1, 2, 3):
        for _ in range(per_n):
            f = random_candidate(n, trunc, rng)
            for beta, gamma in bg:
                worst_a = max(worst_a, identity_a_residual(
                    reference_parts(f), beta, gamma))
                worst_b = max(worst_b, identity_b_residual(
                    reference_parts(f), beta, gamma))
    assert (got.max_residual_a, got.max_residual_b) == (worst_a, worst_b)


def test_check_reports_match_uncached_reference():
    for f, params, extremal in grid_cases():
        want = check_criterion(fresh(f), params, CFG)
        # the extremal command's self-check runs first on the same candidate
        if extremal is not None and extremal.family is ExtremalFamily.EXTREMAL_B:
            verify_identity_b(f, extremal)
        elif extremal is not None:
            probe_identity_a(f, extremal)
        assert check_criterion(f, params, CFG) == want
        assert check_criterion(f, params, CFG) == want


# ------------------------------------------------------------ operation counts

@pytest.fixture
def reciprocal_calls(monkeypatch):
    """Calls to the checked reciprocal ``series._checked_reciprocal``
    through every starcert module's binding; ``series.div`` makes one."""
    calls = []
    original = series._checked_reciprocal

    def counting(b):
        calls.append(1)
        return original(b)

    for name, module in list(sys.modules.items()):
        if name == "starcert" or name.startswith("starcert."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("pairs", [1, 3, 5])
def test_identity_sweep_builds_two_reciprocals_per_candidate(reciprocal_calls,
                                                             pairs):
    res = identity_sweep(per_n=2, pairs=pairs, trunc_order=24,
                         seed=20240801)
    assert res.functions == 6
    # 1/(f/z) for zf'/f, and 1/f' shared by 1 + zf''/f' and w
    assert len(reciprocal_calls) == 2 * res.functions


@pytest.fixture
def sweep_work(monkeypatch):
    """Calls functionals makes to the cached quotients, the product and
    derivative kernels and the two residuals; and every ``Series``
    constructed."""
    counts = collections.Counter()

    def counting(name, original):
        def count(*args):
            counts[name] += 1
            return original(*args)
        return count

    for name in ("starlike_quotient", "convex_quotient", "w_func", "_mul",
                 "_derivative", "identity_a_residual", "identity_b_residual"):
        monkeypatch.setattr(functionals, name,
                            counting(name, getattr(functionals, name)))
    monkeypatch.setattr(series.Series, "__post_init__",
                        counting("Series", series.Series.__post_init__))
    return counts


def cache_snapshot():
    """Each cached candidate with the objects its cache entry holds."""
    return [(f, list(store.items()))
            for f, store in functionals._quotients.items()]


def assert_cache_unchanged(before):
    after = cache_snapshot()
    assert len(after) == len(before)
    for (f, entry), (g, want) in zip(after, before):
        assert f is g
        assert [k for k, _ in entry] == [k for k, _ in want]
        assert all(v is w for (_, v), (_, w) in zip(entry, want))


@pytest.mark.parametrize("pairs", [1, 3, 5])
def test_identity_sweep_builds_pair_parts_once_per_candidate(sweep_work, pairs):
    held = builtin_candidate("koebe", 16)
    starlike_quotient(held)
    w_func(held)
    before = cache_snapshot()
    sweep_work.clear()
    res = identity_sweep(per_n=2, pairs=pairs, trunc_order=24,
                         seed=20240801)
    assert res.functions == 6
    # the six candidates are one block, which never enters the cache
    assert sweep_work["starlike_quotient"] == 0
    assert sweep_work["convex_quotient"] == 0
    assert sweep_work["w_func"] == 0
    assert_cache_unchanged(before)
    # one call per identity takes every (beta, gamma) pair over the block
    assert sweep_work["identity_a_residual"] == 1
    assert sweep_work["identity_b_residual"] == 1
    # zf'/f, 1 + zf''/f' and w are one product each with a reciprocal, R1
    # and R2 two more; f' is one derivative for the whole block, which zf''
    # and z w' scale by the orders; no pair adds either
    assert sweep_work["_mul"] == 5 * res.functions
    assert sweep_work["_derivative"] == 1
    # the candidates, f/z, f', the reciprocals and every part stay arrays
    assert sweep_work["Series"] == 0


@pytest.mark.parametrize("rows", [1, 2, 5, 7, 20])
def test_identity_sweep_is_the_same_across_block_boundaries(monkeypatch,
                                                            sweep_work, rows):
    per_n, pairs, trunc, seed = 7, 3, 40, 5
    want = identity_sweep(per_n=per_n, pairs=pairs, trunc_order=trunc,
                          seed=seed)
    # the per-candidate reference: one-row draws, the residuals of each
    # candidate's uncached Series-operation parts, pair by pair
    rng = np.random.default_rng(seed)
    bg = rng.uniform(-1, 1, (pairs, 4)).view(np.complex128)
    worst_a = worst_b = 0.0
    for n in (1, 2, 3):
        for _ in range(per_n):
            f = random_candidate(n, trunc, rng)
            for beta, gamma in bg:
                worst_a = max(worst_a, identity_a_residual(
                    reference_parts(f), beta, gamma))
                worst_b = max(worst_b, identity_b_residual(
                    reference_parts(f), beta, gamma))
    assert (want.max_residual_a, want.max_residual_b) == (worst_a, worst_b)
    # blocks of ``rows`` candidates, which straddle the class boundaries
    monkeypatch.setattr(functionals, "_BLOCK_ELEMENTS",
                        rows * pairs * (trunc + 1))
    sweep_work.clear()
    got = identity_sweep(per_n=per_n, pairs=pairs, trunc_order=trunc,
                         seed=seed)
    assert got == want
    blocks = -(-3 * per_n // rows)
    assert sweep_work["identity_a_residual"] == blocks
    assert sweep_work["identity_b_residual"] == blocks
    assert sweep_work["_derivative"] == blocks
    assert sweep_work["_mul"] == 5 * got.functions


def test_identity_sweep_takes_its_pairs_in_slices(monkeypatch):
    # 1024 pairs at N = 64 are five slices of at most 252 pairs, so no
    # residual temporary exceeds max(2**14, N + 1) elements; the largest
    # residual does not depend on the slicing
    sizes = []
    residual = functionals.identity_a_residual

    def spy(parts, beta, gamma):
        sizes.append(len(beta) * parts[0].size)
        return residual(parts, beta, gamma)

    monkeypatch.setattr(functionals, "identity_a_residual", spy)
    want = identity_sweep(per_n=1, pairs=1024, trunc_order=64, seed=20240801)
    assert len(sizes) == 3 * 5
    assert max(sizes) <= max(2 ** 14, 64 + 1)
    for elements in (1, 3 * 65, 2 ** 30):  # one pair; three; one slice
        monkeypatch.setattr(functionals, "_BLOCK_ELEMENTS", elements)
        assert identity_sweep(per_n=1, pairs=1024, trunc_order=64,
                              seed=20240801) == want


def test_a_block_residual_is_the_largest_row_residual():
    rng = np.random.default_rng(21)
    block = np.concatenate([random_candidates(n, 4, 32, rng) for n in (1, 2, 3)])
    beta = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    gamma = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    r1, r2 = identity_parts(block)
    for residual in (identity_a_residual, identity_b_residual):
        got = residual((r1, r2), beta, gamma)
        rows = [residual(identity_parts(row[None]), beta, gamma)
                for row in block]
        assert got.tobytes() == np.max(rows, axis=0).tobytes()
        assert residual((r1, r2), beta[2], gamma[2]) == got[2]


def _series_reference(f: SchlichtCandidate):
    """``zf'/f``, ``1 + zf''/f'``, ``w``, ``R1`` and ``R2`` written as the
    public Series operations, on a candidate with an empty cache."""
    p, q, w = series_quotients(fresh(f))
    return (p, q, w, *rewrite_parts(p, q, w))


def reference_parts(f: SchlichtCandidate):
    """``R1`` and ``R2`` of ``f`` as the public Series operations build
    them, on a candidate with an empty cache."""
    r1, r2 = _series_reference(f)[3:]
    return r1.coeffs, r2.coeffs


def reference_candidates():
    rng = np.random.default_rng(18)
    out = sample_candidates()
    out += [random_candidate(n, trunc, rng)
            for trunc in (8, 13, 32, 64, 100, 128) for n in (1, 2, 3)]
    for family in ExtremalFamily:
        out += [build_extremal(p, trunc)
                for p, trunc in zip(documented_grid(family)[::9], (48, 96, 128))]
    return out


def test_functionals_equal_the_series_operation_reference():
    for f in [*reference_candidates(), *functional_candidates()]:
        want = _series_reference(f)
        got = (starlike_quotient(f), convex_quotient(f), w_func(f))
        for s, ref in zip(got, want):
            assert s.coeffs.tobytes() == ref.coeffs.tobytes()
            assert not s.coeffs.flags.writeable
        for r, ref in zip(parts(f), want[3:]):
            assert r.shape == (1, f.trunc_order)
            assert r[0].tobytes() == ref.coeffs.tobytes()


def test_array_residuals_equal_the_scalar_calls():
    rng = np.random.default_rng(19)
    for f in reference_candidates():
        beta = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        gamma = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        for residual in (identity_a_residual, identity_b_residual):
            got = residual(parts(f), beta, gamma)
            assert got.shape == (6,)
            for b, g, r in zip(beta, gamma, got):
                one = residual(parts(f), complex(b), complex(g))
                assert type(one) is float
                assert r == one


def test_convex_quotient_refuses_an_overflowing_zf2():
    # f' = 5e307 z^49 is finite; z f'' = 2.45e309 z^49 is not
    arr = np.zeros(61, dtype=np.complex128)
    arr[1], arr[50] = 1.0, 1e306
    f = SchlichtCandidate(1, series.Series(arr))
    assert np.isfinite(derivative(f.series).coeffs).all()
    for _ in range(2):
        with pytest.raises(series.SeriesError):
            convex_quotient(f)


def _unit_refusal(scale_ref: str):
    return (series.NonUnitDivisorError,
            "non-unit divisor: |b0| = 1.000e+00 is below 1e-12 × max(1, "
            f"max|b_k|) = {scale_ref}")


def _nonfinite_refusal(index: int):
    return (series.NonFiniteCoefficientError,
            f"non-finite coefficient at index {index}")


_OVERFLOW = ["RuntimeWarning: overflow encountered in multiply"]
_REFUSAL_CALLS = {
    "starlike_quotient": starlike_quotient,
    "convex_quotient": convex_quotient,
    "w_func": w_func,
    "reciprocal(f/z)": lambda f: reciprocal(unit_part(f)),
    "reciprocal(f')": lambda f: reciprocal(derivative(f.series)),
}


# f = z + c z^k at truncation order ``order``, made with make_series, whose
# f', or the reciprocal of f' or of f/z, overflows or nearly does: each
# refusal, and the warnings before it, are what a Series box of f' and of
# each reciprocal gives.  A non-finite f' is named by its index before any
# unit check.
@pytest.mark.parametrize("k, c, order, call, refusal, warns", [
    (6, 1e308, 12, "starlike_quotient", _unit_refusal("1.0e+308"), _OVERFLOW),
    (6, 1e308, 12, "convex_quotient", _nonfinite_refusal(5), _OVERFLOW),
    (6, 1e308, 12, "w_func", _nonfinite_refusal(5), _OVERFLOW),
    (6, 1e308, 12, "reciprocal(f/z)", _unit_refusal("1.0e+308"), []),
    (2, 1e308 + 1e308j, 12, "starlike_quotient", _unit_refusal("1.4e+308"),
     _OVERFLOW),
    (2, 1e308 + 1e308j, 12, "convex_quotient", _nonfinite_refusal(1),
     _OVERFLOW),
    (2, 1e308 + 1e308j, 12, "w_func", _nonfinite_refusal(1), _OVERFLOW),
    # |f'_1| overflows though f'_1 is finite
    (2, 0.85e308 + 0.85e308j, 12, "convex_quotient", _unit_refusal("inf"), []),
    (2, 0.85e308 + 0.85e308j, 12, "w_func", _unit_refusal("inf"), []),
    (2, 0.85e308 + 0.85e308j, 12, "reciprocal(f')", _unit_refusal("inf"), []),
    (3, 5e307, 12, "starlike_quotient", _unit_refusal("5.0e+307"), []),
    (3, 5e307, 12, "convex_quotient", _unit_refusal("1.5e+308"), []),
    # both reciprocals overflow in a Newton step
    (2, 1e11, 40, "starlike_quotient", _nonfinite_refusal(29), []),
    (2, 1e11, 40, "convex_quotient", _nonfinite_refusal(28), []),
    (2, 1e11, 40, "w_func", _nonfinite_refusal(28), []),
    (2, 1e11, 40, "reciprocal(f/z)", _nonfinite_refusal(29), []),
    (2, 1e11, 40, "reciprocal(f')", _nonfinite_refusal(28), []),
])
def test_overflowing_candidates_keep_their_refusals(k, c, order, call,
                                                    refusal, warns):
    arr = np.zeros(order + 1, dtype=np.complex128)
    arr[1], arr[k] = 1.0, c
    f = SchlichtCandidate(1, series.make_series(arr))
    error, text = refusal
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(error) as err:
            _REFUSAL_CALLS[call](f)
    assert str(err.value) == text
    assert [f"{w.category.__name__}: {w.message}" for w in seen] == warns


def test_identity_parts_have_exact_zero_constant_terms():
    rng = np.random.default_rng(22)
    for trunc in (5, 8, 48, 130):
        block = np.concatenate([random_candidates(n, 3, trunc, rng)
                                for n in (1, 2, 3)])
        r1, r2 = identity_parts(block)
        assert r1.shape == r2.shape == (9, trunc)
        # P(1 + w) - 1 and Q(1 + w) - 1 + z w' have exact zero constant terms
        assert np.all(r1[:, 0] == 0) and np.all(r2[:, 0] == 0)


@pytest.mark.parametrize("kind", [
    CriterionKind.THM_A, CriterionKind.THM_B, CriterionKind.MOCANU])
def test_check_criterion_builds_two_reciprocals(reciprocal_calls, kind):
    f = builtin_candidate("halfplane", 48)
    kwargs = {} if kind is CriterionKind.MOCANU else {"beta": 0.2, "gamma": 1.0}
    check_criterion(f, CriterionParams(kind=kind, n=1, alpha=0.5, **kwargs), CFG)
    assert len(reciprocal_calls) == 2


def test_extremal_b_run_builds_two_reciprocals(reciprocal_calls, capsys):
    code = main(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                 "0.5", "--beta", "1", "--gamma", "1", "--trunc", "48",
                 "--radii", "0.5,0.9", "--angles", "256"])
    capsys.readouterr()
    assert code == 0
    assert len(reciprocal_calls) == 2


def test_extremal_a_run_builds_two_reciprocals(reciprocal_calls, capsys):
    # the self-check writes its closed form without a division
    code = main(["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha",
                 "0.4", "--beta", "0,0.2", "--gamma", "1", "--trunc", "48",
                 "--radii", "0.5,0.9", "--angles", "256"])
    capsys.readouterr()
    assert code == 0
    assert len(reciprocal_calls) == 2
