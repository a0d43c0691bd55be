"""Reference formulas the tests share, each written once.

Each helper spells a series operation out the plain way, so a test can
compare the library's kernels against it.  When a ``src`` helper that
tests use as a reference is deleted, its reference copy moves here, once;
``tests/test_imports.py`` checks that no test file defines one of these
names again and that every one still has a user.  The one loader of the
scripts under ``perfbench/`` and ``tools/`` lives here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from starcert import series
from starcert.functionals import identity_parts, random_candidates
from starcert.oracle import SamplingConfig
from starcert.series import SchlichtCandidate, Series, builtin_candidate, div, mul


def monomial(coeff: complex, power: int, trunc_order: int) -> Series:
    """``coeff z^power`` truncated at order ``trunc_order``."""
    arr = np.zeros(trunc_order + 1, dtype=np.complex128)
    arr[power] = coeff
    return Series(arr)


def shift(a: Series, k: int) -> Series:
    """``z^k a``: ``k`` zeros in front of the coefficients."""
    return Series(np.concatenate([np.zeros(k, dtype=np.complex128), a.coeffs]))


def derivative(a: Series) -> Series:
    """``a'``, one order shorter: the term-wise derivative kernel, boxed; a
    coefficient that overflows is refused by the box."""
    with np.errstate(over="ignore"):
        return Series(series._derivative(a.coeffs))


def add(a: Series, b: Series) -> Series:
    """``a + b``, truncated at the shorter order."""
    m = min(a.trunc_order, b.trunc_order)
    return Series(a.coeffs[: m + 1] + b.coeffs[: m + 1])


def add_scalar(a: Series, s) -> Series:
    """``a + s``: ``s`` added to the constant term."""
    c = a.coeffs.copy()
    c[0] += complex(s)
    return Series(c)


def unit_part(f: SchlichtCandidate) -> Series:
    """``u = f/z``: the candidate's coefficients past ``c0``."""
    return Series(f.series.coeffs[1:])


def max_coeff_diff(a: Series, b: Series) -> float:
    """Largest coefficient deviation over the common retained orders."""
    m = min(a.trunc_order, b.trunc_order)
    return float(np.max(np.abs(a.coeffs[: m + 1] - b.coeffs[: m + 1])))


def random_candidate(n, trunc_order, rng):
    """One random class member: a one-row block draw, as a candidate."""
    return SchlichtCandidate(
        n, Series(random_candidates(n, 1, trunc_order, rng)[0]))


def functional_candidates():
    """Random class members and the three builtins at orders 8 to 128, the
    inputs the functionals are compared with their references on."""
    rng = np.random.default_rng(424251)
    for order in (8, 24, 48, 128):
        for n in (1, 2, 3):
            yield random_candidate(n, order, rng)
        for name in ("koebe", "halfplane", "identity"):
            yield builtin_candidate(name, order)


def parts(f: SchlichtCandidate):
    """``R1`` and ``R2`` of one candidate, as a one-row block."""
    return identity_parts(f.series.coeffs[None])


def series_quotients(f: SchlichtCandidate):
    """``zf'/f``, ``1 + zf''/f'`` and ``w = f/(zf') - 1`` written as the
    public Series operations."""
    fp = derivative(f.series)
    p = div(fp, unit_part(f))
    q = add_scalar(div(shift(derivative(fp), 1), fp), 1.0)
    w = add_scalar(div(unit_part(f), fp), -1.0)
    return p, q, w


def rewrite_parts(p: Series, q: Series, w: Series):
    """``R1 = P(1 + w) - 1`` and ``R2 = Q(1 + w) - 1 + z w'``."""
    r1 = add_scalar(mul(p, add_scalar(w, 1.0)), -1.0)
    r2 = add(add_scalar(mul(q, add_scalar(w, 1.0)), -1.0),
             shift(derivative(w), 1))
    return r1, r2


# the acceptance sampling: 45 radii 0.10, 0.12, ..., 0.98, then 0.99
ACC_CFG = SamplingConfig(
    radii=tuple(round(0.10 + 0.02 * i, 10) for i in range(45)) + (0.99,),
    angles=512,
)


def load_module(name: str, folder: Path):
    """``folder/name.py``, loaded from its path: ``perfbench/`` and
    ``tools/`` are not packages, and the tests never modify them."""
    spec = importlib.util.spec_from_file_location(
        f"{folder.name}_{name}", folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
