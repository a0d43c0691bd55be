"""Count false certificates: sampled certificates that a polynomial input
itself contradicts.

    PYTHONPATH=src python tools/census.py SEED COUNT

It takes no options but a seed and a draw count, each a non-negative
integer, and reads ``starcert`` from ``PYTHONPATH``.  Draws alternate
between two families of COEFFS inputs, ``f = z + a_(n+1) z^(n+1) + ...
+ a_N z^N`` at class index ``n`` in 1..3 and truncation order ``N`` in
{16, 32, 64}:

* sparse: 1-3 nonzero ``a_k`` at random orders ``k > n``, with
  ``|a_k| < 0.3/k`` and random phases;
* dense: every ``a_k`` nonzero, ``|a_k| = s u_k 0.9^k`` with ``u_k`` in
  [0.5, 1) and random phases; half of these draws scale ``s`` so that
  ``sum k^2 |a_k|`` lies in [0.5, 0.9), which makes ``f`` convex on the
  closed disk, and half so that it lies in [1.1, 3), past that bound.

Each draw takes one of the six criterion kinds at random, redraws its
parameters until ``build_spec`` admits them, and runs ``check_criterion``
at the default sampling config.  A polynomial input is its own function,
so each ``CERTIFIED_SAMPLED`` report is judged on the polynomial: every
inequality it certifies is evaluated from ``np.polyval`` of ``f``, ``f'``
and ``f''`` on a grid 32 times denser than the report's, on each circle
the report sampled.  An inequality that fails there is confirmed at its
worst grid point in ``mpmath`` at 40 digits; a certificate is false when
one of its inequalities is confirmed to fail.  The overstatement of a
margin is the report's margin less the least pointwise margin on the
dense grid; the table shows the largest per kind.  None of this shares
evaluation code with ``starcert``.

The inputs are written out here rather than imported from ``perfbench``
or ``tests``, so an edit there cannot move a count.  The tier-1 subset in
``tests/test_known_answers.py`` runs ``checked_draw`` and ``judge`` from
here.  Needs ``mpmath`` (the ``test`` extra).
"""

from __future__ import annotations

import sys
import time

import mpmath
import numpy as np

from starcert.criteria import CriterionKind, CriterionParams, build_spec
from starcert.oracle import SamplingConfig, Verdict, check_criterion
from starcert.series import schlicht_from_tail

CFG = SamplingConfig()
DENSER = 32
TRUNCS = (16, 32, 64)
KINDS = tuple(CriterionKind)
LHS_B_KINDS = (CriterionKind.LEMMA_B, CriterionKind.THM_B)
mpmath.mp.dps = 40


def sparse_tail(n: int, trunc: int, rng: np.random.Generator) -> np.ndarray:
    """``a_2..a_trunc`` with 1-3 nonzero ``a_k``, ``k > n``, ``|a_k| < 0.3/k``."""
    orders = rng.choice(np.arange(n + 1, trunc + 1), int(rng.integers(1, 4)),
                        replace=False)
    tail = np.zeros(trunc - 1, dtype=np.complex128)
    tail[orders - 2] = (0.3 * rng.uniform(0, 1, orders.size) / orders
                        * np.exp(2j * np.pi * rng.uniform(0, 1, orders.size)))
    return tail


def dense_tail(n: int, trunc: int, rng: np.random.Generator) -> np.ndarray:
    """``a_2..a_trunc``, ``|a_k|`` proportional to ``u_k 0.9^k`` for
    ``k > n``, with ``sum k^2 |a_k|`` in [0.5, 0.9) or in [1.1, 3)."""
    k = np.arange(n + 1, trunc + 1)
    mags = rng.uniform(0.5, 1.0, k.size) * 0.9 ** k
    total = rng.uniform(0.5, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 3.0)
    mags *= total / float(np.sum(k * k * mags))
    tail = np.zeros(trunc - 1, dtype=np.complex128)
    tail[n - 1:] = mags * np.exp(2j * np.pi * rng.uniform(0, 1, k.size))
    return tail


def draw_params(kind: CriterionKind, n: int,
                rng: np.random.Generator) -> CriterionParams:
    """Random parameters of ``kind`` at class index ``n``, redrawn until
    ``build_spec`` admits them."""
    while True:
        beta, gamma = rng.uniform(-1, 1, (2, 2)) @ (1, 1j)
        alpha = float(rng.uniform(0.05, 0.95))
        if kind in (CriterionKind.LEMMA_A, CriterionKind.LEMMA_B):
            p = CriterionParams(kind=kind, n=n, beta=beta, gamma=gamma,
                                rho=float(rng.uniform(0.05, 1.0)))
        elif kind is CriterionKind.COR_A:
            p = CriterionParams(kind=kind, n=n, alpha=alpha,
                                gamma=float(rng.uniform(-2, 2)))
        elif kind is CriterionKind.MOCANU:
            p = CriterionParams(kind=kind, n=n, alpha=alpha)
        else:
            p = CriterionParams(kind=kind, n=n, beta=beta, gamma=gamma,
                                alpha=alpha)
        if build_spec(p).admissible:
            return p


def parts(rep):
    """``(circle radius, reported margin, pointwise margin)`` for each
    inequality a certificate states.  The pointwise margin maps
    ``P = zf'/f``, ``Q = 1 + zf''/f'`` and ``W = f/(zf')`` to the margin
    at a point, positive where the inequality holds, on numpy arrays and
    on mpmath scalars alike."""
    s = rep.spec
    out = []
    if rep.kind is CriterionKind.MOCANU:
        a, bound = s.alpha, s.rhs_bound
        out.append((rep.hypothesis_witness[0], rep.hypothesis_margin,
                    lambda P, Q, W: ((1 - a) * P + a * Q).real - bound))
    else:
        b, g, bound = s.eff_beta, s.eff_gamma, s.rhs_bound
        if rep.kind in LHS_B_KINDS:
            out.append((rep.hypothesis_witness[0], rep.hypothesis_margin,
                        lambda P, Q, W: bound - abs(b * (P - 1) + g * (Q - 1))))
        else:
            out.append((rep.hypothesis_witness[0], rep.hypothesis_margin,
                        lambda P, Q, W: bound - abs((b - g) * P + g * Q)))
        c, radius = s.conclusion_center, s.conclusion_radius
        out.append((rep.conclusion_witness[0], rep.conclusion_margin,
                    lambda P, Q, W: radius - abs(W - c)))
    if s.order is not None:
        order = s.order
        out.append((rep.cross_witness[0], rep.cross_margin,
                    lambda P, Q, W: P.real - order))
    return out


def pointwise(c: np.ndarray, r: float, m: int):
    """``P, Q, W`` at the ``m`` points ``r e^(2 pi i j / m)`` by
    ``np.polyval`` of ``f, f', f''`` (coefficients ``c``, ascending)."""
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    k = np.arange(c.size)
    f, d1, d2 = (np.polyval(d[::-1], z)
                 for d in (c, (k * c)[1:], (k * (k - 1) * c)[2:]))
    return z * d1 / f, 1 + z * d2 / d1, f / (z * d1)


def pointwise_mp(c: np.ndarray, r: float, j: int, m: int):
    """``P, Q, W`` at ``r e^(2 pi i j / m)`` in mpmath arithmetic."""
    z = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / m)
    f = d1 = d2 = mpmath.mpc(0)
    for k, ck in enumerate(c.tolist()):
        ck = mpmath.mpc(ck)
        f += ck * z ** k
        if k >= 1:
            d1 += k * ck * z ** (k - 1)
        if k >= 2:
            d2 += k * (k - 1) * ck * z ** (k - 2)
    return z * d1 / f, 1 + z * d2 / d1, f / (z * d1)


def judge(c: np.ndarray, rep, m: int):
    """(false, unconfirmed, largest overstatement) of one certificate."""
    circles = {}
    false = unconfirmed = False
    worst = -np.inf
    for r, reported, margin in parts(rep):
        if r not in circles:
            circles[r] = pointwise(c, r, m)
        at = margin(*circles[r])
        j = int(np.argmin(at))
        worst = max(worst, reported - float(at[j]))
        if at[j] <= 0:
            if margin(*pointwise_mp(c, r, j, m)) <= 0:
                false = True
            else:
                unconfirmed = True
    return false, unconfirmed, worst


def checked_draw(family, rng: np.random.Generator):
    """``(f, report)``: one input of ``family`` (``sparse_tail`` or
    ``dense_tail``) at a random class index and truncation, checked at
    ``CFG`` under a random kind with random admissible parameters."""
    n, trunc = int(rng.integers(1, 4)), int(rng.choice(TRUNCS))
    f = schlicht_from_tail(n, family(n, trunc, rng), trunc)
    kind = KINDS[int(rng.integers(len(KINDS)))]
    return f, check_criterion(f, draw_params(kind, n, rng), CFG)


def census(seed: int, count: int):
    """Per kind: [checks, certificates, false certificates, largest
    overstatement], and the count of polyval failures mpmath refuted."""
    rng = np.random.default_rng(seed)
    rows = {kind: [0, 0, 0, -np.inf] for kind in KINDS}
    unconfirmed = 0
    for i in range(count):
        f, rep = checked_draw(sparse_tail if i % 2 == 0 else dense_tail, rng)
        row = rows[rep.kind]
        row[0] += 1
        if rep.verdict is Verdict.CERTIFIED_SAMPLED:
            false, refuted, worst = judge(f.series.coeffs, rep,
                                          DENSER * CFG.angles)
            row[1] += 1
            row[2] += false
            row[3] = max(row[3], worst)
            unconfirmed += refuted
    return rows, unconfirmed


def table(rows) -> list[str]:
    """One line per kind and a total line."""
    def line(name, checks, certs, false, worst):
        over = f"{worst:.3e}" if certs else "-"
        return f"{name:<8} {checks:>7} {certs:>7} {false:>6} {over:>12}"

    out = [f"{'kind':<8} {'checks':>7} {'certs':>7} {'false':>6} "
           f"{'overstated':>12}"]
    out += [line(kind.value, *row) for kind, row in rows.items()]
    total = [sum(row[i] for row in rows.values()) for i in range(3)]
    out.append(line("total", *total, max(row[3] for row in rows.values())))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(arg.isdecimal() for arg in argv):
        print("usage: census.py SEED COUNT", file=sys.stderr)
        return 2
    seed, count = int(argv[0]), int(argv[1])
    start = time.perf_counter()
    rows, unconfirmed = census(seed, count)
    print(f"seed {seed}, {count} draws")
    print("\n".join(table(rows)))
    if unconfirmed:
        print(f"{unconfirmed} polyval failures not confirmed at 40 digits")
    print(f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
