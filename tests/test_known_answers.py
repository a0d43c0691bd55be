"""Known answers: checks on ``f = z + a z^k`` against closed forms.

Write ``u = a z^(k-1)``; on ``|z| = r`` it runs over the circle ``|u| = q``
with ``q = |a| r^(k-1)``.  While ``kq < 1``:

- ``zf'/f = (1 + k u)/(1 + u)`` is a Moebius map in ``u``, so its least real
  part on the circle is ``(1 - kq)/(1 - q)``, taken at ``u = -q``;
- ``f/z = 1 + u`` and ``f' = 1 + k u`` have no zero in the closed disk;
- by the minimum principle, ``Re zf'/f > alpha`` on ``|z| < r`` only if
  ``(1 - kq)/(1 - q) > alpha``.  At ``r = 1`` this is ``|a| <= (1 - alpha)/
  (k - alpha)``, the extremal case of Silverman's coefficient condition
  (Proc. AMS 51, 1975).

Every ``|a|`` below keeps ``kq < 1``: ``k |a| <= 1.1 k (1 - alpha)/(k - alpha)
< 1`` for ``alpha >= 0.2``.  The closed forms share no code with the oracle.

The documented extremal grid has known answers of its own: family B's
hypothesis functional is ``S z^n`` and family A's is
``(S w + beta)/(1 + (conj(beta)/S) w)`` with ``w = z^n``, so their sups on
``|z| = r`` are ``S r^n`` and ``(S r^n + |beta|)/(1 + |beta| r^n/S)``; and
their coefficients follow from ``f = z (k h)^e`` in ``mpmath`` arithmetic,
by a power recurrence the library does not use.  ``P = zf'/f`` follows from
the inner series ``g`` and the shifted integral ``h`` alone, so the
conclusion sup at its witness and the least ``Re P`` on a circle are
evaluated at 40 digits with no series reciprocal and no power, for the grid
and for seeded draws that pass their self-check.

Open defects are strict expected failures: each asserts the true outcome,
so the change that mends one has to drop its marker.
"""

import cmath
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from starcert import cli
from starcert.criteria import CriterionKind, CriterionParams
from starcert.extremals import (
    ExtremalFamily,
    ExtremalParams,
    InadmissibleExtremalError,
    build_extremal,
    documented_grid,
    probe_identity_a,
    verify_identity_b,
)
from starcert.oracle import SamplingConfig, Verdict, check_criterion
from starcert.series import SeriesError, schlicht_from_tail

from reference_formulas import ACC_CFG, load_module

CFG = SamplingConfig(radii=(0.5, 0.9, 0.99), angles=512)
ORDERS = (2, 3, 5)
TRUNCS = (32, 64)
# |a| as a multiple of the exact threshold (1 - alpha)/(k - alpha) at r = 1
SCALES = (0.3, 0.6, 0.9, 1.0, 1.1)
ALPHAS = (0.2, 0.5, 0.7)
PHASES = (0.0, 2.0)
KINDS = (  # (kind, beta, gamma); COR_A fixes beta = 1
    (CriterionKind.THM_B, 1.0, 1.0),
    (CriterionKind.THM_A, 0.1, 1.0),
    (CriterionKind.COR_A, None, 2.0),
)
# cross_min_re against (1 - kq)/(1 - q); the worst seen is about 6e-12
CROSS_TOL = 1e-10


def _candidate(k, scale, alpha, phase, trunc):
    a = scale * (1 - alpha) / (k - alpha) * cmath.exp(1j * phase)
    return a, schlicht_from_tail(1, [0.0] * (k - 2) + [a], trunc)


def _params(kind, beta, gamma, alpha):
    extra = {} if beta is None else {"beta": beta}
    return CriterionParams(kind=kind, n=1, alpha=alpha, gamma=gamma, **extra)


def _min_re_starlike(k, a, r):
    q = abs(a) * r ** (k - 1)
    return (1 - k * q) / (1 - q)


@functools.cache
def _sweep():
    """(k, trunc, a, alpha, report) for every check of the sweep at CFG."""
    out = []
    for k, trunc, scale, alpha, phase, (kind, beta, gamma) in itertools.product(
            ORDERS, TRUNCS, SCALES, ALPHAS, PHASES, KINDS):
        a, f = _candidate(k, scale, alpha, phase, trunc)
        rep = check_criterion(f, _params(kind, beta, gamma, alpha), CFG)
        out.append((k, trunc, a, alpha, rep))
    return out


def test_no_false_certificate():
    sweep = _sweep()
    assert len(sweep) == 540
    certified = [(k, a, alpha) for k, _, a, alpha, rep in sweep
                 if rep.verdict is Verdict.CERTIFIED_SAMPLED]
    assert certified  # the sweep reaches certificates at all
    false = [(k, a, alpha) for k, a, alpha in certified
             if _min_re_starlike(k, a, CFG.radii[-1]) <= alpha]
    assert false == []


def test_monitor_finds_no_zero():
    assert [rep.denominator_violations for *_, rep in _sweep()
            if rep.denominator_violations] == []


@pytest.mark.parametrize("cfg", [CFG, SamplingConfig()], ids=["sweep", "default"])
def test_cross_check_matches_its_closed_form(cfg):
    # at trunc 32 the truncated series of zf'/f misses the closed form by up
    # to 4.5e-6 on the sweep, so only trunc 64 is held to CROSS_TOL
    if cfg is CFG:
        reports = [(k, a, rep) for k, trunc, a, _, rep in _sweep() if trunc == 64]
    else:  # the cross-check reads only f and the outer circle
        reports = []
        for k, scale, alpha, phase in itertools.product(ORDERS, SCALES, ALPHAS,
                                                        PHASES):
            a, f = _candidate(k, scale, alpha, phase, 64)
            rep = check_criterion(f, _params(*KINDS[0], alpha), cfg)
            reports.append((k, a, rep))
    errors = [abs(rep.cross_min_re - _min_re_starlike(k, a, cfg.radii[-1]))
              for k, a, rep in reports]
    assert max(errors) <= CROSS_TOL


# ------------------------------------------------------------ grid extremals

EPS = float(np.finfo(float).eps)


@functools.cache
def _grid_reports():
    """(params, report) for every grid cell at the acceptance config."""
    return [(p, check_criterion(build_extremal(p, 128), p.criterion, ACC_CFG))
            for family in ExtremalFamily for p in documented_grid(family)]


def test_grid_hypothesis_sups_equal_their_closed_forms():
    mp = pytest.importorskip("mpmath").mp
    worst = 0.0
    with mp.workdps(40):
        for p, rep in _grid_reports():
            s, b = mp.mpf(p.S), abs(mp.mpc(p.beta))
            rn = mp.mpf(rep.hypothesis_witness[0]) ** p.n
            want = (s * rn if p.family is ExtremalFamily.EXTREMAL_B
                    else (s * rn + b) / (1 + b * rn / s))
            worst = max(worst, float(abs(rep.hypothesis_sup - want) / want))
    assert worst <= 8 * EPS


def _mp_extremal(p, trunc_order, mp):
    """Coefficients ``0..N`` of ``z (k h)^e``, all orders of ``z`` at once,
    with the power taken by Miller's recurrence: ``P = A^e`` with
    ``A_0 = 1`` has ``m P_m = sum_(j=1..m) ((e + 1) j - m) A_j P_(m-j)``."""
    beta, gamma, s, n = mp.mpc(p.beta), mp.mpc(p.gamma), mp.mpf(p.S), p.n
    work = trunc_order - 1
    g = [mp.mpc(0)] * (work + 1)
    g[0] = mp.mpc(1)
    if p.family is ExtremalFamily.EXTREMAL_A:
        x = mp.conj(beta) / s
        power = (s * s - abs(beta) ** 2) / (n * mp.conj(beta) * gamma)
        for j in range(1, work // n + 1):
            g[n * j] = mp.binomial(power, j) * x ** j
        c = beta / gamma
    else:
        x = s / (n * gamma)
        for j in range(1, work // n + 1):
            g[n * j] = x ** j / mp.factorial(j)
        c = beta / gamma + 1
    e = 1 / c
    # k = c on both families, so A = k h has A_0 = 1
    a = [c * g[m] / (c + m) for m in range(work + 1)]
    terms = [j for j in range(1, work + 1) if a[j] != 0]
    pw = [mp.mpc(1)]
    for m in range(1, work + 1):
        pw.append(sum(((e + 1) * j - m) * a[j] * pw[m - j]
                      for j in terms if j <= m) / m)
    return [mp.mpc(0)] + pw


@pytest.mark.parametrize("family", list(ExtremalFamily))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_extremal_coefficients_match_a_40_digit_build(family, n):
    # the README's claim: coefficients down to the tail dust level, 1e-14 of
    # the largest, agree to 1e-9 relative
    mp = pytest.importorskip("mpmath").mp
    p = next(q for q in documented_grid(family) if q.n == n)
    got = build_extremal(p, 128).series.coeffs
    with mp.workdps(40):
        want = np.array([complex(v) for v in _mp_extremal(p, 128, mp)])
    assert np.array_equal(got == 0, want == 0)
    big = np.abs(want) > 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)[big] / np.abs(want[big])) <= 1e-9


# ------------------------------------------- conclusions from the construction

class _Construction:
    """``P = zf'/f`` of ``f = z (k h)^e`` from ``g`` and ``h`` alone, in
    ``mpmath``: ``zh' = g - c h`` gives ``P = 1 + e (g/h - c)`` and
    ``zP' = e (zg' h - g zh') / h^2``, with ``e = 1/c`` in both families.
    ``g`` is its closed form and ``h`` its lattice series
    ``sum_j g_j/(c + n j) w^j``, ``w = z^n``, summed until a term is below
    1e-45 on ``|z| <= r``.  No series reciprocal and no power is taken."""

    def __init__(self, p, r, mp):
        self.mp, self.n = mp, p.n
        beta, gamma, s = mp.mpc(p.beta), mp.mpc(p.gamma), mp.mpf(p.S)
        if p.family is ExtremalFamily.EXTREMAL_A:
            self.x = mp.conj(beta) / s
            self.power = (s * s - abs(beta) ** 2) / (p.n * mp.conj(beta) * gamma)
            self.c = beta / gamma
        else:
            self.x, self.power, self.c = s / (p.n * gamma), None, beta / gamma + 1
        rho, gj, self.h = mp.mpf(r) ** p.n, mp.mpc(1), [1 / self.c]
        while len(self.h) < 4 or (abs(self.h[-1]) * rho ** (len(self.h) - 1)
                                  > mp.mpf(10) ** -45):
            j = len(self.h)
            gj *= (self.x / j if self.power is None
                   else (self.power - j + 1) * self.x / j)
            self.h.append(gj / (self.c + p.n * j))

    def _g(self, w):
        """``g(w)`` and ``z g'`` at ``w = z^n``."""
        xw = self.x * w
        if self.power is None:
            g = self.mp.exp(xw)
            return g, self.n * xw * g
        g = (1 + xw) ** self.power
        return g, self.n * self.power * xw * g / (1 + xw)

    def p_and_zdp(self, z):
        """``P(z)`` and ``z P'(z)``."""
        w, h = z ** self.n, 0
        for hj in reversed(self.h):
            h = h * w + hj
        g, zg = self._g(w)
        return (1 + (g / h - self.c) / self.c,
                (zg * h - g * (g - self.c * h)) / (self.c * h * h))

    def min_re_p(self, r):
        """Least ``Re P`` on ``|z| = r``: the best of 1024 angles in floats,
        polished by ``findroot`` on ``d/dtheta Re P = -Im(z P')``."""
        mp = self.mp
        hf = np.array([complex(v) for v in self.h])
        x, c = complex(self.x), complex(self.c)
        theta = 2 * np.pi * np.arange(1024) / 1024
        w = (float(r) * np.exp(1j * theta)) ** self.n
        g = (np.exp(x * w) if self.power is None
             else (1 + x * w) ** complex(self.power))
        re_p = (1 + (g / np.polynomial.polynomial.polyval(w, hf) - c) / c).real
        t = mp.findroot(lambda t: mp.im(self.p_and_zdp(r * mp.expj(t))[1]),
                        mp.mpf(theta[int(np.argmin(re_p))]))
        return mp.re(self.p_and_zdp(r * mp.expj(t))[0])


def _conclusion_errors(reports, r, mp):
    """Largest error of the conclusion sup at its witness and of
    ``cross_min_re`` on ``|z| = r``, each in units of its value's rounding
    ``eps max(1, |value|)``."""
    worst_con = worst_cross = 0.0
    with mp.workdps(40):
        for p, rep in reports:
            exact = _Construction(p, r, mp)
            wr, wt = rep.conclusion_witness
            pz, _ = exact.p_and_zdp(mp.mpf(wr) * mp.expj(mp.mpf(wt)))
            want = float(abs(1 / pz - rep.spec.conclusion_center))
            worst_con = max(worst_con, abs(rep.conclusion_sup - want)
                            / (EPS * max(1.0, want)))
            want = float(exact.min_re_p(mp.mpf(r)))
            worst_cross = max(worst_cross, abs(rep.cross_min_re - want)
                              / (EPS * max(1.0, abs(want))))
    return worst_con, worst_cross


def test_grid_conclusions_equal_a_40_digit_construction():
    # every cell samples r = 0.99 (the worst seen is about 2 eps on both)
    mp = pytest.importorskip("mpmath").mp
    reports = _grid_reports()
    assert {rep.conclusion_witness[0] for _, rep in reports} == {0.99}
    con, cross = _conclusion_errors(reports, 0.99, mp)
    assert con <= 8 and cross <= 8


def _admitted_draws(family, count, seed, trunc):
    """``count`` seeded admitted parameter sets of one family, each with its
    candidate and self-check residual: beta a complex normal times a scale
    log-uniform on 0.1..50, gamma a complex normal, n in 1..3."""
    rng = np.random.default_rng(seed)
    selfcheck = (verify_identity_b if family is ExtremalFamily.EXTREMAL_B
                 else probe_identity_a)
    out = []
    while len(out) < count:
        n, alpha = int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.95))
        scale = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
        beta = complex(*rng.normal(size=2)) * scale
        gamma = complex(*rng.normal(size=2))
        try:
            p = ExtremalParams(family=family, n=n, alpha=alpha, beta=beta,
                               gamma=gamma)
            f = build_extremal(p, trunc)
        except (SeriesError, InadmissibleExtremalError):
            continue
        out.append((p, f, selfcheck(f, p)))
    return out


DRAW_CFG = SamplingConfig(radii=(0.5, 0.7), angles=256)


@pytest.mark.parametrize("family", list(ExtremalFamily))
def test_drawn_conclusions_equal_a_40_digit_construction(family):
    # only draws that pass their self-check; at r = 0.7 the truncation at
    # order 128 stays below rounding (the worst seen is about 2 eps)
    mp = pytest.importorskip("mpmath").mp
    reports = [(p, check_criterion(f, p.criterion, DRAW_CFG))
               for p, f, resid in _admitted_draws(family, 16, 2801, 128)
               if resid <= p.selfcheck_tol]
    assert len(reports) >= 12
    assert {rep.conclusion_witness[0] for _, rep in reports} == {0.7}
    con, cross = _conclusion_errors(reports, 0.7, mp)
    assert con <= 8 and cross <= 8


def test_no_draw_certifies_past_its_selfcheck_tolerance(capsys):
    # the draws of ROADMAP item 5's sweep, at its trunc and sampling: an
    # extremal whose identity residual exceeds 1e-10 max(1, S) ends
    # DEGENERATE, exit 2, whatever its sampled verdict
    draws = _admitted_draws(ExtremalFamily.EXTREMAL_B, 100, 5, 58)
    failed = [(p, resid) for p, _, resid in draws if resid > p.selfcheck_tol]
    assert len(failed) >= 2
    for p, resid in failed:
        code = cli.main(["extremal", "--family", "EXTREMAL_B", "--n", str(p.n),
                         "--alpha", repr(p.alpha),
                         f"--beta={p.beta.real!r},{p.beta.imag!r}",
                         f"--gamma={p.gamma.real!r},{p.gamma.imag!r}",
                         "--trunc", "58", "--radii", "0.2,0.5,0.9",
                         "--angles", "256"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.endswith("verdict: DEGENERATE\n")
        assert captured.err == (
            f"rejected: extremal self-check residual {resid!r} exceeds its "
            f"tolerance {p.selfcheck_tol!r} (1e-10 x max(1, S))\n")


# -------------------------------------------------------------- open defects

TRUNCATED_QUOTIENT = ("ROADMAP item 4: a functional read from its truncated "
                      "quotient series gets a zero tail allowance when the "
                      "nonzero coefficients are spaced out")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=TRUNCATED_QUOTIENT)
def test_cor_a_hypothesis_of_a_sparse_polynomial_fails():
    # f = z + a z^9: sup |lhs| on the circle is 8.644 against the bound 8.5,
    # but the truncated series reads 8.275 with a tail of 0
    f = schlicht_from_tail(8, [0.0] * 7 + [0.04048003589591435], 32)
    rep = check_criterion(f, CriterionParams(kind=CriterionKind.COR_A, n=8,
                                             gamma=2.0, alpha=0.5),
                          SamplingConfig())
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=TRUNCATED_QUOTIENT)
def test_thm_b_conclusion_margin_of_a_sparse_polynomial():
    # f/(zf') = (1 + u)/(1 + 5u) with u = a z^4, |u| = q on |z| = r; the
    # truncated series reads a margin of +0.114 for the true -0.114
    a = 0.17083333333333334
    f = schlicht_from_tail(1, [0.0] * 3 + [a], 64)
    rep = check_criterion(f, _params(CriterionKind.THM_B, 1.0, 1.0, 0.2),
                          SamplingConfig())
    q, c = a * rep.conclusion_witness[0] ** 4, rep.spec.conclusion_center
    sup = max(abs((1 + q) / (1 + 5 * q) - c), abs((1 - q) / (1 - 5 * q) - c))
    assert rep.spec.conclusion_radius - sup == pytest.approx(-0.114, abs=1e-3)
    assert rep.conclusion_margin == pytest.approx(
        rep.spec.conclusion_radius - sup, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=TRUNCATED_QUOTIENT)
def test_cross_check_at_a_short_truncation_matches_its_closed_form():
    # the sweep's k = 5, |a| = 1.1 x threshold, alpha = 0.2 case at trunc 32
    # reads 0.1449917 against the exact 0.1449873
    a, f = _candidate(5, 1.1, 0.2, 0.0, 32)
    rep = check_criterion(f, _params(*KINDS[0], 0.2), CFG)
    assert rep.cross_min_re == pytest.approx(
        _min_re_starlike(5, a, CFG.radii[-1]), abs=1e-9)


# ----------------------------------------------- false-certificate census
# The tier-1 subset of tools/census.py: its seeded sparse draws, z plus 1-3
# terms a_k z^k with |a_k| < 0.3/k at orders k > n, under all six kinds at
# random admissible parameters, judged by its own judge on 8x denser grids
# of the circles each report sampled.  A polynomial input is its own
# function, so an inequality that fails there fails for the input.

POINTWISE_GATE = ("ROADMAP item 22: a polynomial's functionals are read "
                  "from truncated quotient series, which certify "
                  "inequalities that fail on the polynomial's own circle")
CENSUS_SEED, CENSUS_DRAWS = 3, 300


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=POINTWISE_GATE)
def test_no_false_certificate_on_sparse_polynomials():
    pytest.importorskip("mpmath")
    census = load_module("census", Path(__file__).parents[1] / "tools")
    rng = np.random.default_rng(CENSUS_SEED)
    certified, false = 0, []
    for i in range(CENSUS_DRAWS):
        f, rep = census.checked_draw(census.sparse_tail, rng)
        if rep.verdict is Verdict.CERTIFIED_SAMPLED:
            certified += 1
            if census.judge(f.series.coeffs, rep, 8 * census.CFG.angles)[0]:
                false.append((i, rep.kind.value))
    assert certified  # the census reaches certificates at all
    assert false == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=POINTWISE_GATE)
def test_mocanu_hypothesis_of_a_dense_polynomial_fails():
    # tools/census.py seed 0, draw 101: the report reads a hypothesis margin
    # of +0.11203 at r = 0.995, where np.polyval of the polynomial gives a
    # least margin of -0.01020 on the circle (-0.01016 on the 2048 points
    # the check samples)
    tail = [
        -0.004129120261353657 - 0.0001215115101195852j,
        -0.001246730361717103 - 0.005351206863333145j,
        0.0007307438440280872 + 0.0045264880634803915j,
        0.0005415821729204203 + 0.004307281404385427j,
        -0.0027338364421537367 - 0.00126967733330953j,
        0.002849598994206597 - 0.0029777370350329603j,
        0.002765697684438193 - 0.0009487214779618597j,
        0.0018948245070516526 - 0.0019848969924053613j,
        0.00047156699734733593 + 0.0024645534827549397j,
        0.001479184294605869 - 0.0008442220942999741j,
        0.00038071164278624464 + 0.0014189342224725857j,
        -0.001386381821024811 - 0.0012443995660717337j,
        0.00028318774015658686 - 0.0012025653743798395j,
        -0.00019935509861137993 + 0.0010451709908396625j,
        -0.00032770109635110826 - 0.0012652175105272996j,
    ]
    f = schlicht_from_tail(1, tail, 16)
    rep = check_criterion(f, CriterionParams(kind=CriterionKind.MOCANU, n=1,
                                             alpha=0.6117757611031153),
                          SamplingConfig())
    assert rep.verdict is Verdict.HYPOTHESIS_FAILED
