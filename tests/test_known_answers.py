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
"""

import cmath
import functools
import itertools

import pytest

from starcert.criteria import CriterionKind, CriterionParams
from starcert.oracle import SamplingConfig, Verdict, check_criterion
from starcert.series import schlicht_from_tail

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
