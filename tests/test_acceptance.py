"""Acceptance gate: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
printed margins).  The whole module targets desk scale: under a minute
on a laptop.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from starcert.series import (
    Series,
    builtin_candidate,
    div,
    mul,
    pow_unit,
)
from starcert.functionals import identity_sweep, lhs_a
from starcert.criteria import CriterionKind, CriterionParams, build_spec
from starcert.extremals import (
    ExtremalFamily,
    build_extremal,
    documented_grid,
    probe_identity_a,
    verify_identity_b,
)
from starcert.oracle import (
    SamplingConfig,
    Verdict,
    check_criterion,
    jack_demo,
)
from starcert import cli

from reference_formulas import ACC_CFG, add_scalar, max_coeff_diff, monomial


@pytest.fixture(scope="module")
def sweep_result():
    return identity_sweep(per_n=100, pairs=5, trunc_order=48, seed=20240801)


@pytest.fixture(scope="module")
def grid_reports():
    out = {}
    for family in ExtremalFamily:
        rows = []
        for p in documented_grid(family):
            f = build_extremal(p, 128)
            rows.append((p, f, check_criterion(f, p.criterion, ACC_CFG)))
        out[family] = rows
    return out


def test_criterion_01_series_exactness():
    p = pow_unit(add_scalar(monomial(1.0, 1, 64), 1.0), -2)
    worst_rel = 0.0
    for k in range(65):
        expected = (-1) ** k * (k + 1)
        worst_rel = max(worst_rel, abs(p.coeffs[k] - expected) / abs(expected))
    assert worst_rel < 1e-12

    rng = np.random.default_rng(20240802)
    worst_rec = 0.0
    for _ in range(100):
        order = 64
        a = Series(rng.uniform(0.2, 1.0, order + 1)
                   * np.exp(2j * np.pi * rng.uniform(0, 1, order + 1)))
        bmag = 0.5 * 0.55 ** np.arange(order + 1) * rng.uniform(0.5, 1.0,
                                                                order + 1)
        b = Series(bmag * np.exp(2j * np.pi * rng.uniform(0, 1, order + 1)))
        barr = b.coeffs.copy()
        barr[0] = 1.0
        b = Series(barr)
        worst_rec = max(worst_rec, max_coeff_diff(mul(div(a, b), b), a))
    assert worst_rec < 1e-12
    print(f"\n[criterion 01] PASS - binomial rel err {worst_rel:.2e}, "
          f"div/mul reconstruction {worst_rec:.2e} over 100 pairs")


def test_criterion_02_proof_identity_a(sweep_result):
    assert sweep_result.functions == 300
    assert sweep_result.max_residual_a < 1e-10
    print(f"\n[criterion 02] PASS - identity A max residual "
          f"{sweep_result.max_residual_a:.2e} over 300 functions x 5 pairs")


def test_criterion_03_proof_identity_b(sweep_result):
    assert sweep_result.max_residual_b < 1e-10
    print(f"\n[criterion 03] PASS - identity B max residual "
          f"{sweep_result.max_residual_b:.2e} over 300 functions x 5 pairs")


def test_criterion_04_extremal_b_identity():
    worst = {64: 0.0, 128: 0.0}
    grid = documented_grid(ExtremalFamily.EXTREMAL_B)
    for p in grid:
        for trunc in (64, 128):
            f = build_extremal(p, trunc)
            worst[trunc] = max(worst[trunc], verify_identity_b(f, p))
    assert worst[128] < 1e-9
    assert worst[64] < 1e-9
    print(f"\n[criterion 04] PASS - extremal-B identity residual "
          f"{worst[128]:.2e} at N=128, {worst[64]:.2e} at N=64 "
          f"({len(grid)} grid cells)")


def test_criterion_05_extremal_certification(grid_reports):
    count = 0
    min_hyp = min_concl = min_cross = math.inf
    for family, rows in grid_reports.items():
        for p, f, rep in rows:
            assert rep.verdict is Verdict.CERTIFIED_SAMPLED, (
                family, p.n, p.alpha, p.beta, p.gamma, rep.verdict)
            assert rep.hypothesis_margin > 0
            assert rep.conclusion_margin > 0
            assert rep.cross_margin > 0
            assert not rep.denominator_violations
            min_hyp = min(min_hyp, rep.hypothesis_margin)
            min_concl = min(min_concl, rep.conclusion_margin)
            min_cross = min(min_cross, rep.cross_margin)
            count += 1
    assert count == 72
    assert max(ACC_CFG.radii) == 0.99
    print(f"\n[criterion 05] PASS - {count}/72 grid extremals "
          f"CERTIFIED_SAMPLED up to r=0.99 (min margins: hypothesis "
          f"{min_hyp:.2e}, conclusion {min_concl:.2e}, "
          f"Re(zf'/f)-alpha {min_cross:.2e})")


def test_criterion_06_branch_consistency():
    # The paper's displayed branches, written out independently of build_spec.
    def branches(kind, n, beta, gamma, alpha):
        if kind is CriterionKind.THM_A:
            return (0.5 * abs(n * gamma - beta),
                    abs(n * gamma * (1.0 - alpha) - alpha * beta))
        base = abs(beta + gamma * (n + 1))
        return 0.5 * base, (1.0 - alpha) * base

    rng = np.random.default_rng(20240803)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(gamma) < 0.05:
            gamma += 0.5
        for kind in (CriterionKind.THM_A, CriterionKind.THM_B):
            bound = build_spec(CriterionParams(
                kind=kind, n=n, beta=beta, gamma=gamma, alpha=0.5)).rhs_bound
            low, high = branches(kind, n, beta, gamma, 0.5)
            worst = max(worst, abs(bound - low), abs(bound - high))
            for alpha, side in ((0.25, 0), (0.5 - 1e-12, 0),
                                (0.5 + 1e-12, 1), (0.75, 1)):
                assert build_spec(CriterionParams(
                    kind=kind, n=n, beta=beta, gamma=gamma,
                    alpha=alpha)).rhs_bound == branches(
                        kind, n, beta, gamma, alpha)[side]
    assert worst <= 1e-15

    fields_checked = 0
    for gamma in np.linspace(0.2, 3.0, 15):
        for alpha in (0.3, 0.5, 0.75):
            for n in (1, 2, 3):
                cor = build_spec(CriterionParams(
                    kind=CriterionKind.COR_A, n=n, gamma=gamma, alpha=alpha))
                thm = build_spec(CriterionParams(
                    kind=CriterionKind.THM_A, n=n,
                    beta=1.0, gamma=-gamma, alpha=alpha))
                assert cor.rhs_bound == thm.rhs_bound
                assert cor.admissible == thm.admissible
                assert cor.admissibility_margin == thm.admissibility_margin
                assert cor.conclusion_center == thm.conclusion_center
                assert cor.conclusion_radius == thm.conclusion_radius
                assert cor.eff_beta == thm.eff_beta
                assert cor.eff_gamma == thm.eff_gamma
                assert cor.rho == thm.rho
                fields_checked += 1
    print(f"\n[criterion 06] PASS - bound vs displayed branches at "
          f"alpha=1/2 <= {worst:.1e} over 1000 tuples, exact on each side; "
          f"corollary field-for-field on "
          f"{fields_checked} real-gamma grid points")


def test_criterion_07_contrapositive_safety():
    rng = np.random.default_rng(20240804)
    koebe = builtin_candidate("koebe", 128)
    verdicts = []
    for _ in range(20):
        t = rng.uniform(-1.0, 0.85)          # Re(beta/gamma), margin >= 0.15
        s = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0, 2 * math.pi)
        gamma = rng.uniform(0.5, 1.5) * complex(math.cos(phase),
                                                math.sin(phase))
        beta = gamma * complex(t, s)
        p = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=beta,
                            gamma=gamma, alpha=0.5)
        spec = build_spec(p)
        assert spec.admissible
        rep = check_criterion(koebe, p, ACC_CFG)
        hyp_ok = rep.hypothesis_margin is not None and rep.hypothesis_margin > 0
        concl_bad = (rep.conclusion_margin is not None
                     and rep.conclusion_margin <= 0)
        assert not (hyp_ok and concl_bad), "implication violated without escalation"
        verdicts.append(rep.verdict)
    assert all(v is Verdict.HYPOTHESIS_FAILED for v in verdicts)
    print("\n[criterion 07] PASS - koebe at alpha=1/2: 20/20 admissible "
          "pairs HYPOTHESIS_FAILED, no hypothesis-certified-with-"
          "conclusion-failed report")


def test_criterion_08_jack_conformance():
    rng = np.random.default_rng(20240805)
    worst_imag = 0.0
    worst_gap = math.inf
    for _ in range(50):
        m = int(rng.integers(1, 4))
        deg = m + int(rng.integers(1, 9))
        arr = np.zeros(deg + 1, dtype=np.complex128)
        mags = rng.uniform(0.3, 1.0, deg + 1 - m)
        phases = rng.uniform(0, 2 * math.pi, deg + 1 - m)
        arr[m:] = mags * np.exp(1j * phases)
        res = jack_demo(Series(arr), m, 0.9, SamplingConfig())
        assert res.imag_ok and res.real_ok, (arr, res.k_est, m)
        worst_imag = max(worst_imag,
                         abs(res.k_est.imag) / (1 + abs(res.k_est)))
        worst_gap = min(worst_gap, res.k_est.real - m)
    print(f"\n[criterion 08] PASS - 50 random polynomials (orders 1-3, "
          f"r=0.9): max relative |Im k| {worst_imag:.1e}, "
          f"min (Re k - order) {worst_gap:.3f}")


def gamma_form_residual(f, p):
    """Residual of ``lhs_a(f)`` against the gamma-built variant
    ``(gamma + S z^n)/(1 + (conj(gamma)/S) z^n)``, skipping the top two
    retained orders as ``probe_identity_a`` does."""
    left = lhs_a(f, p.beta, p.gamma)
    order = left.trunc_order
    form = div(add_scalar(monomial(p.S, p.n, order), p.gamma),
               add_scalar(monomial(np.conj(p.gamma) / p.S, p.n, order), 1.0))
    return float(np.abs(left.coeffs - form.coeffs)[: order - 1].max())


def test_criterion_09_typo_resolution(grid_reports):
    matches = set()
    worst_beta = 0.0
    best_gamma = math.inf
    for p, f, rep in grid_reports[ExtremalFamily.EXTREMAL_A]:
        r_beta = probe_identity_a(f, p)
        r_gamma = gamma_form_residual(f, p)
        matches.add({(True, False): "beta_form", (False, True): "gamma_form",
                     (True, True): "both", (False, False): "neither"}[
            (r_beta < 1e-9, r_gamma < 1e-9)])
        worst_beta = max(worst_beta, r_beta)
        best_gamma = min(best_gamma, r_gamma)
        # the sup-vs-S bound is the THM_A hypothesis of the grid report
        assert rep.hypothesis_margin > 0
        assert rep.spec.rhs_bound == p.S
        assert rep.hypothesis_sup + rep.hypothesis_tail < p.S
    assert matches == {"beta_form"}, matches
    assert worst_beta < 1e-9

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "beta-built closed form" in text
    assert "(β + S zⁿ) / (1 + (β̄/S) zⁿ)" in text
    print(f"\n[criterion 09] PASS - beta-form matches on all 36 family-A "
          f"grid points (worst residual {worst_beta:.2e}); gamma-form "
          f"never (best residual {best_gamma:.2e}); finding documented "
          f"in README.md; sup-vs-S bound held on every THM_A report")


def _run_matrix(tmp_path, tag):
    """The README's verification matrix; returns (exit codes, report bodies)."""
    fast = ["--radii", "0.2,0.5,0.8,0.9", "--angles", "256"]
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(
        {"kind": "BUILTIN", "builtin": "identity", "n": 1, "trunc": 32}))
    koebe = tmp_path / "koebe.json"
    koebe.write_text(json.dumps(
        {"kind": "BUILTIN", "builtin": "koebe", "n": 1, "trunc": 128}))
    wsq = tmp_path / "wsq.json"
    wsq.write_text(json.dumps(
        {"kind": "COEFFS", "n": 2, "trunc": 8, "coeffs": [[0, 0], [1, 0]]}))

    rows = [
        (["check", str(identity), "--kind", "THM_B", "--beta", "0.1",
          "--gamma", "1", "--alpha", "0.5", *fast], 0, True),
        (["check", str(koebe), "--kind", "THM_A", "--beta", "0",
          "--gamma", "1", "--alpha", "0.5", *fast], 1, True),
        (["check", str(identity), "--kind", "LEMMA_A", "--beta", "2",
          "--gamma", "1", "--rho", "1", *fast], 2, True),
        (["check", str(identity), "--kind", "THM_B", "--alpha", "0.5"],
         3, False),
        (["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha", "0.5",
          "--beta", "1", "--gamma", "1", *fast], 0, True),
        (["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha", "0.4",
          "--beta", "1", "--gamma", "1"], 2, False),
        (["jack", str(wsq), "--radius", "0.9", *fast], 0, True),
        (["identities", "--per-n", "5", "--pairs", "2", "--trunc", "24"],
         0, True),
    ]
    codes, bodies = [], []
    for i, (argv, expected, has_report) in enumerate(rows):
        argv = list(argv)
        if has_report:
            out = tmp_path / f"report_{tag}_{i}.json"
            argv += ["--out", str(out)]
        code = cli.main(argv)
        codes.append(code)
        assert code == expected, (argv, code, expected)
        if has_report:
            payload = json.loads(out.read_text())
            bodies.append(json.dumps(payload["report"], sort_keys=True))
    return codes, bodies


def test_criterion_10_cli_contract(tmp_path, capsys):
    codes1, bodies1 = _run_matrix(tmp_path, "run1")
    codes2, bodies2 = _run_matrix(tmp_path, "run2")
    capsys.readouterr()
    assert codes1 == codes2 == [0, 1, 2, 3, 0, 2, 0, 0]
    assert bodies1 == bodies2
    print(f"\n[criterion 10] PASS - 8-row invocation matrix: exit codes "
          f"{codes1}; {len(bodies1)} report bodies byte-identical across "
          f"two runs")
