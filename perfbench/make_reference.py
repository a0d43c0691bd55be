"""Write perfbench/reference.json: the verdicts and margins the benchmark's
known-answer checks compare against.

    python3 perfbench/make_reference.py

It computes them through the library, not the CLI, so the benchmark's CLI
ops are checked against an independent path.  Regenerate only in a change
that alters verdicts or margins on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from starcert import builtin_candidate, make_series  # noqa: E402
from starcert.criteria import CriterionKind, CriterionParams  # noqa: E402
from starcert.extremals import (  # noqa: E402
    ExtremalFamily,
    build_extremal,
    documented_grid,
)
from starcert.oracle import SamplingConfig, check_criterion, jack_demo  # noqa: E402

import workloads as wl  # noqa: E402

EXPECTED = {"EXTREMAL_A": "CERTIFIED_SAMPLED", "EXTREMAL_B": "CERTIFIED_SAMPLED",
            "koebe": "HYPOTHESIS_FAILED"}


def _checked(rep, expected: str) -> dict:
    got = wl.observe(rep)
    if got["verdict"] != expected:
        raise SystemExit(f"known answer violated: {got} (expected {expected})")
    return got


def _grid(cfg: SamplingConfig) -> dict:
    out = {}
    for family in ExtremalFamily:
        for p in documented_grid(family):
            crit = CriterionParams(kind=wl.FAMILY_KIND[family], n=p.n,
                                   beta=p.beta, gamma=p.gamma, alpha=p.alpha)
            rep = check_criterion(build_extremal(p, 128), crit, cfg)
            key = wl.cell_key(family.value, p.n, p.alpha, p.beta, p.gamma)
            out[key] = _checked(rep, EXPECTED[family.value])
    return out


def _matrix() -> dict:
    fast = SamplingConfig(radii=(0.2, 0.5, 0.8, 0.9), angles=256)
    identity = builtin_candidate("identity", 32, 1)
    koebe = builtin_candidate("koebe", 128, 1)
    b11 = [p for p in documented_grid(ExtremalFamily.EXTREMAL_B)
           if (p.n, p.alpha, p.beta, p.gamma) == (1, 0.5, 1, 1)][0]
    rows = {
        "0": check_criterion(identity, CriterionParams(
            kind=CriterionKind.THM_B, n=1, beta=0.1, gamma=1, alpha=0.5), fast),
        "1": check_criterion(koebe, CriterionParams(
            kind=CriterionKind.THM_A, n=1, beta=0, gamma=1, alpha=0.5), fast),
        "4": check_criterion(build_extremal(b11, 128), CriterionParams(
            kind=CriterionKind.THM_B, n=1, beta=1, gamma=1, alpha=0.5), fast),
    }
    out = {row: wl.observe(rep) for row, rep in rows.items()}
    wsq = np.zeros(9, dtype=np.complex128)
    wsq[2] = 1.0
    k = jack_demo(make_series(wsq), 2, 0.9, fast).k_est
    out["6"] = {"k_est": [k.real, k.imag]}
    return out


def main() -> None:
    default = _grid(SamplingConfig())
    koebe = builtin_candidate("koebe", 128, 1)
    for beta, gamma, alpha in wl.KOEBE_THM_A:
        rep = check_criterion(koebe, CriterionParams(
            kind=CriterionKind.THM_A, n=1, beta=beta, gamma=gamma,
            alpha=alpha), SamplingConfig())
        default[wl.koebe_key(beta, gamma, alpha)] = _checked(rep, "HYPOTHESIS_FAILED")
    reference = {
        "default": default,
        "acceptance": _grid(wl.ACCEPTANCE_CFG),
        "cli_matrix": _matrix(),
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
