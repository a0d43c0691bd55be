"""Hash the program's observable behaviour, one sha256 per group of inputs.

A change that claims to keep every verdict, margin, witness, exit code and
report body runs this on the parent and on the change and quotes both
outputs; a group whose hash moves names the behaviour that moved.

    PYTHONPATH=src python tools/fixed_point.py

It takes no options and reads ``starcert`` from ``PYTHONPATH``.  Groups:

* ``grid``: the 72 documented extremal cells at trunc 128, checked at the
  default and the acceptance sampling config under their theorem and under
  MOCANU (288 ``check_criterion`` reports);
* ``koebe``: the six Koebe THM_A cases at trunc 128, both configs;
* ``builtins``: LEMMA_A and LEMMA_B (beta 0.2, gamma 1, rho 0.5) and COR_A
  (gamma -0.5, alpha 0.5) on the three builtins at trunc 128, default
  config;
* ``cli``: the README exit-code matrix, seven ``check`` runs on extremal
  and builtin specs, two ``extremal`` runs (one refused by its
  self-check), a COEFFS ``check`` at the default sampling flags with and
  without ``--no-refine``, and two ``jack`` runs on an extremal and a
  builtin spec, all through ``cli.main``: exit code, stdout and stderr
  with the scratch directory written ``<tmp>``, and the report body
  without its timestamp;
* ``extremals``: 2,000 seeded extremal parameter draws: the coefficient
  bytes of each build, or the type and text of its refusal.

A report hashes as its ``repr``.  FFT bits may differ between numpy builds
and CPUs, so compare hashes from one machine only.  The inputs are written
out here rather than imported from ``perfbench`` or ``tests``, so an edit
there cannot move a hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from starcert import cli
from starcert.criteria import CriterionKind, CriterionParams
from starcert.extremals import (
    ExtremalFamily,
    ExtremalParams,
    build_extremal,
    documented_grid,
)
from starcert.oracle import SamplingConfig, check_criterion
from starcert.series import builtin_candidate

DEFAULT_CFG = SamplingConfig()
ACCEPTANCE_CFG = SamplingConfig(
    radii=tuple(round(0.10 + 0.02 * i, 10) for i in range(45)) + (0.99,),
    angles=512,
)
CONFIGS = (DEFAULT_CFG, ACCEPTANCE_CFG)
KOEBE_THM_A = (
    (0j, 1 + 0j, 0.5),
    (0.3 + 0.1j, 1 + 0j, 0.5),
    (-0.5 + 0j, 1 + 0.5j, 0.3),
    (0.2 + 0j, 1 - 0.2j, 0.7),
    (0.5j, 1 + 0j, 0.3),
    (-1 + 0j, 1 + 0j, 0.7),
)
MATRIX_FAST = ["--radii", "0.2,0.5,0.8,0.9", "--angles", "256"]


def grid():
    for family in ExtremalFamily:
        for p in documented_grid(family):
            f = build_extremal(p, 128)
            mocanu = CriterionParams(kind=CriterionKind.MOCANU, n=p.n,
                                     alpha=p.alpha)
            for cfg in CONFIGS:
                for crit in (p.criterion, mocanu):
                    yield repr(check_criterion(f, crit, cfg))


def koebe():
    f = builtin_candidate("koebe", 128)
    for beta, gamma, alpha in KOEBE_THM_A:
        crit = CriterionParams(kind=CriterionKind.THM_A, n=1, beta=beta,
                               gamma=gamma, alpha=alpha)
        for cfg in CONFIGS:
            yield repr(check_criterion(f, crit, cfg))


def builtins():
    crits = (
        CriterionParams(kind=CriterionKind.LEMMA_A, n=1, beta=0.2, gamma=1,
                        rho=0.5),
        CriterionParams(kind=CriterionKind.LEMMA_B, n=1, beta=0.2, gamma=1,
                        rho=0.5),
        CriterionParams(kind=CriterionKind.COR_A, n=1, gamma=-0.5, alpha=0.5),
    )
    for name in ("identity", "koebe", "halfplane"):
        f = builtin_candidate(name, 128)
        for crit in crits:
            yield repr(check_criterion(f, crit, DEFAULT_CFG))


def _cli_runs(tmp: Path):
    """``(argv, writes a report)`` for each CLI run of the ``cli`` group."""
    specs = {
        "identity": {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                     "trunc": 32},
        "koebe": {"kind": "BUILTIN", "builtin": "koebe", "n": 1,
                  "trunc": 128},
        "wsq": {"kind": "COEFFS", "n": 2, "trunc": 8,
                "coeffs": [[0, 0], [1, 0]]},
        "ext_a": {"kind": "EXTREMAL_A", "n": 2, "trunc": 128, "extremal": {
            "alpha": 0.5, "beta": [0.12, -0.024], "gamma": [1.0, -0.2]}},
        "ext_b": {"kind": "EXTREMAL_B", "n": 1, "trunc": 128, "extremal": {
            "alpha": 0.5, "beta": [1.0, 0.0], "gamma": [1.0, 0.0]}},
        "inadmissible": {"kind": "EXTREMAL_A", "n": 1, "trunc": 64,
                         "extremal": {"alpha": 0.4, "beta": [0, 1],
                                      "gamma": [1, 0]}},
        "selfcheck": {"kind": "EXTREMAL_B", "n": 1, "trunc": 58, "extremal": {
            "alpha": 0.867273387572356,
            "beta": [-25.25596027149765, -35.314688227781616],
            "gamma": [0.30161488684445725, -0.5706474545124733]}},
        "small": {"kind": "COEFFS", "n": 1, "trunc": 16,
                  "coeffs": [[0.1, 0.05], [0.02, -0.01]]},
    }
    path = {}
    for name, spec in specs.items():
        path[name] = str(tmp / f"{name}.json")
        Path(path[name]).write_text(json.dumps(spec))
    fast = MATRIX_FAST
    return [
        # the README exit-code matrix
        (["check", path["identity"], "--kind", "THM_B", "--beta", "0.1",
          "--gamma", "1", "--alpha", "0.5", *fast], True),
        (["check", path["koebe"], "--kind", "THM_A", "--beta", "0",
          "--gamma", "1", "--alpha", "0.5", *fast], True),
        (["check", path["identity"], "--kind", "LEMMA_A", "--beta", "2",
          "--gamma", "1", "--rho", "1", *fast], True),
        (["check", path["identity"], "--kind", "THM_B", "--alpha", "0.5"],
         False),
        (["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha", "0.5",
          "--beta", "1", "--gamma", "1", *fast], True),
        (["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha", "0.4",
          "--beta", "1", "--gamma", "1"], False),
        (["jack", path["wsq"], "--radius", "0.9", *fast], True),
        (["identities", "--per-n", "5", "--pairs", "2", "--trunc", "24"],
         True),
        # extremal specs under their theorem and under MOCANU
        (["check", path["ext_a"], "--kind", "THM_A", "--beta=0.12,-0.024",
          "--gamma=1.0,-0.2", "--alpha", "0.5", *fast], True),
        (["check", path["ext_a"], "--kind", "MOCANU", "--alpha", "0.5",
          *fast], True),
        (["check", path["ext_b"], "--kind", "THM_B", "--beta", "1",
          "--gamma", "1", "--alpha", "0.5", *fast], True),
        (["check", path["ext_b"], "--kind", "MOCANU", "--alpha", "0.5",
          *fast], True),
        (["check", path["inadmissible"], "--kind", "THM_A", "--beta", "0,1",
          "--gamma", "1", "--alpha", "0.4", *fast], True),
        (["check", path["selfcheck"], "--kind", "THM_B",
          "--alpha", "0.867273387572356",
          "--beta=-25.25596027149765,-35.314688227781616",
          "--gamma=0.30161488684445725,-0.5706474545124733",
          "--radii", "0.2,0.5,0.9", "--angles", "256"], True),
        (["check", path["koebe"], "--kind", "MOCANU", "--alpha", "0.5",
          *fast], True),
        # extremal on the self-check-refused draw above and on a grid cell
        (["extremal", "--family", "EXTREMAL_B", "--n", "1",
          "--alpha", "0.867273387572356",
          "--beta=-25.25596027149765,-35.314688227781616",
          "--gamma=0.30161488684445725,-0.5706474545124733",
          "--trunc", "58", "--radii", "0.2,0.5,0.9", "--angles", "256"], True),
        (["extremal", "--family", "EXTREMAL_A", "--n", "2", "--alpha", "0.5",
          "--beta=0.12,-0.024", "--gamma=1.0,-0.2", *fast], True),
        # the sampling flags at their defaults, then without refinement
        (["check", path["small"], "--kind", "THM_B", "--beta", "0.5",
          "--gamma", "1", "--alpha", "0.5"], True),
        (["check", path["small"], "--kind", "THM_B", "--beta", "0.5",
          "--gamma", "1", "--alpha", "0.5", "--no-refine"], True),
        (["jack", path["ext_b"], "--radius", "0.9"], True),
        (["jack", path["koebe"], "--radius", "0.5"], True),
    ]


def cli_runs():
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for i, (argv, has_report) in enumerate(_cli_runs(tmp)):
            out = tmp / f"report_{i}.json"
            if has_report:
                argv = argv + ["--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                code = cli.main(argv)
            body = None
            if out.exists():
                doc = json.loads(out.read_text())
                del doc["timestamp"]
                body = json.dumps(doc, sort_keys=True, indent=2)
            yield repr((code, stdout.getvalue(), stderr.getvalue(), body)
                       ).replace(name, "<tmp>")


def extremals():
    rng = np.random.default_rng(11)
    families = (ExtremalFamily.EXTREMAL_A, ExtremalFamily.EXTREMAL_B)
    for i in range(2000):
        n = int(rng.integers(1, 4))
        trunc = int(rng.integers(n + 2, 200))
        size = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
        beta = complex(rng.normal(), rng.normal()) * size
        gamma = complex(rng.normal(), rng.normal())
        alpha = float(rng.uniform(0.05, 0.95))
        try:
            f = build_extremal(ExtremalParams(
                family=families[i % 2], n=n, alpha=alpha, beta=beta,
                gamma=gamma), trunc)
        except ValueError as err:
            yield f"{type(err).__name__}: {err}"
        else:
            yield f.series.coeffs.tobytes().hex()


GROUPS = (("grid", grid), ("koebe", koebe), ("builtins", builtins),
          ("cli", cli_runs), ("extremals", extremals))


def main() -> None:
    whole = hashlib.sha256()
    for name, items in GROUPS:
        h = hashlib.sha256()
        count = 0
        for item in items():
            h.update(item.encode())
            h.update(b"\n")
            count += 1
        digest = h.hexdigest()
        whole.update(f"{name} {digest}\n".encode())
        print(f"{name:<10} {count:>5}  {digest}")
    print(f"{'all':<10} {'':>5}  {whole.hexdigest()}")


if __name__ == "__main__":
    main()
