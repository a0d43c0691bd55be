"""The four benchmark workloads: seeded inputs, one call into starcert per op,
and the known-answer check of each op's output.

Every call into the program goes through a module attribute looked up at
call time (``cli.main``, ``extremals.build_extremal``), never through a name
imported into this file, so the traced run's wrappers see every call.

A workload's op stream is made of rounds.  Each round holds the same mix of
op classes; the seed draws each op's parameters and shuffles the order.  The
number of rounds is fixed by ``--seconds`` and the round's nominal cost, so
a run does the same work, and its latency percentiles rest on the same
sample count, whatever the speed of the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from starcert import cli, criteria, extremals, oracle

HERE = Path(__file__).resolve().parent

# Margins must match perfbench/reference.json to this relative tolerance
# (absolute below 1).  Rounding-level changes to the evaluator pass; dropping
# refinement (a ~1e-6 shift at 2048 angles) or a sampled radius fails.
MARGIN_REL_TOL = 1e-9
MARGIN_FIELDS = ("hypothesis_margin", "conclusion_margin", "cross_margin")

# The acceptance gate's sampling config (tests/test_acceptance.py).
ACCEPTANCE_CFG = oracle.SamplingConfig(
    radii=tuple(round(0.10 + 0.02 * i, 10) for i in range(45)) + (0.99,),
    angles=512,
)
# The README matrix's fast sampling flags.
MATRIX_FAST = ["--radii", "0.2,0.5,0.8,0.9", "--angles", "256"]

FAMILY_KIND = {
    extremals.ExtremalFamily.EXTREMAL_A: criteria.CriterionKind.THM_A,
    extremals.ExtremalFamily.EXTREMAL_B: criteria.CriterionKind.THM_B,
}

# Admissible THM_A parameters (beta, gamma, alpha) for the koebe class; the
# Koebe function is starlike of order 0 only, so every one must fail.
KOEBE_THM_A = (
    (0j, 1 + 0j, 0.5),
    (0.3 + 0.1j, 1 + 0j, 0.5),
    (-0.5 + 0j, 1 + 0.5j, 0.3),
    (0.2 + 0j, 1 - 0.2j, 0.7),
    (0.5j, 1 + 0j, 0.3),
    (-1 + 0j, 1 + 0j, 0.7),
)
POLY_DEGREES = (32, 64, 128, 256)


@dataclass
class Op:
    """One timed call into the program and the untimed check of its result.

    ``check`` returns None when the output is right, else a reason."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def cell_key(family: str, n: int, alpha: float, beta: complex,
             gamma: complex) -> str:
    return f"{family} n={n} alpha={alpha!r} beta={beta!r} gamma={gamma!r}"


def koebe_key(beta: complex, gamma: complex, alpha: float) -> str:
    return f"koebe THM_A alpha={alpha!r} beta={beta!r} gamma={gamma!r}"


def observe(result) -> dict:
    """Verdict and margins of a VerificationReport or its JSON form."""
    if isinstance(result, dict):
        return {"verdict": result["verdict"],
                **{f: result[f] for f in MARGIN_FIELDS}}
    return {"verdict": result.verdict.value,
            **{f: getattr(result, f) for f in MARGIN_FIELDS}}


def compare(got: dict, want: dict) -> str | None:
    if got["verdict"] != want["verdict"]:
        return f"verdict {got['verdict']} != {want['verdict']}"
    for f in MARGIN_FIELDS:
        a, b = got.get(f), want.get(f)
        if a is None and b is None:
            continue
        if (not isinstance(a, float) or b is None
                or not abs(a - b) <= MARGIN_REL_TOL * max(1.0, abs(b))):
            return f"{f} {a} differs from reference {b}"
    return None


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _flag(name: str, z: complex) -> str:
    # '--beta -0.5,0' is misread by argparse as an option (a program defect
    # documented in perfbench/README.md), so every complex flag is joined.
    return f"--{name}={z.real!r},{z.imag!r}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _report_result(path: Path) -> dict:
    return json.loads(path.read_text())["report"]["result"]


def convex_polynomial(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Coefficients a_2..a_degree with sum k^2 |a_k| < 1, so f = z + ... is
    convex on the closed disk and every alpha-convex functional with
    0 <= alpha <= 1 has positive real part there."""
    k = np.arange(2, degree + 1)
    mags = rng.uniform(0.5, 1.0, k.size) * 0.9 ** k
    mags *= rng.uniform(0.5, 0.9) / float(np.sum(k * k * mags))
    return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k.size))


class Workload:
    name = ""
    nominal_round_s = 1.0    # seconds per round on a 2-vCPU x86-64 VM
    kernel = "python"        # the host-speed kernel (hostspeed.py) its ops follow

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.out = workdir / "report.json"

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def _deck(self, n: int):
        """Indices 0..n-1 in seeded order, reshuffled after each full deal."""
        while True:
            yield from self.rng.permutation(n).tolist()

    def warmup(self) -> Op:
        raise NotImplementedError

    def make_round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def make_rounds(self, count: int, max_ops: int | None = None) -> list[list[Op]]:
        return [self.make_round(i)[:max_ops] for i in range(count)]


class CheckDefault(Workload):
    """Single check/extremal invocations at the default SamplingConfig."""

    name = "check_default"
    # 3.3 s makes a 20 s run six rounds, so it deals every koebe case once.
    nominal_round_s = 3.3

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.ref = reference["default"]
        self.grid = {fam: extremals.documented_grid(fam)
                     for fam in extremals.ExtremalFamily}
        # Costs differ between grid members and koebe cases by up to 1.5x, so
        # each class deals its cases from a shuffled deck rather than drawing
        # with repeats: runs of one length then hold near the same mix.
        self.pick_a = self._deck(len(self.grid[extremals.ExtremalFamily.EXTREMAL_A]))
        self.pick_b = self._deck(len(self.grid[extremals.ExtremalFamily.EXTREMAL_B]))
        self.pick_koebe = self._deck(len(KOEBE_THM_A))
        self.koebe_spec = workdir / "koebe.json"
        self.koebe_spec.write_text(json.dumps(
            {"kind": "BUILTIN", "builtin": "koebe", "n": 1, "trunc": 128}))

    def _extremal_b(self, p) -> Op:
        argv = ["extremal", "--family", "EXTREMAL_B", "--n", str(p.n),
                "--alpha", repr(p.alpha), _flag("beta", p.beta),
                _flag("gamma", p.gamma), "--out", str(self.out)]
        key = cell_key("EXTREMAL_B", p.n, p.alpha, p.beta, p.gamma)
        return self._cli_op(key, argv, 0, self.ref[key])

    def _extremal_a(self, p, tag: str) -> Op:
        spec = self.workdir / f"extremal_a_{tag}.json"
        spec.write_text(json.dumps({
            "kind": "EXTREMAL_A", "n": p.n, "trunc": 128,
            "extremal": {"alpha": p.alpha, "beta": [p.beta.real, p.beta.imag],
                         "gamma": [p.gamma.real, p.gamma.imag]}}))
        argv = ["check", str(spec), "--kind", "THM_A", "--alpha", repr(p.alpha),
                _flag("beta", p.beta), _flag("gamma", p.gamma),
                "--out", str(self.out)]
        key = cell_key("EXTREMAL_A", p.n, p.alpha, p.beta, p.gamma)
        return self._cli_op(key, argv, 0, self.ref[key])

    def _koebe(self, beta, gamma, alpha) -> Op:
        argv = ["check", str(self.koebe_spec), "--kind", "THM_A",
                "--alpha", repr(alpha), _flag("beta", beta),
                _flag("gamma", gamma), "--out", str(self.out)]
        key = koebe_key(beta, gamma, alpha)
        return self._cli_op(key, argv, 1, self.ref[key])

    def _polynomial(self, degree: int, tag: str) -> Op:
        coeffs = convex_polynomial(self.rng, degree)
        alpha = round(float(self.rng.uniform(0.1, 0.9)), 3)
        spec = self.workdir / f"poly_{tag}.json"
        spec.write_text(json.dumps({
            "kind": "COEFFS", "n": 1, "trunc": degree,
            "coeffs": [[c.real, c.imag] for c in coeffs]}))
        argv = ["check", str(spec), "--kind", "MOCANU", "--alpha", repr(alpha),
                "--gamma=1.0,0.0", "--out", str(self.out)]
        return self._cli_op(f"convex N={degree}", argv, 0, None)

    def _cli_op(self, label, argv, exit_code, want) -> Op:
        """``want`` is the reference outcome; None (random inputs) asks
        only for a certificate with a positive margin."""
        def check(outcome):
            code, _text = outcome
            if code != exit_code:
                return f"exit {code}, expected {exit_code}"
            got = observe(_report_result(self.out))
            if want is None:
                certified = (got["verdict"] == "CERTIFIED_SAMPLED"
                             and got["hypothesis_margin"] > 0)
                return None if certified else f"not certified: {got}"
            return compare(got, want)

        return Op(label, lambda: run_cli(argv), check)

    def warmup(self) -> Op:
        return self._extremal_b(extremals.ExtremalParams(
            family=extremals.ExtremalFamily.EXTREMAL_B, n=1, alpha=0.5,
            beta=1, gamma=1))

    def make_round(self, index):
        grid_a = self.grid[extremals.ExtremalFamily.EXTREMAL_A]
        grid_b = self.grid[extremals.ExtremalFamily.EXTREMAL_B]
        ops = [
            self._extremal_b(grid_b[next(self.pick_b)]),
            self._extremal_a(grid_a[next(self.pick_a)], f"{index}"),
            self._koebe(*KOEBE_THM_A[next(self.pick_koebe)]),
        ]
        ops += [self._polynomial(d, f"{index}_{d}") for d in POLY_DEGREES]
        return [ops[i] for i in self.rng.permutation(len(ops))]


class Grid72(Workload):
    """All 72 documented-grid cells at the acceptance config, via the library."""

    name = "grid72"
    nominal_round_s = 24.0

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.ref = reference["acceptance"]
        self.cells = [p for fam in extremals.ExtremalFamily
                      for p in extremals.documented_grid(fam)]

    def _cell(self, p) -> Op:
        crit = criteria.CriterionParams(kind=FAMILY_KIND[p.family], n=p.n,
                                        beta=p.beta, gamma=p.gamma,
                                        alpha=p.alpha)
        want = self.ref[cell_key(p.family.value, p.n, p.alpha, p.beta, p.gamma)]

        def run():
            f = extremals.build_extremal(p, 128)
            return oracle.check_criterion(f, crit, ACCEPTANCE_CFG)

        def check(rep):
            if rep.denominator_violations:
                return "denominator violations on a grid extremal"
            return compare(observe(rep), want)

        return Op(f"{p.family.value} n={p.n} alpha={p.alpha}", run, check)

    def warmup(self) -> Op:
        return self._cell(self.cells[0])

    def make_round(self, index):
        return [self._cell(self.cells[i])
                for i in self.rng.permutation(len(self.cells))]


class Identities(Workload):
    """The identities command at trunc 48, 5 pairs, one seed per op."""

    name = "identities"
    nominal_round_s = 0.76
    # Its ops are numpy calls on short arrays, which a busy host slows more
    # than the float loop of the python kernel.
    kernel = "recurrence"
    per_n = 4
    ops_per_round = 10

    def _op(self, sweep_seed: int) -> Op:
        argv = ["identities", "--per-n", str(self.per_n), "--pairs", "5",
                "--trunc", "48", "--seed", str(sweep_seed),
                "--out", str(self.out)]

        def check(outcome):
            code, text = outcome
            if code != 0 or "PASS" not in text:
                return f"exit {code}, expected 0 with PASS"
            report = json.loads(self.out.read_text())["report"]
            sweep = report["sweep"]
            if sweep["functions"] != 3 * self.per_n or sweep["seed"] != sweep_seed:
                return "sweep report does not match the invocation"
            if not max(sweep["max_residual_a"], sweep["max_residual_b"]) < report["tol"]:
                return "identity residual above tolerance"
            return None

        return Op(f"identities seed={sweep_seed}", lambda: run_cli(argv), check)

    def warmup(self) -> Op:
        return self._op(20240801)

    def make_round(self, index):
        return [self._op(int(s))
                for s in self.rng.integers(0, 2**31, self.ops_per_round)]


MATRIX_EXITS = [0, 1, 2, 3, 0, 2, 0, 0]


class CliMatrix(Workload):
    """One pass of the README's 8-row verification matrix through cli.main.

    The matrix is fixed, so the seed does not change its inputs."""

    name = "cli_matrix"
    nominal_round_s = 0.115

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.ref = reference["cli_matrix"]
        identity = workdir / "identity.json"
        identity.write_text(json.dumps(
            {"kind": "BUILTIN", "builtin": "identity", "n": 1, "trunc": 32}))
        koebe = workdir / "koebe.json"
        koebe.write_text(json.dumps(
            {"kind": "BUILTIN", "builtin": "koebe", "n": 1, "trunc": 128}))
        wsq = workdir / "wsq.json"
        wsq.write_text(json.dumps(
            {"kind": "COEFFS", "n": 2, "trunc": 8, "coeffs": [[0, 0], [1, 0]]}))
        fast = MATRIX_FAST
        self.rows = [
            (["check", str(identity), "--kind", "THM_B", "--beta", "0.1",
              "--gamma", "1", "--alpha", "0.5", *fast], True),
            (["check", str(koebe), "--kind", "THM_A", "--beta", "0",
              "--gamma", "1", "--alpha", "0.5", *fast], True),
            (["check", str(identity), "--kind", "LEMMA_A", "--beta", "2",
              "--gamma", "1", "--rho", "1", *fast], True),
            (["check", str(identity), "--kind", "THM_B", "--alpha", "0.5"], False),
            (["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha", "0.5",
              "--beta", "1", "--gamma", "1", *fast], True),
            (["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha", "0.4",
              "--beta", "1", "--gamma", "1"], False),
            (["jack", str(wsq), "--radius", "0.9", *fast], True),
            (["identities", "--per-n", "5", "--pairs", "2", "--trunc", "24"], True),
        ]
        self.previous_bodies: list[str] | None = None

    def run_pass(self) -> tuple[list[int], list[str]]:
        codes, bodies = [], []
        for i, (argv, has_report) in enumerate(self.rows):
            out = self.workdir / f"matrix_{i}.json"
            code, _text = run_cli(argv + ["--out", str(out)] if has_report else argv)
            codes.append(code)
            if has_report:
                bodies.append(out.read_text().split('\n"report":\n', 1)[1])
        return codes, bodies

    def _check(self, outcome) -> str | None:
        codes, bodies = outcome
        if codes != MATRIX_EXITS:
            return f"exit codes {codes}, expected {MATRIX_EXITS}"
        previous, self.previous_bodies = self.previous_bodies, bodies
        if previous is not None and bodies != previous:
            return "report bodies differ from the previous pass"
        for row, want in self.ref.items():
            result = json.loads(
                (self.workdir / f"matrix_{row}.json").read_text())["report"]["result"]
            if "k_est" in want:
                got = complex(*result["k_est"])
                if not (result["imag_ok"] and result["real_ok"]) or abs(
                        got - complex(*want["k_est"])) > MARGIN_REL_TOL * max(
                        1.0, abs(got)):
                    return f"jack k_est {got!r} differs from reference"
            else:
                problem = compare(observe(result), want)
                if problem:
                    return f"row {row}: {problem}"
        return None

    def _op(self) -> Op:
        return Op("matrix pass", self.run_pass, self._check)

    def warmup(self) -> Op:
        return self._op()

    def make_round(self, index):
        return [self._op()]


WORKLOADS = {w.name: w for w in (CheckDefault, Grid72, Identities, CliMatrix)}


def sampling_configs() -> dict:
    """The sampling configs the workloads use, for the run's provenance."""
    def describe(cfg):
        return {"radii": len(cfg.radii), "r_min": cfg.radii[0],
                "r_max": cfg.radii[-1], "angles": cfg.angles,
                "refine": cfg.refine}

    return {"check_default": describe(oracle.SamplingConfig()),
            "grid72": describe(ACCEPTANCE_CFG),
            "cli_matrix": " ".join(MATRIX_FAST),
            "identities": "none (no sampling)",
            "trunc": {"extremal": 128, "identities": 48,
                      "polynomials": list(POLY_DEGREES)},
            "margin_rel_tol": MARGIN_REL_TOL}
