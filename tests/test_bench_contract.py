"""The benchmark's interface to the library.

``perfbench/`` reaches into starcert by name: its tracer wraps the layer
functions listed in ``tracing.LAYER_FUNCTIONS``, and its workloads build
sampling configs from ``oracle``.  A library change that deletes or renames
one of those breaks ``perfbench/run.py --trace 1``, and so does a change to
the records its counter hooks read; these tests catch both in the ordinary
suite.  The perfbench files are loaded from their paths and never modified.
The measuring tools under ``tools/`` are loaded the same way.
"""

import importlib
from pathlib import Path

import pytest

from starcert import cli, oracle
from starcert.criteria import CriterionKind, CriterionParams
from starcert.extremals import (
    ExtremalFamily,
    ExtremalParams,
    build_extremal,
    documented_grid,
)

from reference_formulas import ACC_CFG, load_module

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH, TOOLS = ROOT / "perfbench", ROOT / "tools"
TRACING = load_module("tracing", PERFBENCH)
WORKLOADS = load_module("workloads", PERFBENCH)
MANDATORY = [(mod, fn) for mod, fn, _, _, optional
             in TRACING.LAYER_FUNCTIONS if not optional]


@pytest.mark.parametrize("mod, fn", MANDATORY,
                         ids=[f"{m}.{f}" for m, f in MANDATORY])
def test_traced_layer_function_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"starcert.{mod}"), fn))


def test_fixed_point_tool_copies_the_shared_inputs():
    # the tool writes its inputs out so that no edit elsewhere moves a hash;
    # a drift of the copies from the tests' and workloads' own must fail
    tool = load_module("fixed_point", TOOLS)
    assert tool.ACCEPTANCE_CFG == ACC_CFG
    assert tool.KOEBE_THM_A == WORKLOADS.KOEBE_THM_A
    assert tool.MATRIX_FAST == WORKLOADS.MATRIX_FAST


def test_census_tool_runs_a_small_census():
    pytest.importorskip("mpmath")
    tool = load_module("census", TOOLS)
    rows, _ = tool.census(0, 60)
    assert list(rows) == list(CriterionKind)
    assert sum(checks for checks, *_ in rows.values()) == 60
    for checks, certs, false, _ in rows.values():
        assert 0 <= false <= certs <= checks
    names = [line.split()[0] for line in tool.table(rows)[1:]]
    assert names == [kind.value for kind in CriterionKind] + ["total"]


@pytest.mark.parametrize("argv", [["x", "5"], ["0", "-3"], ["0", "1.5"],
                                  ["0", "+3"], ["0"], ["0", "3", "1"]])
def test_census_tool_refuses_a_bad_seed_or_count(argv, capsys, monkeypatch):
    # a SEED or COUNT that is not a non-negative integer gets the usage
    # line and exit 2 before any draw
    pytest.importorskip("mpmath")
    tool = load_module("census", TOOLS)

    def no_draw(*args):
        raise AssertionError("census drew on a refused command line")

    monkeypatch.setattr(tool, "checked_draw", no_draw)
    assert tool.main(argv) == 2
    assert capsys.readouterr() == ("", "usage: census.py SEED COUNT\n")


def test_workload_sampling_configs_run():
    configs = WORKLOADS.sampling_configs()
    assert configs["check_default"]["angles"] > 0
    assert configs["grid72"]["radii"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_ops_match_the_known_answers(name, tmp_path):
    # each op's own check compares its output with perfbench/reference.json
    workload = WORKLOADS.WORKLOADS[name](0, tmp_path, WORKLOADS.load_reference())
    for op in [workload.warmup(), *workload.make_round(0)]:
        assert op.check(op.run()) is None, op.label


def test_tracer_hooks_read_the_oracle_records():
    p = ExtremalParams(family=ExtremalFamily.EXTREMAL_B, n=1, alpha=0.5,
                       beta=1.0, gamma=1.0)
    f = build_extremal(p, 32)
    cfg = oracle.SamplingConfig(radii=(0.5, 0.9), angles=64)
    original = oracle.sup_on_disk
    tracer = TRACING.Tracer()
    with tracer.installed():
        oracle.check_criterion(f, CriterionParams(
            kind=CriterionKind.THM_B, n=1, beta=1.0, gamma=1.0, alpha=0.5), cfg)
        oracle.check_criterion(f, CriterionParams(
            kind=CriterionKind.MOCANU, n=1, alpha=0.5), cfg)
    assert oracle.sup_on_disk is original
    m = tracer.metrics()
    assert m["oracle.check_criterion.calls"] == 2
    assert m["oracle.sup_on_disk.calls"] > 0
    assert m["oracle.min_real_on_disk.calls"] > 0
    assert m["oracle.circles_sampled"] > 0


def test_every_traced_evaluation_is_a_whole_circle():
    # points == calls x angles holds only when no call reads single points
    p = ExtremalParams(family=ExtremalFamily.EXTREMAL_B, n=1, alpha=0.5,
                       beta=1.0, gamma=1.0)
    f = build_extremal(p, 32)
    cfg = oracle.SamplingConfig(radii=(0.5, 0.9), angles=64)
    tracer = TRACING.Tracer()
    with tracer.installed():
        oracle.check_criterion(f, CriterionParams(
            kind=CriterionKind.THM_B, n=1, beta=1.0, gamma=1.0, alpha=0.5), cfg)
    m = tracer.metrics()
    assert m["series.evaluate_grid.calls"] > 0
    assert (m["series.evaluate_grid.points"]
            == m["series.evaluate_grid.calls"] * cfg.angles)


@pytest.mark.parametrize("family", list(ExtremalFamily))
def test_extremal_selfcheck_is_one_traced_call(family, capsys):
    tracer = TRACING.Tracer()
    with tracer.installed():
        code = cli.main(["extremal", "--family", family.value, "--n", "1",
                         "--alpha", "0.4", "--beta", "0,0.2", "--gamma", "1",
                         "--trunc", "32", "--radii", "0.5,0.9",
                         "--angles", "64"])
    capsys.readouterr()
    assert code == 0
    assert tracer.metrics()["extremals.selfcheck.calls"] == 1


def test_grid_cells_pin_their_work(monkeypatch):
    # per cell, one exp_unit on the N//n + 1 lattice coefficients of the
    # power, and one circle per sampled functional (3) plus the f' circles
    # the coefficient test leaves open; it clears f/z on every cell
    from starcert import series
    exp_sizes, circles = [], []
    exp_unit, evaluate_grid = series.exp_unit, oracle.evaluate_grid

    def spy_exp_unit(a):
        exp_sizes.append(a.coeffs.size)
        return exp_unit(a)

    def spy_evaluate_grid(a, z):
        circles.append(a.coeffs.size)
        return evaluate_grid(a, z)

    monkeypatch.setattr(series, "exp_unit", spy_exp_unit)
    monkeypatch.setattr(oracle, "evaluate_grid", spy_evaluate_grid)
    cells = [p for family in ExtremalFamily for p in documented_grid(family)]
    for p in cells:
        oracle.check_criterion(build_extremal(p, 128), p.criterion,
                               WORKLOADS.ACCEPTANCE_CFG)
    assert exp_sizes == [127 // p.n + 1 for p in cells]
    assert len(circles) == 3 * 72 + 24


def test_identities_op_pins_its_reciprocals(monkeypatch, capsys):
    # the identities workload's op: 12 random candidates at trunc 48, each
    # with one reciprocal of f/z and one of f', 48 coefficients long, and
    # six convolutions in each
    from starcert import series
    convolutions, built = [0], []
    reciprocal, convolve = series._reciprocal, series.np.convolve

    def spy_convolve(*args, **kwargs):
        convolutions[0] += 1
        return convolve(*args, **kwargs)

    def spy_reciprocal(b):
        before = convolutions[0]
        x = reciprocal(b)
        built.append((b.size, convolutions[0] - before))
        return x

    monkeypatch.setattr(series, "_reciprocal", spy_reciprocal)
    monkeypatch.setattr(series.np, "convolve", spy_convolve)
    assert cli.main(["identities", "--per-n", "4", "--pairs", "5",
                     "--trunc", "48", "--seed", "7"]) == 0
    capsys.readouterr()
    assert built == [(48, 6)] * 24
