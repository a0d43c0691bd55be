"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs each workload through ``run.py`` with ``--max-ops 2`` and checks that
every metric named in BENCHMARK.json is emitted, that the exact counts of
the traced run repeat for a fixed seed, and that the tracer restores every
binding it replaced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int, seed: int = 7) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--max-ops", "2")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload):
    e2e = _result(workload, 0)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == want
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    layers = _result(workload, 1)
    assert layers["correct"] and layers["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in layers["metrics"].items()} == want
    oracle_calls = [v["value"] for k, v in layers["metrics"].items()
                    if k.startswith("oracle.") and k.endswith(".calls")]
    assert any(oracle_calls) == (workload != "identities")


def test_exact_counts_repeat_for_a_fixed_seed():
    for workload in ("check_default", "grid72"):
        first, second = _result(workload, 1), _result(workload, 1)
        for name in tracing.EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"]["oracle.circles_sampled"]["value"] > 0


def test_tracer_restores_every_binding(monkeypatch):
    import starcert.cli  # noqa: F401
    from starcert import functionals, oracle, series

    modules = [m for n, m in sys.modules.items() if n.startswith("starcert")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    grid, div = series.evaluate_grid, series.div
    # A missing private stage reports zero calls instead of failing.
    monkeypatch.delattr(oracle, "_denominator_violations")
    tracer = tracing.Tracer()
    with tracer.installed():
        # Imported names are wrapped too, not only the defining module's.
        assert oracle.evaluate_grid is series.evaluate_grid is not grid
        assert functionals.div is series.div is not div
        cfg = oracle.SamplingConfig(radii=(0.5, 0.9), angles=64)
        oracle.sup_on_disk(series.builtin_candidate("halfplane", 8).series, cfg)
    monkeypatch.undo()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    got = tracer.metrics()
    assert got["oracle.denominator_monitor.calls"] == 0
    assert got["series.evaluate_grid.calls"] >= 2
    assert got["oracle.circles_sampled"] == 2


def test_tail_is_the_sample_with_ten_beyond_it():
    value, pct = run.tail_latency([float(i) for i in range(35)])
    assert value == 24.0 and pct == pytest.approx(100 * 25 / 35)
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0)


def test_times_scale_by_the_kernel_readings_around_them():
    for kind, ref in hostspeed.REFERENCE_S.items():
        # At reference speed a time is unchanged; on a host half as fast,
        # where the kernel takes twice as long, it reads half its wall time.
        assert hostspeed.scale([1.0, 4.0], [ref, ref, 2 * ref],
                               kind) == pytest.approx([1.0, 4.0 / 1.5])
        assert hostspeed.kernel(kind) > 0
    with pytest.raises(ValueError):
        hostspeed.scale([1.0], [0.002], "python")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", "cli_matrix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
