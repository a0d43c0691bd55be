"""starcert benchmark: one command, four workloads, known-answer checks.

    python3 perfbench/run.py --workload grid72 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own fresh process, one at a time, with one
thread, as a closed loop with one client.  ``--trace 0`` prints the
end-to-end metrics, measured with tracing off; ``--trace 1`` prints the
per-layer metrics of a separate traced run and its overhead.  End-to-end
times are scaled to the host's reference speed by a fixed kernel timed
around each op (perfbench/hostspeed.py); the unscaled ones are printed
beside them.  Lines before the last describe the run for a reader; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("check_default", "grid72", "identities", "cli_matrix")
SETUP_PROBES = 5
START_PROBE = [sys.executable, "-c", "import numpy"]
BUDGET_S = 170.0          # a single-workload invocation must end within 180 s
TAIL_BEYOND = 10          # the tail percentile leaves this many samples above it


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _worker(args, workload: str, mode: str, deadline: float, extra=()):
    """Run one worker process to completion; return (wall seconds, stdout)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, *extra]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    return _run(cmd, f"{workload}: {mode} run", deadline)


def _run(cmd, what: str, deadline: float):
    """Run one process to completion; return (wall seconds, stdout)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time budget spent before the {what}")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        raise BenchError(f"{what} exceeded the time budget")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return wall, proc.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workload: str, deadline: float) -> dict:
    import hostspeed

    # Each set-up probe follows a start probe: a fresh interpreter that only
    # imports numpy, the host's speed at the part of set-up it shares.
    setups, starts = [], []
    for _ in range(SETUP_PROBES):
        starts.append(_run(START_PROBE, "start probe", deadline)[0])
        setups.append(_worker(args, workload, "setup", deadline)[0])

    _wall, out = _worker(args, workload, "measure", deadline)
    res = _last_json(out)
    # Times are scaled to the host's reference speed (perfbench/hostspeed.py):
    # each op by the kernel readings taken around it, set-up by the start
    # probes.
    raw = res["latencies"]
    lat = hostspeed.scale(raw, res["kernel_s"], res["kernel"])
    setup = (statistics.median(setups) * hostspeed.START_REFERENCE_S
             / statistics.median(starts))
    tail, pct = tail_latency(lat)
    failed = len(res["failures"])
    metrics = {
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_tail_s": _metric(tail, "s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    notes = {
        "ops_per_s": f"unscaled {len(raw) / sum(raw):.4g}",
        "latency_p50_s": f"unscaled {statistics.median(raw):.4g}",
        "latency_tail_s": f"unscaled {tail_latency(raw)[0]:.4g}; "
                          f"p{pct:.1f} of {len(lat)} samples",
        "setup_s": f"unscaled {statistics.median(setups):.4g}; "
                   f"median of {SETUP_PROBES} fresh processes",
        "failed_ratio": f"{failed / len(lat):.4g} ({failed}/{len(lat)} ops, ratio)",
    }
    return {"attempted": len(lat), "failures": res["failures"],
            "metrics": metrics, "notes": notes, "rounds": res["rounds"],
            "sampling": res["sampling"]}


def trace(args, workload: str, deadline: float) -> dict:
    import tracing

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}.jsonl"
    _wall, out = _worker(args, workload, "trace", deadline,
                         ["--spans", str(spans)])
    res = _last_json(out)
    layers = res["layers"]
    metrics = {name: _metric(layers[name], tracing.metric_unit(name))
               for name in tracing.metric_names()}
    notes = {"trace.overhead_ratio":
             f"traced {layers['trace.traced_s']:.4g} s vs untraced "
             f"{layers['trace.untraced_s']:.4g} s for the same ops",
             "spans": str(spans.relative_to(ROOT))}
    return {"attempted": res["attempted"], "failures": res["failures"],
            "metrics": metrics, "notes": notes, "rounds": res["rounds"],
            "sampling": res["sampling"]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, sampling: dict) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "sampling": sampling}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run size: rounds of work that take about this long "
                         "at the reference speed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="cap each round at this many ops (smoke tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "starcert" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'starcert'} is missing",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + BUDGET_S
            run = trace if args.trace else measure
            results[name] = run(args, name, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    sampling = next(iter(results.values()))["sampling"]
    print(f"# starcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(provenance(args, sampling)))
    for name, res in results.items():
        print(f"# {name}: {res['rounds']} round(s), {res['attempted']} ops")
        for metric, m in res["metrics"].items():
            note = res["notes"].get(metric, "")
            print(f"{name:14s} {metric:40s} {m['value']:>14.6g} {m['unit']:6s} {note}")
        for metric in ("failed_ratio", "spans"):
            if metric in res["notes"]:
                print(f"{name:14s} {metric:40s} {res['notes'][metric]}")
        for failure in res["failures"][:5]:
            print(f"# FAILED {name}: {failure}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in results.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
