"""One workload in one fresh process: import starcert from the checkout's
``src``, make the seeded inputs, run one warm-up op, then (unless
``--mode setup``) run the op stream and print one JSON result line.

Started by ``run.py``; not meant to be run by hand.

Modes:
  setup    stop after the warm-up op (``run.py`` times this whole process)
  measure  run every round untraced; report each op's latency, the
           host-speed kernel's time before and after each op, and peak RSS
  trace    run each op of half the rounds twice, untraced and traced, and
           report per-layer metrics plus the tracing overhead
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import starcert
    import starcert.cli  # noqa: F401  (the package does not import it)

    where = Path(starcert.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"starcert imported from {where}, not from {SRC}")


def _run_ops(ops, failures: list[str], tracer=None) -> list[float]:
    """Run ops in order; return each op's time inside the program."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = 0 if tracer.op_id is None else tracer.op_id + 1
        t0 = time.perf_counter()
        try:
            outcome = op.run()
        except Exception:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            problem = op.check(outcome)
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem:
            failures.append(f"{op.label}: {problem}")
    return latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    try:
        _import_program()
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    import workloads

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        return _main(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workloads, workdir: Path) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                            workloads.load_reference())
    rounds = wl.rounds_for(args.seconds)
    if args.mode == "trace":
        rounds = max(1, rounds // 2)
    plan = wl.make_rounds(rounds, args.max_ops)
    failures: list[str] = []
    _run_ops([wl.warmup()], failures)
    if failures:
        print("warm-up op failed:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    if args.mode == "setup":
        return 0

    result = {"rounds": rounds, "sampling": workloads.sampling_configs()}
    if args.mode == "measure":
        import hostspeed

        latencies, kernels = [], [hostspeed.kernel(wl.kernel)]
        for op in (op for round_ops in plan for op in round_ops):
            latencies += _run_ops([op], failures)
            kernels.append(hostspeed.kernel(wl.kernel))
        result["latencies"] = latencies
        result["kernel"] = wl.kernel
        result["kernel_s"] = kernels
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing

        tracer = tracing.Tracer()
        untraced = traced = 0.0
        ops = [op for round_ops in plan for op in round_ops]
        # Each op runs untraced and traced back to back, alternating which
        # goes first, so drift in machine speed cancels from the overhead.
        for i, op in enumerate(ops):
            for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed():
                        traced += sum(_run_ops([op], failures, tracer))
                else:
                    untraced += sum(_run_ops([op], failures))
        attempted = 2 * len(ops)
        layers = tracer.metrics()
        layers["trace.untraced_s"] = untraced
        layers["trace.traced_s"] = traced
        layers["trace.overhead_ratio"] = traced / untraced - 1.0
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        result["attempted"] = attempted
        if args.spans:
            tracer.write_spans(args.spans)
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
