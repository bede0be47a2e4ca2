"""One benchmark process: set up a workload, then probe, time and check it.

Started by ``run.py`` in a fresh interpreter, so that ``setup_s`` is a
cold set-up (``EmulationSetup`` caches certified set-ups for the life of
the process).  The worker sets the workload up, runs its share of the
short-call probe, spread in time over untraced passes that run for
``--seconds`` (at least one pass), so that both sample the whole run.
Untraced passes and probe calls are timed step by step with the
reference kernel run between steps (``refspeed.Meter``).
With ``--parts N`` it is part ``--part`` of N workers that share one
run: it takes every N-th pass index, so the parts run distinct inputs.
With ``--trace`` the set-up is traced, and the untraced passes are then
replayed with every traced binding installed and their digests compared.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_ofdmemu():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ofdmemu

    if Path(ofdmemu.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"ofdmemu imported from {ofdmemu.__file__}, not from {src}")


def timed_passes(wl, seconds: float, part: int, parts: int) -> tuple[list[dict], dict]:
    """Untraced passes until ``seconds`` of wall time have gone by.  Before
    each pass, probe calls catch up with the share of the probe that is
    due by then; the rest of the probe comes after the last pass."""
    from refspeed import Meter

    plan = wl.probe_plan(part, parts)
    probe = {"latencies": [], "costs": [], "failures": []}

    def probe_upto(n: int):
        chunk = plan[len(probe["latencies"]):n]
        if not chunk:
            return
        meter = Meter()
        meter.start()
        results = wl.calls.run(chunk, meter.tick)
        probe["latencies"] += [r[0] for r in results]
        probe["costs"] += meter.cost
        probe["failures"] += wl.calls.check(chunk, results)[1]

    passes = []
    phase_start = time.perf_counter()
    i = part
    while not passes or time.perf_counter() - phase_start < seconds:
        share = (time.perf_counter() - phase_start) / seconds if seconds > 0 else 1.0
        probe_upto(math.ceil(len(plan) * min(1.0, share)))
        passes.append(one_pass(wl, i))
        i += parts
    probe_upto(len(plan))
    probe["failed"] = len(probe["failures"])
    probe["failures"] = probe["failures"][:5]
    return passes, probe


def one_pass(wl, i: int, tracer=None) -> dict:
    """One pass: untraced, timed step by step with the reference kernel
    between steps; traced, timed as a whole with no kernel runs, so that
    the traced spans hold only the workload."""
    from refspeed import Meter
    from workloads import failure_text, no_tick

    inp = wl.inputs(i)
    meter = Meter()
    if tracer is not None:
        tracer.install()
        tick = no_tick
    else:
        tick = meter.tick
        meter.start()
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.pass") if tracer else nullcontext():
            out = wl.run(inp, tracer.span if tracer else None, tick)
    except Exception as exc:  # the pass failed; keep measuring the rest
        tick()  # close the step that failed
        digest, failures, out = None, [failure_text(exc)], None
    else:
        digest, failures = None, []
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - t0 if tracer is not None else sum(meter.seconds)
    if out is not None:
        digest, failures = wl.check(inp, out)
    ops = wl.ops(inp)
    return {
        "index": i,
        "seconds": seconds,
        "cost": sum(meter.cost),
        "digest": digest,
        "ops": ops,
        "failed": min(ops, len(failures)),
        "failures": failures[:5],
        "targets": wl.targets_per_pass(inp),
        "health": wl.health(out) if out is not None else {},
    }


def machine() -> dict:
    """Interpreter, NumPy and BLAS of this process."""
    import os
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--size", default="full")
    ap.add_argument("--digests", type=Path)
    args = ap.parse_args(argv)

    import_ofdmemu()
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}-setup")
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.size, args.digests)
    with tracer.span("bench.setup") if tracer else nullcontext():
        wl.setup()
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()
    passes, probe = timed_passes(wl, args.seconds, args.part, args.parts)
    result = {
        "setup_s": setup_s,
        "probe": probe,
        "passes": passes,
    }
    if tracer is not None:
        result.update(traced_replay(wl, tracer, passes, args))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    print(json.dumps(result))
    return 0


def traced_replay(wl, tracer, passes: list[dict], args) -> dict:
    """Replay the untraced passes traced; derive per-layer metrics."""
    from perlayer import HEALTH, layer_metrics, sent_targets
    from tracer import SpanTable

    setup_run = tracer.run_id
    tracer.run_id = f"{args.workload}-{args.seed}-timed"
    traced = [one_pass(wl, p["index"], tracer) for p in passes]
    out_dir = HERE / "results"
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)

    mismatch = [i for i, (a, b) in enumerate(zip(passes, traced)) if a["digest"] != b["digest"]]
    sent = sent_targets(tracer.spans, tracer.run_id)
    expected = sum(p["targets"] for p in traced)
    failures = [f"traced pass {i} output digest differs from the untraced pass" for i in mismatch]
    if wl.name != "sweep" and sent != expected:
        # the sweep's ideal and float cells carry values without sender_invert
        failures.append(f"traced passes sent {sent} targets, expected {expected}")

    metrics = layer_metrics(
        tracer.spans, setup_run, tracer.run_id, len(traced), len(wl.emu.swaps),
        wl.emu.cfg.samples_per_ofdm, getattr(wl, "train_cfg", None),
    )
    health = traced[0]["health"]
    for key in HEALTH:
        metrics[key] = float(health.get(key, 0.0))
    untraced_wall = statistics.median(p["seconds"] for p in passes)
    traced_wall = statistics.median(p["seconds"] for p in traced)
    metrics["bench.trace_overhead"] = traced_wall / untraced_wall
    timed = SpanTable(tracer.spans, tracer.run_id)
    setup_table = SpanTable(tracer.spans, setup_run)
    return {
        "traced_passes": traced,
        "trace_failures": failures,
        "layer_metrics": metrics,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "self_profile": {
            "setup": {k: v for k, v in list(setup_table.self_profile().items())[:8]},
            "timed_per_pass": {k: v / len(traced)
                               for k, v in list(timed.self_profile().items())[:12]},
            "traced_wall_per_pass": traced_wall,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
