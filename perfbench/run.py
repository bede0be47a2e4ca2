"""ofdmemu benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {emulate,sweep,train} --seed N \\
        --seconds S --trace {0,1}

Builds nothing: ofdmemu is imported from ``src/`` of the checkout this
file sits in.  Every measurement runs in a fresh worker process
(``worker.py``) with BLAS limited to one thread; the workload is a closed
loop with a single caller.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
The run is split over ``PARTS`` workers, one after another: each sets
the workload up cold, then runs passes for its share of ``--seconds``
with its share of the short-call probe spread between them.
``setup_s`` is the median of their set-up times; the gated timings are
medians of reference costs over the pooled samples of all parts (see
``end_to_end`` and ``refspeed.py``), and the report adds raw times and
p90s with their sample counts.
``--trace 1`` runs one worker that traces set-up, runs the workload
untraced, replays the same passes with every layer's public functions
wrapped, and reports the per-layer metrics, the tracing overhead, and
whether traced and untraced outputs are byte-identical.

The report names every metric with its unit; the last line of standard
output is the JSON result.  Run details, the machine, and the raw
samples go to ``perfbench/results/``.
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
PARTS = 2
DEADLINE_S = 175.0  # every worker must end within this much of the start
BLAS_THREADS = "1"


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def worker(args, part: int, parts: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / parts),
           "--part", str(part), "--parts", str(parts), "--size", args.size]
    if args.trace:
        cmd.append("--trace")
    if args.digests:
        cmd += ["--digests", str(args.digests.resolve())]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    # run() kills and reaps the worker when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {part} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(parts: list[dict]) -> dict[str, float]:
    """Gated timings are reference costs (see ``refspeed.py``): each step's
    time over the time of the reference kernel run around it, which
    cancels the hyperthread contention that moves raw times by up to 2x
    from run to run on a shared host.  Each is a median over every sample
    of the run: passes (summed over their steps) and short calls."""
    passes = [p for r in parts for p in r["passes"]]
    costs = [c for r in parts for c in r["probe"]["costs"]]
    pass_ref = statistics.median(p["cost"] for p in passes)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in parts),
        "pass_ref": pass_ref,
        "sym_per_ref": statistics.median(p["targets"] for p in passes) / pass_ref,
        "short_call_ref_p50": statistics.median(costs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in parts),
    }


def spread_lines(parts: list[dict]) -> list[str]:
    """Raw times and upper percentiles, with sample counts: reported, not gated."""
    pass_s = [p["seconds"] for r in parts for p in r["passes"]]
    lat = [t * 1e3 for r in parts for t in r["probe"]["latencies"]]
    costs = [c for r in parts for c in r["probe"]["costs"]]
    lat_p90, cost_p90 = percentile(lat, 90), percentile(costs, 90)
    return [
        f"  pass seconds ({len(pass_s)} passes, reference kernel excluded): "
        f"median {statistics.median(pass_s):.6g}, fastest {min(pass_s):.6g}, "
        f"p90 {percentile(pass_s, 90):.6g}",
        f"  short calls ({len(lat)} calls of 144 targets): median {statistics.median(lat):.6g} ms, "
        f"p90 {lat_p90:.6g} ms ({sum(t > lat_p90 for t in lat)} beyond); "
        f"reference cost p90 {cost_p90:.6g} ({sum(c > cost_p90 for c in costs)} beyond)",
    ]


def counts(parts: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with the first failure messages."""
    attempted, failed, messages = 0, 0, []
    for r in parts:
        probe = r["probe"]
        passes = r["passes"] + r.get("traced_passes", [])
        attempted += len(probe["latencies"]) + sum(p["ops"] for p in passes)
        failed += probe["failed"] + sum(p["failed"] for p in passes)
        failed += len(r.get("trace_failures", []))
        messages += probe["failures"] + [f for p in passes for f in p["failures"]]
        messages += r.get("trace_failures", [])
    return attempted, min(failed, attempted), messages


def machine(worker_info: dict, seed: int) -> dict:
    info = dict(worker_info)
    info["nproc"] = os.cpu_count()
    info["cpu"] = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info["commit"] = git_commit()
    info["seed"] = seed
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few seconds of work per workload, for the smoke test")
    ap.add_argument("--digests", type=Path,
                    help="pinned sweep digests to check against (default digests.json)")
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "ofdmemu" / "__init__.py").is_file():
        return fail(f"no ofdmemu sources under {ROOT / 'src'}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    n_parts = 1 if args.trace else PARTS
    try:
        parts = [worker(args, k, n_parts, deadline) for k in range(n_parts)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    values = parts[0]["layer_metrics"] if args.trace else end_to_end(parts)

    attempted, failed, messages = counts(parts)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = machine(parts[0]["machine"], args.seed)
    latencies = [t for r in parts for t in r["probe"]["latencies"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": info,
        "attempted": attempted, "failed": failed, "failures": messages[:20],
        "metrics": metrics,
        "setup_samples_s": [r["setup_s"] for r in parts],
        "pass_seconds": [p["seconds"] for r in parts for p in r["passes"]],
        "pass_costs": [p["cost"] for r in parts for p in r["passes"]],
        "short_call_seconds": latencies,
        "short_call_costs": [c for r in parts for c in r["probe"]["costs"]],
    }
    if args.trace:
        report["traced_pass_seconds"] = [p["seconds"] for p in parts[0]["traced_passes"]]
        report["self_profile"] = parts[0]["self_profile"]
        report["trace_file"] = parts[0]["trace_file"]
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(report['pass_seconds'])} passes, {time.monotonic() - started:.1f} s")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    if args.trace:
        prof = report["self_profile"]
        wall = prof["traced_wall_per_pass"]
        print(f"  self time per traced pass ({wall:.6g} s): " + ", ".join(
            f"{k} {v / wall:.1%}" for k, v in prof["timed_per_pass"].items()))
        setup_total = sum(prof["setup"].values())
        print(f"  self time of traced set-up ({setup_total:.6g} s): " + ", ".join(
            f"{k} {v / setup_total:.1%}" for k, v in prof["setup"].items()))
    else:
        print("\n".join(spread_lines(parts)))
    print("  set-up samples: " + ", ".join(f"{s:.6g}" for s in report["setup_samples_s"]) + " s")
    for msg in messages[:5]:
        print(f"  failure: {msg}")
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
