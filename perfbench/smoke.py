"""Smoke test of the benchmark itself, at tiny size (about three minutes).

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, emits every metric named
in BENCHMARK.json with its unit and fails no operation; that a wrong
pinned sweep digest is counted as a failed operation; and that without
the ofdmemu sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "results" / "smoke"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    good = WORK / "digests.json"
    subprocess.run([sys.executable, "perfbench/pin.py", "--size", "tiny", "--out", str(good)],
                   cwd=ROOT, check=True, timeout=300)
    errors = []

    for w in spec["workloads"]:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            try:
                res = result(bench("--workload", w["name"], "--seed", "1", "--trace", trace,
                                   "--digests", str(good)))
            except AssertionError as exc:
                errors.append(f"{label}: {exc}")
                continue
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if res["failed"] or not res["correct"]:
                errors.append(f"{label}: {res['failed']} of {res['attempted']} operations failed")

    pins = json.loads(good.read_text())
    pins["sha256"] = {k: "0" * 64 for k in pins["sha256"]}
    bad = WORK / "wrong-digests.json"
    bad.write_text(json.dumps(pins))
    res = result(bench("--workload", "sweep", "--seed", "1", "--digests", str(bad)))
    if res["correct"] or res["failed"] < 1:
        errors.append(f"a wrong pinned digest was not counted: {res}")

    bare = WORK / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = bench("--workload", "emulate", "--seed", "1", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("without ofdmemu sources the benchmark must fail and print nothing")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
