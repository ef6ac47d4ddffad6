"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs `run.py --tiny` (every job class once) on each workload, untraced and
traced, and checks that every cross-route check passed and that the
metric names and units on the result line are exactly those that
BENCHMARK.json declares.  Exits 0 when all runs pass.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                failed = [l for l in proc.stdout.splitlines() if l.startswith("FAILED")]
                problems.append(f"{label}: {result['failed']} failed jobs {failed}")
            extra = set(got.items()) - set(wanted[trace].items())
            missing = set(wanted[trace].items()) - set(got.items())
            if extra or missing:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}, "
                                f"missing {sorted(missing)}")
            print(f"{label}: {result['attempted']} jobs, {result['failed']} failed, "
                  f"{len(got)} metrics")
    for p in problems:
        print("PROBLEM " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
