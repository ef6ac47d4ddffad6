"""End-to-end benchmark pairs of a git revision against the working tree,
written as one JSON record.

    python3 bench/ab.py REV [--workloads verify,gamma,hardy] [--pairs 10]
        [--seed 9001] [--seconds 25] [--out FILE]

REV is checked out with `git worktree` into a temporary directory, which
is removed at the end, also after Ctrl-C or SIGTERM.  Pair i runs
`perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0` with
S = SEED + i once in REV's checkout and once in the working tree, each
tree with its own `perfbench/` and `src/`.
An even S runs REV first and an odd S the working tree first, so a drift
in the host's speed falls on both sides alike.  The record gives, per
workload and end-to-end metric, each side's median and quartiles over the
pairs, how many pairs each side won (by the metric's direction in
BENCHMARK.json; ties count for neither), and whether the change won at
least nine tenths of the pairs with a median gap wider than REV's
interquartile range.  Every run's metrics and failed-job counts are kept.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`: its metrics by name, and the
    attempted and failed job counts."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(runs: list, better: dict) -> dict:
    """Per end-to-end metric: both sides' summaries and the pairs each won."""
    out = {}
    for name, direction in better.items():
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        b, c = summary(base), summary(change)
        out[name] = {
            "better": direction, "base": b, "change": c,
            "rel_change": c["median"] / b["median"] - 1.0 if b["median"] else None,
            "change_wins": wins, "base_wins": losses, "ties": len(runs) - wins - losses,
            "gain": wins >= 0.9 * len(runs) and sign * (c["median"] - b["median"]) > b["iqr"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare the working tree against")
    ap.add_argument("--workloads", default="verify,gamma,hardy")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=25.0, help="length of each run")
    ap.add_argument("--out", help="record path (default: stdout)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commit = git("rev-parse", args.rev)
    record = {
        "rev": args.rev, "rev_commit": commit, "tree_commit": git("rev-parse", "HEAD"),
        "tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seconds": args.seconds, "pairs": args.pairs,
        "order": "an even seed runs rev first, an odd seed the working tree first",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    checkout = Path(tempfile.mkdtemp(prefix="hermlp-ab-")) / "rev"
    git("worktree", "add", "--detach", str(checkout), commit)
    # a SIGTERM ends the runs through the `finally` below, which removes the checkout
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for workload in args.workloads.split(","):
            runs = []
            for seed in range(args.seed, args.seed + args.pairs):
                sides = [("base", checkout), ("change", ROOT)]
                pair = {"seed": seed, "first": "base" if seed % 2 == 0 else "change"}
                for side, tree in sides if seed % 2 == 0 else sides[::-1]:
                    pair[side] = run(tree, workload, seed, args.seconds)
                runs.append(pair)
                rates = [pair[side]["metrics"]["jobs_per_s"] for side in ("base", "change")]
                print(f"{workload} seed {seed}: jobs_per_s {rates[0]:.5g} -> {rates[1]:.5g}",
                      file=sys.stderr)
            record["workloads"][workload] = {"metrics": compare(runs, better), "runs": runs}
    finally:
        git("worktree", "remove", "--force", str(checkout))
        os.rmdir(checkout.parent)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for workload, result in record["workloads"].items():
        for name, m in result["metrics"].items():
            b, c = m["base"], m["change"]
            print(f"{workload:7s} {name:12s} {b['median']:10.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                  f" -> {c['median']:10.5g} [{c['q1']:.5g}, {c['q3']:.5g}]  wins "
                  f"{m['change_wins']}/{m['base_wins']}/{m['ties']}  gain {m['gain']}",
                  file=sys.stderr)


if __name__ == "__main__":
    main()
