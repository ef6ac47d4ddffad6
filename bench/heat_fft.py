"""Timings of the sampled H^1 norm (`spaces.h1_norm` on samples) for two
source trees, written as one JSON record.

    python3 bench/heat_fft.py --before OLD/src --after NEW/src [--out FILE]

Each tree is imported in its own child process with BLAS pinned to one
thread.  Every case is timed as the minimum of REPEATS calls; the record
keeps both values of the norm and their relative difference.  A case
marked `before=False` is skipped for the `--before` tree, with its reason
recorded (a dense-kernel route that cannot fit in memory).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPEATS = 5

# name -> (description, run on the --before tree?, reason when not)
CASES = {
    "atom_hardy": ("cancel atom, d = 1, l^2, on SpatialGrid(12, 0.02): 1201 points, 16 times",
                   True, None),
    "dense_profile": ("g-field profile of 5 random modes, l^2, on SpatialGrid(12, 0.02): "
                      "1201 points, full support, 16 times", True, None),
    "plane_bump": ("n = 2 bump of radius 0.6, l^2, on SpatialGrid(6, 0.1, 2): 14641 points, "
                   "16 times", True, None),
    "plane_separable": ("n = 2 separable f1 (x) f2, l^2, on SpatialGrid(6, 0.05, 2): "
                        "58081 points, full support, 16 times", False,
                        "a dense route needs 58081 x 58081 kernel matrices (27 GB each)"),
}


def inputs(name):
    import numpy as np
    from hermlp import basis, gamma, semigroups, spaces

    times = gamma.TimeGrid(1e-3, 20.0, 16)
    B = gamma.BanachModel(1, 2.0)
    rng = np.random.default_rng(7)
    if name == "atom_hardy":
        grid = basis.SpatialGrid(12.0, 0.02)
        return spaces.make_random_atom(rng, grid, "cancel"), B, grid, times
    if name == "dense_profile":
        grid = basis.SpatialGrid(12.0, 0.02)
        ks = rng.choice(31, size=5, replace=False)
        e = basis.HermiteExpansion(1, 1, int(max(ks)),
                                   {(int(k),): [float(rng.normal())] for k in ks})
        fld = semigroups.gfunction(e, 0.0, grid, times)
        prof = np.sqrt(np.einsum("xtc,t->x", fld.values ** 2, times.weights))[:, None]
        return prof, B, grid, times
    if name == "plane_bump":
        grid = basis.SpatialGrid(6.0, 0.1, 2)
        r2 = np.sum((grid.points - [0.5, -0.3]) ** 2, axis=-1)
        return np.where(r2 < 0.36, (1.0 - r2 / 0.36) ** 2, 0.0)[:, None], B, grid, times
    grid = basis.SpatialGrid(6.0, 0.05, 2)
    x = grid.axis
    f = np.multiply.outer(np.exp(-((x - 1.0) ** 2)) * np.sin(2.0 * x),
                          np.exp(-2.0 * (x + 0.5) ** 2))
    return f.reshape(grid.size, 1), B, grid, times


def child(side):
    from hermlp import spaces

    out = {}
    for name, (_, on_before, _) in CASES.items():
        if side == "before" and not on_before:
            continue
        args = inputs(name)
        best, value = float("inf"), None
        for _ in range(REPEATS):
            start = time.perf_counter()
            value = spaces.h1_norm(*args)
            best = min(best, time.perf_counter() - start)
        out[name] = {"seconds": best, "h1": value}
    json.dump(out, sys.stdout)


def run_side(src, side):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", side],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--out")
    ap.add_argument("--child", choices=("before", "after"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    before, after = run_side(args.before, "before"), run_side(args.after, "after")
    cases = {}
    for name, (what, on_before, reason) in CASES.items():
        a = after[name]
        row = {"input": what, "after_s": a["seconds"], "after_h1": a["h1"]}
        if on_before:
            b = before[name]
            row.update(before_s=b["seconds"], before_h1=b["h1"],
                       speedup=b["seconds"] / a["seconds"],
                       rel_diff=abs(a["h1"] - b["h1"]) / abs(b["h1"]))
        else:
            row.update(before_s=None, before_skipped=reason)
        cases[name] = row
    import numpy

    record = {
        "layer": "spaces.h1_norm, sampled path",
        "timing": f"min of {REPEATS} calls, one process per tree, BLAS pinned to 1 thread",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "cases": cases,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
