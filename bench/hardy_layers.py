"""Timings of the `hardy` estimator layers (sampled `h1_norm`, `bmo_norm`,
`carleson_functional`) for two source trees, written as one JSON record.

    python3 bench/hardy_layers.py --before OLD/src --after NEW/src [--out FILE]

Each tree is imported in its own child process with BLAS pinned to one
thread.  Every case is timed as the minimum of REPEATS calls after one
warm-up call; the record keeps both values and their relative
difference, so a speed-up can be read next to what it changed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPEATS = 7

HARDY = "SpatialGrid(12, 0.02): 1201 points"
CASES = {
    "h1_atom_hardy": f"h1_norm of a cancel atom, d = 1, l^2, on {HARDY}, 16 times",
    "h1_dense_profile": "h1_norm of the g-field profile of 5 random modes, l^2, on "
                        f"{HARDY}, full support, 16 times",
    "h1_plane_bump": "h1_norm of an n = 2 bump of radius 0.6, l^2, on SpatialGrid(6, 0.1, 2): "
                     "14641 points, 16 times",
    "h1_plane_separable": "h1_norm of an n = 2 separable f1 (x) f2, l^2, on "
                          "SpatialGrid(6, 0.05, 2): 58081 points, full support, 16 times",
    "bmo_constant": f"bmo_norm of the function 1, l^2, on {HARDY}, BallSpec(0.5, 6, 3): 200 balls",
    "bmo_mixed": f"bmo_norm of a + b h_5 + clip(s x, -1, 1), l^2, on {HARDY}, "
                 "BallSpec(0.5, 6, 3)",
    "carleson": f"carleson_functional at x = 0.7 of 3 random modes (K <= 30), alpha = 1, on "
                f"{HARDY}, 16 times, BallSpec(0.5, 6, 3), g-field computed in the call",
}


def calls():
    """name -> zero-argument call returning the case's value."""
    import numpy as np
    from hermlp import basis, gamma, semigroups, spaces

    times = gamma.TimeGrid(1e-3, 20.0, 16)
    B = gamma.BanachModel(1, 2.0)
    grid = basis.SpatialGrid(12.0, 0.02)
    balls = spaces.BallSpec(0.5, 6.0, 3)
    rng = np.random.default_rng(7)
    atom = spaces.make_random_atom(rng, grid, "cancel")

    ks = rng.choice(31, size=5, replace=False)
    e = basis.HermiteExpansion(1, 1, int(max(ks)), {(int(k),): [float(rng.normal())] for k in ks})
    fld = semigroups.gfunction(e, 0.0, grid, times)
    profile = np.sqrt(np.einsum("xtc,t->x", fld.values ** 2, times.weights))[:, None]

    plane = basis.SpatialGrid(6.0, 0.1, 2)
    r2 = np.sum((plane.points - [0.5, -0.3]) ** 2, axis=-1)
    bump = np.where(r2 < 0.36, (1.0 - r2 / 0.36) ** 2, 0.0)[:, None]

    fine = basis.SpatialGrid(6.0, 0.05, 2)
    x = fine.axis
    separable = np.multiply.outer(np.exp(-((x - 1.0) ** 2)) * np.sin(2.0 * x),
                                  np.exp(-2.0 * (x + 0.5) ** 2)).reshape(fine.size, 1)

    x = grid.axis
    a, b, s = rng.normal(size=3)
    h5 = np.asarray(basis.hermite_eval(5, x))
    mixed = (a + b * h5 + np.clip(s * x, -1.0, 1.0))[:, None]
    ones = np.ones((grid.size, 1))

    ks = rng.choice(31, size=3, replace=False)
    c = basis.HermiteExpansion(1, 1, int(max(ks)), {(int(k),): [float(rng.normal())] for k in ks})
    return {
        "h1_atom_hardy": lambda: spaces.h1_norm(atom, B, grid, times),
        "h1_dense_profile": lambda: spaces.h1_norm(profile, B, grid, times),
        "h1_plane_bump": lambda: spaces.h1_norm(bump, B, plane, times),
        "h1_plane_separable": lambda: spaces.h1_norm(separable, B, fine, times),
        "bmo_constant": lambda: spaces.bmo_norm(ones, B, grid, balls),
        "bmo_mixed": lambda: spaces.bmo_norm(mixed, B, grid, balls),
        "carleson": lambda: spaces.carleson_functional(c, 0.7, 1.0, balls, grid, times),
    }


def child():
    out = {}
    for name, call in calls().items():
        value = call()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        out[name] = {"seconds": best, "value": value}
    json.dump(out, sys.stdout)


def run_side(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--out")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child()
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    before, after = run_side(args.before), run_side(args.after)
    cases = {}
    for name, what in CASES.items():
        b, a = before[name], after[name]
        scale = abs(b["value"]) or 1.0
        cases[name] = {
            "input": what,
            "before_s": b["seconds"], "after_s": a["seconds"],
            "speedup": b["seconds"] / a["seconds"],
            "before_value": b["value"], "after_value": a["value"],
            "rel_diff": abs(a["value"] - b["value"]) / scale,
        }
    import numpy

    record = {
        "layer": "spaces.h1_norm (sampled path), spaces.bmo_norm, spaces.carleson_functional",
        "timing": f"min of {REPEATS} calls after one warm-up, one process per tree, "
                  "BLAS pinned to 1 thread",
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
