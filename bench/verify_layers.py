"""Timings of the verification layers that subordinated kernels, Hermite
tables and the CLI parser dominate, for two source trees, written as one
JSON record.

    python3 bench/verify_layers.py --before OLD/src --after NEW/src [--out FILE]

Each tree is imported in its own child process with BLAS pinned to one
thread.  Every case is timed as the minimum of REPEATS calls after one
warm-up call; the record keeps both computed values and their relative
difference, so a speed-up can be read next to what it changed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time

REPEATS = 7
ENVELOPE_KINDS = ("heat", "poisson", "g", "gH", "ladder", "gradient")
POINT_ARGV = ["kernel", "poisson", "--x", "0.5", "--y", "-0.25", "--t", "1.3",
              "--alpha", "2"]

CASES = {f"envelope_{kind}": f"kernel_bound_ratio({kind!r}, linspace(-4, 4, 65), "
                             "geomspace(0.1, 2, 6)), as in `hermlp verify envelopes`"
         for kind in ENVELOPE_KINDS}
CASES.update({
    "kernel_vs_spectral": "check_kernel_vs_spectral([0.1, 1, 5], [0, 2]), "
                          "as in `hermlp verify kernel`",
    "eigen_ladder_K20": "check_eigen_ladder(20)",
    "eigen_ladder_K60": "check_eigen_ladder(60)",
    "cli_point_query": "cli.main(" + repr(POINT_ARGV) + ") in process, stdout captured",
})


def calls():
    """name -> zero-argument call returning the case's value."""
    import numpy as np
    from hermlp import cli, verify

    xs, ts = np.linspace(-4.0, 4.0, 65), np.geomspace(0.1, 2.0, 6)
    out = {f"envelope_{kind}": lambda kind=kind: verify.kernel_bound_ratio(kind, xs, ts).computed
           for kind in ENVELOPE_KINDS}

    def point():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(POINT_ARGV)
        return float(buf.getvalue().splitlines()[1].split(",")[-1])

    out.update({
        "kernel_vs_spectral": lambda: verify.check_kernel_vs_spectral(
            [0.1, 1.0, 5.0], [0.0, 2.0]).computed,
        "eigen_ladder_K20": lambda: verify.check_eigen_ladder(20).computed,
        "eigen_ladder_K60": lambda: verify.check_eigen_ladder(60).computed,
        "cli_point_query": point,
    })
    return out


def child():
    out = {}
    for name, fn in calls().items():
        value = fn()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
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
        "layer": "verification suites: subordinated kernels, Hermite tables, CLI parsing",
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
