"""hermlp benchmark: seeded job mixes run in a closed loop.

    python3 perfbench/run.py --workload hardy|gamma|verify --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the repository root; hermlp is imported from ./src.  One
process, one client: each job starts when the previous one has finished.
Every job output is checked against an independent route (see
workloads.py and tolerances.json); a job that raises or misses its
tolerance counts as failed and the run goes on.

Job times are scaled to a reference host speed by a calibration job timed in
the same passes (calibration.py); the unscaled values are printed too.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced repeat of the same passes (spans are written to
.perfbench/).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  --tiny runs each job class once.
"""

import os

# BLAS/OpenMP pools are pinned before numpy is first imported, here and
# in the set-up probes (which inherit this environment).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import BY_WORKLOAD  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("hardy", "gamma", "verify")
SETUP_PROBES = 7
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
CAL_SLOTS = 10  # calibration jobs per pass, spread evenly through it

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_hermlp() -> float:
    """Import hermlp from the checkout's src/; returns the import time."""
    if not (SRC / "hermlp" / "__init__.py").is_file():
        raise SystemExit(f"error: no hermlp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hermlp

    elapsed = time.perf_counter() - start
    if Path(hermlp.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported hermlp from {hermlp.__file__}, not {SRC}")
    return elapsed


def probe(args) -> None:
    """Child side of a set-up probe: import, build the jobs, report."""
    import_s = import_hermlp()
    from workloads import build

    build(args.workload, args.seed, args.tiny)
    print(f"READY {import_s!r}", flush=True)


def memory_probe(args) -> None:
    """Child side of the memory probe: one pass over the job list, then
    report the peak resident memory.  glibc's mmap threshold is fixed at
    1 MiB first: by default the allocator raises it the first time it
    frees a large block, and keeps freed blocks below it, so the peak
    would depend on the order the seed gives the jobs (by up to one
    11.5 MB heat matrix on hardy).  With the threshold fixed, every array
    of 1 MiB or more is returned when it is freed, and the peak is the
    largest live set."""
    try:
        ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, 1 << 20)
    except (OSError, AttributeError):
        pass  # not glibc: the allocator's own policy applies
    import_hermlp()
    from workloads import build

    for job in build(args.workload, args.seed, args.tiny):
        try:
            job.run()
        except Exception:  # counted as failed by the timed passes
            pass
    print(f"PEAK {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0!r}", flush=True)


def peak_memory_mb(args) -> float:
    """Peak resident memory of a fresh process running one pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--memory",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "PEAK":
        raise SystemExit(f"error: memory probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(lines[1])


def setup_times(args, n: int) -> tuple[float, float]:
    """Median fresh-process time to a ready job list, and median import
    time, over n probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    ready, imports = [], []
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith("READY "):
            raise SystemExit(f"error: set-up probe exited {code}")
        imports.append(float(line.split()[1]))
    return statistics.median(ready), statistics.median(imports)


def run_pass(jobs, calibrate, tracer=None, first_id: int = 0):
    """One closed-loop pass; returns (latencies, ok flags, failures,
    calibration times).  CAL_SLOTS calibration slots are spread evenly
    through the pass.  A slot runs the calibration job twice and keeps
    the faster, so that what the job before it left in the caches and
    the allocator counts little."""
    latencies, oks, failures, cals = [], [], [], []
    clock = time.perf_counter
    step = max(1, len(jobs) // CAL_SLOTS)
    for i, job in enumerate(jobs):
        if i % step == 0 and len(cals) < CAL_SLOTS:
            best = float("inf")
            for _ in range(2):
                start = clock()
                calibrate()
                best = min(best, clock() - start)
            cals.append(best)
        if tracer is not None:
            tracer.job = first_id + i
        error = None
        start = clock()
        try:
            out = job.run()
        except Exception as exc:  # a raising job is a failed job; keep going
            error = f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        if error is None:
            try:
                error = job.check(out)
            except Exception as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        oks.append(error is None)
        if error is not None:
            failures.append(f"{job.kind}: {error}")
    return latencies, oks, failures, cals


def measure(jobs, calibrate, seconds: float, max_passes=None, tracer=None):
    """Whole passes over the job list while the next one is expected to
    end within `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, calibrate, tracer, len(passes) * len(jobs)))
        wall = time.perf_counter() - t0
        if max_passes is not None and len(passes) >= max_passes:
            break
        if time.perf_counter() - start + wall > seconds:
            break
    return passes


def best_latencies(passes) -> list:
    """Each job's fastest latency over the passes of a run.  The host is
    shared: other tenants slow it in bursts of several seconds, and the
    fastest of several repeats of the same job drops those bursts."""
    return [min(ts) for ts in zip(*(p[0] for p in passes))]


def host_factor(passes, reference_s: float) -> float:
    """How much slower than the reference host this run's host was: the
    calibration slots' best times over the passes, as a share of the
    calibration job's reference time.  Job latencies divided by it (and
    rates multiplied) are on the reference host's scale."""
    return statistics.mean(min(ts) for ts in zip(*(p[3] for p in passes))) / reference_s


def throughput(passes, factor: float) -> float:
    """Successful jobs per pass divided by the summed best latencies,
    on the reference host's scale."""
    ok_per_pass = sum(sum(p[1]) for p in passes) / len(passes)
    return ok_per_pass / sum(best_latencies(passes)) * factor


def nearest_rank(sorted_values, p: float) -> float:
    i = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(i)]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="each job class once")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.probe:
        probe(args)
        return 0
    if args.memory:
        memory_probe(args)
        return 0

    import_hermlp()
    import hermlp

    setup_s, import_s = setup_times(args, 3 if args.trace or args.tiny else SETUP_PROBES)
    # before this process grows: a child's ru_maxrss starts from the size
    # of the process it was forked from
    peak_rss_mb = None if args.trace else peak_memory_mb(args)
    from tracer import Tracer
    from workloads import build

    jobs = build(args.workload, args.seed, args.tiny)
    calibrate, reference_s = BY_WORKLOAD[args.workload]
    for job in jobs:
        job.prepare()
    kinds = sorted({job.kind for job in jobs})
    for kind in kinds:  # warm-up: one job of each class, untimed
        next(job for job in jobs if job.kind == kind).run()

    env = environment()
    print("env " + json.dumps(env))
    print(f"jobs per pass: {len(jobs)} in classes "
          + ", ".join(f"{k}={sum(j.kind == k for j in jobs)}" for k in kinds))

    if args.trace:
        plain = measure(jobs, calibrate, args.seconds / 2)
        tracer = Tracer()
        modules = {"hermlp": hermlp}
        modules.update({name: sys.modules[f"hermlp.{name}"] for name in
                        ("basis", "kernels", "gamma", "semigroups", "spaces", "verify", "cli")})
        tracer.install(modules)
        try:
            passes = measure(jobs, calibrate, args.seconds / 2, max_passes=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        plain_rate = throughput(plain, host_factor(plain, reference_s))
        traced_rate = throughput(passes, host_factor(passes, reference_s))
        metrics = {"setup.import_s": import_s}
        metrics.update(tracer.layer_metrics(len(passes)))
        metrics["trace.overhead_jobs_per_s"] = plain_rate - traced_rate
        metrics["trace.overhead_ratio"] = 1.0 - traced_rate / plain_rate
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                                 "passes": len(passes), "env": env})
        units = layer_units(metrics)
        print(f"traced passes: {len(passes)} (untraced {len(plain)}); "
              f"jobs_per_s untraced {plain_rate:.4g}, traced {traced_rate:.4g}; "
              f"spans: {len(tracer.spans)} -> {span_file.relative_to(ROOT)}")
        print("per-layer metrics, per traced pass (counts computed from call arguments):")
    else:
        passes = measure(jobs, calibrate, args.seconds)
        factor = host_factor(passes, reference_s)
        metrics, units = end_to_end(passes, jobs, setup_s, factor, peak_rss_mb)
        print(f"host factor {factor:.4g} (calibration job {calibrate.__name__} "
              f"{factor * reference_s * 1e3:.4g} ms, reference {reference_s * 1e3:.4g} ms); "
              f"unscaled: jobs_per_s {metrics['jobs_per_s'] / factor:.4g} 1/s, job_p50_ms "
              f"{metrics['job_p50_ms'] * factor:.4g} ms, job_p90_ms {metrics['job_p90_ms'] * factor:.4g} ms")

    checked = passes + plain if args.trace else passes
    attempted = sum(len(p[1]) for p in checked)
    failed = sum(len(p[1]) - sum(p[1]) for p in checked)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs in {len(checked)} passes)")
    for failure in sorted({f for p in checked for f in p[2]}):
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(passes, jobs, setup_s: float, factor: float, peak_rss_mb: float):
    """The end-to-end metrics; all but setup_s on the reference host's
    scale."""
    best = [t * 1e3 / factor for t in best_latencies(passes)]
    latencies = sorted(best)
    n = len(latencies)
    metrics = {
        "setup_s": setup_s,  # unscaled: see README, Host speed
        "jobs_per_s": throughput(passes, factor),
        "job_p50_ms": nearest_rank(latencies, 50),
        "job_p90_ms": nearest_rank(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"latency samples: {n} jobs, each the best of {len(passes)} passes; "
          f"{n - int(n * 0.9)} lie beyond p90")
    # percentile sanity: a wide window means the percentile sits near a
    # gap between job classes and moves with small changes in the mix
    for p in (50, 90):
        lo, hi = nearest_rank(latencies, p - 5), nearest_rank(latencies, p + 5)
        print(f"  p{p} {nearest_rank(latencies, p):.3f} ms; samples within "
              f"+-5% of its rank span {lo:.3f}..{hi:.3f} ms")
    per_kind = {}
    for job, t in zip(jobs, best):
        per_kind.setdefault(job.kind, []).append(t)
    for kind, ts in sorted(per_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  class {kind:14s} n={len(ts):5d} median {statistics.median(ts):10.3f} ms")
    return metrics, dict(END_TO_END)


def layer_units(metrics) -> dict:
    units = {}
    for name in metrics:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name == "kernels.bytes_computed":
            units[name] = "B"
        else:
            units[name] = "count"
    return units


if __name__ == "__main__":
    sys.exit(main())
