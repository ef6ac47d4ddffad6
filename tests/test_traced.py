"""The benchmark's jobs under its tracer (`perfbench/tracer.py`), read by
path and left as they are: every job of each workload's tiny list passes
its check plain and traced, and the traced outputs are the plain ones bit
for bit.  The tracer wraps every function that one hermlp module imports
from another and takes the size of each `kernels` result, so a private
helper that returned anything but an array fails every job that calls it
only when traced."""

import sys
from pathlib import Path

import numpy as np
import pytest

import hermlp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _canonical(x):
    """A value that compares equal exactly when two job outputs hold the
    same bits."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return ("float", float(x).hex())
    if isinstance(x, (tuple, list)):
        return tuple(_canonical(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _canonical(v)) for k, v in x.items())
    if hasattr(x, "__dict__"):
        return (type(x).__name__, _canonical(vars(x)))
    return x


def _outputs(jobs):
    outs, failed = [], []
    for job in jobs:
        out = job.run()
        problem = job.check(out)
        if problem is not None:
            failed.append(f"{job.kind}: {problem}")
        outs.append(_canonical(out))
    assert failed == []
    return outs


@pytest.mark.parametrize("workload", ["hardy", "gamma", "verify"])
def test_traced_jobs_pass_and_equal_the_plain_ones(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import LAYERS, Tracer
    from workloads import build

    jobs = build(workload, 1, tiny=True)
    for job in jobs:
        job.prepare()
    plain = _outputs(jobs)
    # installed on the modules that perfbench/run.py installs it on
    tracer = Tracer()
    modules = {"hermlp": hermlp}
    modules.update({name: sys.modules[f"hermlp.{name}"] for name in LAYERS})
    tracer.install(modules)
    try:
        traced = _outputs(jobs)
    finally:
        tracer.uninstall()
    assert tracer.spans and traced == plain
