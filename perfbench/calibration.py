"""Host-speed calibration: fixed jobs that use no hermlp code.

The host is shared, and its speed drifts by more than a third within
minutes as other tenants come and go; whole runs land in fast or slow
periods.  A calibration job is timed in the same passes, in the same way,
as a workload's jobs.  Its time against its reference time gives the
speed of the host during a run, and run.py reports times scaled to a
host on which the job takes its reference time.  A change to hermlp
cannot change these jobs, so the scaling cancels the host's drift and
leaves the program's own changes.

Tenants slow interpreter-bound and array-bound code by different
amounts, so each workload is scaled by the job that does the kind of work
its own jobs spend their time on.

Array buffers are allocated once, so a calibration job's time does not
depend on what the jobs before it left in the memory allocator.
"""

import argparse
import json
import math

import numpy as np

_SMALL_X = np.linspace(-3.0, 3.0, 64)
_AXIS = np.linspace(-12.0, 12.0, 1201)[:, None]
_YS = np.linspace(-2.0, 2.0, 48)[None, :]
_KERNEL = np.empty((_AXIS.size, _YS.size))
_SCRATCH = np.empty_like(_KERNEL)
_GRAM = np.empty((_YS.size, _YS.size))
_NORMALS = np.empty((1000, 128))
_PROFILES = np.linspace(0.0, 1.0, 3 * 128).reshape(3, 128)
_IMAGES = np.empty((1000, 3))


def _recurrence(kmax: int, x) -> np.ndarray:
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, kmax):
        out[m + 1] = math.sqrt(2.0 / (m + 1)) * x * out[m] - math.sqrt(m / (m + 1.0)) * out[m - 1]
    return out


def interpreter() -> float:
    """Argument parsing and JSON round trips, as the CLI jobs do, and a
    small-array Hermite recurrence, as hermite_eval does."""
    for i in range(12):
        parser = argparse.ArgumentParser(prog="cal")
        parser.add_argument("--x", type=float)
        parser.add_argument("--k", type=int, default=3)
        args = parser.parse_args(["--x", repr(0.5 * i)])
        json.loads(json.dumps([{"x": args.x, "k": args.k, "value": 0.25 * i}]))
    table = sum(_recurrence(60, _SMALL_X + shift) for shift in (0.0, 0.1, 0.2, 0.3))
    return float(np.sum(table @ table.T))


def numeric() -> float:
    """A 1201 x 48 Mehler-type kernel matrix and its Gram matrix, twice, as
    the sampled Hardy-space jobs do, and Gaussian draws mapped through
    three profiles, as the Monte Carlo jobs do."""
    tanh = math.tanh(0.3)
    for _ in range(2):
        # exp(-((x - y)^2 coth t + (x + y)^2 tanh t) / 4) at t = 0.3
        np.subtract(_AXIS, _YS, out=_SCRATCH)
        np.square(_SCRATCH, out=_SCRATCH)
        np.divide(_SCRATCH, tanh, out=_SCRATCH)
        np.add(_AXIS, _YS, out=_KERNEL)
        np.square(_KERNEL, out=_KERNEL)
        np.multiply(_KERNEL, tanh, out=_KERNEL)
        np.add(_KERNEL, _SCRATCH, out=_KERNEL)
        np.multiply(_KERNEL, -0.25, out=_KERNEL)
        np.exp(_KERNEL, out=_KERNEL)
        np.matmul(_KERNEL.T, _KERNEL, out=_GRAM)
    np.random.default_rng(7).standard_normal(out=_NORMALS)
    np.matmul(_NORMALS, _PROFILES.T, out=_IMAGES)
    np.abs(_IMAGES, out=_IMAGES)
    return float(np.sum(_GRAM) + np.sum(_IMAGES ** 4))


# For each workload: its calibration job and that job's time on the
# reference host.  The scaled metrics read as milliseconds (or jobs per
# second) on a host this fast.
BY_WORKLOAD = {
    "hardy": (numeric, 0.003),
    "gamma": (numeric, 0.003),
    "verify": (interpreter, 0.003),
}
