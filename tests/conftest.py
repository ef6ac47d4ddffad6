"""The tests that start `python -m hermlp` or `python -c "import hermlp"`
need the package on the child's path.  `pythonpath` in pyproject.toml puts
src on this process's sys.path only, so the directory the package was
imported from is put on the children's PYTHONPATH as well."""

import functools
import math
import os
from collections import OrderedDict

import numpy as np
import pytest

import hermlp
from hermlp import basis

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hermlp.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty Hermite table store for one test."""
    monkeypatch.setattr(basis, "_TABLES", OrderedDict())
    return basis._TABLES


def _perturbed_rows(kmax: int, x, forward: float):
    """`basis._scaled_rows` with its forward recurrence coefficient
    multiplied by `forward`."""
    prev = math.pi ** -0.25 * np.ones_like(x)
    yield prev
    if kmax == 0:
        return
    cur = math.sqrt(2.0) * x * prev
    yield cur
    for i in range(1, kmax):
        a = math.sqrt(2.0 / (i + 1)) * forward
        b = math.sqrt(i / (i + 1.0))
        prev, cur = cur, a * x * cur - b * prev
        yield cur


@pytest.fixture
def perturb_recurrence(monkeypatch, fresh_tables):
    """perturb_recurrence(eps) runs every Hermite table and `hermite_eval`
    on the recurrence with its forward coefficient times 1 + eps, under an
    empty table store, so no perturbed table reaches the shared one."""
    def perturb(eps: float):
        monkeypatch.setattr(basis, "_scaled_rows", functools.partial(_perturbed_rows, forward=1.0 + eps))

    return perturb
