"""The point and sample layouts of `hermlp.basis`, checked at every public
entry point that takes them."""

import math
import re

import numpy as np
import pytest

from hermlp import verify
from hermlp.basis import (
    HermiteExpansion,
    SpatialGrid,
    hermite_eval,
    hermite_ladder_eval,
    point_synthesis_matrix,
    synthesize,
)
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.kernels import (
    ShiftedOperator,
    g_kernel,
    g_of_one,
    heat_kernel,
    heat_kernel_one,
    heat_one_dt,
    ladder_kernel,
    poisson_kernel,
)
from hermlp.semigroups import composed_maximal, maximal_norm
from hermlp.spaces import Atom, BallSpec, area_integral, bmo_norm, carleson_functional, h1_norm

TIMES = TimeGrid(0.1, 2.0, 4)
B = BanachModel(1, 2.0)


def point_calls(n):
    """(name, argument, call, takes one point) for every public function
    that takes points of R^n; call(p) passes p as that argument."""
    e = HermiteExpansion(n, 1, 2, {(0,) * n: [1.0], (1,) + (0,) * (n - 1): [0.5]})
    grid = SpatialGrid(1.0, 0.5, n)
    op = ShiftedOperator(0.0, n)
    q = 0.1 if n == 1 else np.full(n, 0.1)
    return [
        ("hermite_eval", "x", lambda p: hermite_eval((1,) * n, p), False),
        ("synthesize", "x", lambda p: synthesize(e, p), False),
        ("point_synthesis_matrix", "x", lambda p: point_synthesis_matrix(e.modes, p), False),
        ("heat_kernel", "x", lambda p: heat_kernel(p, q, 1.0, n), False),
        ("heat_kernel", "y", lambda p: heat_kernel(q, p, 1.0, n), False),
        ("heat_kernel_one", "x", lambda p: heat_kernel_one(p, 1.0, n), False),
        ("heat_one_dt", "x", lambda p: heat_one_dt(p, 1.0, op), False),
        ("poisson_kernel", "x", lambda p: poisson_kernel(p, q, 1.0, op), False),
        ("poisson_kernel", "y", lambda p: poisson_kernel(q, p, 1.0, op), False),
        ("g_kernel", "x", lambda p: g_kernel(p, q, 1.0, op), False),
        ("g_kernel", "y", lambda p: g_kernel(q, p, 1.0, op), False),
        ("g_of_one", "x", lambda p: g_of_one(p, 1.0, op), False),
        ("hermite_ladder_eval", "x", lambda p: hermite_ladder_eval((1,) * n, p, n, -1), False),
        ("ladder_kernel", "x", lambda p: ladder_kernel(p, q, 1.0, n, +1, n), False),
        ("ladder_kernel", "y", lambda p: ladder_kernel(q, p, 1.0, n, -1, n), False),
        ("maximal_norm", "x", lambda p: maximal_norm(e, p, "heat", 0.0, B, TIMES), True),
        ("composed_maximal", "x", lambda p: composed_maximal(e, p, 0.0, "g", B, TIMES), True),
        ("Atom", "atom center",
         lambda p: Atom(p, 0.1, "local", grid, np.zeros((grid.size, 1))), True),
        ("area_integral", "x", lambda p: area_integral(e, p, 0.0, grid, TIMES), True),
        ("carleson_functional", "x",
         lambda p: carleson_functional(e, p, 0.0, BallSpec(0.5, 1.0, 1), grid, TIMES), True),
    ]


def bad_points(n, single):
    """(point, phrase of the message) for points of R^n that must be
    rejected.  For n = 1 an array of any shape holds positions, so a
    wrong last axis exists only where one point is required."""
    p = np.full(n, 0.3)
    nan = p.copy()
    nan[-1] = math.nan
    cases = [(nan, "points must be finite"), (nan[0] if n == 1 else nan[None], "points must be finite")]
    if n > 1:
        cases += [(0.3, "last axis"), (np.full(n + 1, 0.3), "last axis"),
                  (np.full((2, n - 1), 0.3), "last axis")]
    elif single:
        cases += [(np.full(2, 0.3), "single point"), (np.full((2, 1), 0.3), "single point")]
    return cases


CASES = [(n, name, what, call, point, phrase)
         for n in (1, 2, 3)
         for name, what, call, single in point_calls(n)
         for point, phrase in bad_points(n, single)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, name, what, call, point, phrase", CASES,
    ids=[f"n{c[0]}-{c[1]}-{c[2].replace(' ', '_')}-{i}" for i, c in enumerate(CASES)],
)
def test_bad_points_are_rejected_with_the_argument_named(n, name, what, call, point, phrase):
    # heat_kernel([1, 2], [0, 0], 1, n=3) returned 6.9e-4, and a scalar
    # area_integral point on the plane was read as (x, x)
    with pytest.raises(ValueError, match=f"^{re.escape(what)}: .*{phrase}"):
        call(point)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_table_calls_take_a_valid_point(n):
    for name, what, call, single in point_calls(n):
        if name == "carleson_functional" and n > 1:
            with pytest.raises(ValueError, match="one-dimensional grids"):
                call(np.full(n, 0.3))
            continue
        out = call(0.3 if n == 1 else np.full(n, 0.3))
        if name != "Atom":
            assert np.all(np.isfinite(out)), name


def test_single_point_checks_run_before_the_computation():
    # composed_maximal returned 0.0 for an expansion with no modes, whatever
    # the points; maximal_norm evaluated every point before refusing them
    empty = HermiteExpansion(1, 1, 0, {})
    with pytest.raises(ValueError, match="single point"):
        composed_maximal(empty, [0.1, 0.5], 0.0, "g", B, TIMES)
    with pytest.raises(ValueError, match="points must be finite"):
        composed_maximal(empty, math.nan, 0.0, "g", B, TIMES)


def bump(grid):
    return np.exp(-grid.points ** 2) * np.cos(grid.points)


def test_a_column_of_samples_and_a_flat_array_agree_bit_for_bit():
    # h1_norm and bmo_norm rejected shape (grid.size,) with "samples must
    # cover the grid", although equivalence_suite took it
    grid = SpatialGrid(4.0, 0.1)
    flat = bump(grid)
    column = flat[:, None]
    times = TimeGrid(1e-2, 5.0, 8)
    assert h1_norm(flat, B, grid, times) == h1_norm(column, B, grid, times)
    with pytest.warns(UserWarning, match="skipped"):
        by_flat = bmo_norm(flat, B, grid, BallSpec())
    with pytest.warns(UserWarning, match="skipped"):
        assert by_flat == bmo_norm(column, B, grid, BallSpec())
    atom_flat = Atom(0.0, 0.4, "local", grid, 0.1 * flat * (np.abs(grid.points) < 0.4))
    atom_column = Atom(0.0, 0.4, "local", grid, atom_flat.samples.copy())
    assert atom_flat.samples.shape == (grid.size, 1)
    assert np.array_equal(atom_flat.samples, atom_column.samples)
    assert h1_norm(atom_flat, B, grid, times) == h1_norm(atom_column, B, grid, times)
    family = bump(verify.DEFAULT_GRID)
    for space in ("L2", "H1"):
        a = verify.equivalence_suite(space, [family], B)
        b = verify.equivalence_suite(space, [family[:, None]], B)
        assert a.details == b.details and a.computed == b.computed


@pytest.mark.parametrize("shape", [(), (3,), (81, 1, 1), (1, 81)])
def test_samples_outside_the_layout_are_rejected(shape):
    grid = SpatialGrid(4.0, 0.1)
    with pytest.raises(ValueError, match="samples must cover the grid"):
        h1_norm(np.zeros(shape), B, grid, TIMES)
    with pytest.raises(ValueError, match="samples must cover the grid"):
        Atom(0.0, 0.4, "local", grid, np.zeros(shape))
