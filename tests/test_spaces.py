import math

import numpy as np
import pytest

from hermlp.basis import HermiteExpansion, SpatialGrid, analyze, hermite_eval
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.kernels import heat_kernel
from hermlp.semigroups import gfunction
from hermlp.spaces import (
    Atom,
    BallSpec,
    area_integral,
    bmo_norm,
    carleson_functional,
    critical_radius,
    h1_norm,
    make_random_atom,
    validate_atom,
)

B1 = BanachModel(1, 2.0)
ATOM_GRID = SpatialGrid(R=6.0, h=0.008, n=1)
ATOM_TIMES = TimeGrid(1e-3, 10.0, 12)


def test_critical_radius_values():
    assert critical_radius(0.0) == 0.5
    assert critical_radius(1.0) == 0.5
    assert critical_radius(3.0) == pytest.approx(0.25)
    assert critical_radius(-3.0) == pytest.approx(0.25)
    # one-dimensional arrays are batches of scalar points
    assert critical_radius(np.array([0.0, 2.0])) == pytest.approx([0.5, 1.0 / 3.0])
    # a planar point goes in with an explicit coordinate axis
    assert critical_radius(np.array([[0.0, 2.0]])) == pytest.approx([1.0 / 3.0])


def constant_atom(radius):
    x0 = 0.0
    dist = np.abs(ATOM_GRID.points - x0)
    inside = dist < radius
    val = 1.0 / (2 * radius)
    samples = np.where(inside, val, 0.0)[:, None]
    return Atom(x0, radius, "local", ATOM_GRID, samples)


def test_constant_atom_at_critical_radius_passes():
    ok, violations = validate_atom(constant_atom(0.5))
    assert ok, violations


def test_constant_atom_small_radius_fails_cancellation():
    ok, violations = validate_atom(constant_atom(0.125))
    assert not ok
    assert any("mean-zero" in v for v in violations)


def test_zero_atom_passes():
    a = Atom(0.0, 0.25, "cancel", ATOM_GRID, np.zeros((ATOM_GRID.size, 1)))
    ok, violations = validate_atom(a)
    assert ok and violations == []


def test_validate_flags_every_violation():
    # oversupported, oversized, and unbalanced all at once
    samples = np.full((ATOM_GRID.size, 1), 100.0)
    a = Atom(0.0, 0.125, "cancel", ATOM_GRID, samples)
    ok, violations = validate_atom(a)
    assert not ok
    assert len(violations) == 3


def test_random_atoms_are_valid():
    rng = np.random.default_rng(101)
    for kind in ("cancel", "local"):
        for _ in range(25):
            a = make_random_atom(rng, ATOM_GRID, kind)
            ok, violations = validate_atom(a)
            assert ok, (kind, a.center, a.radius, violations)


def test_h1_norm_ground_mode():
    # sup_t e^{-t} h_0(x) = h_0(x); its integral is sqrt(2) pi^{1/4}
    e = HermiteExpansion.single(0)
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    v = h1_norm(e, B1, grid, ATOM_TIMES)
    assert v == pytest.approx(math.sqrt(2.0) * math.pi ** 0.25, abs=1e-3)


def test_h1_norm_zero_and_scaling():
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    zero = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    assert h1_norm(zero, B1, grid, ATOM_TIMES) == 0.0
    e = HermiteExpansion(n=1, d=1, K=3, coeffs={(0,): [1.0], (3,): [-0.5]})
    v1 = h1_norm(e, B1, grid, ATOM_TIMES)
    v3 = h1_norm(e.scaled(-3.0), B1, grid, ATOM_TIMES)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_h1_norm_rejects_coarse_grid():
    e = HermiteExpansion.single(40)
    grid = SpatialGrid(R=12.0, h=0.1, n=1)
    with pytest.raises(ValueError, match="coarse"):
        h1_norm(e, B1, grid, ATOM_TIMES)


def test_h1_norm_dominates_l1():
    rng = np.random.default_rng(7)
    a = make_random_atom(rng, ATOM_GRID, "cancel")
    v = h1_norm(a, B1, ATOM_GRID, ATOM_TIMES)
    l1 = float(ATOM_GRID.weights @ np.abs(a.samples[:, 0]))
    assert v >= l1 - 1e-12


def test_h1_norm_kernel_path_matches_spectral():
    # sample h_0 on the grid and compare the kernel-quadrature maximal
    # norm against the spectral value
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    e = HermiteExpansion.single(0)
    samples = np.asarray(hermite_eval(0, grid.points))[:, None]
    spectral = h1_norm(e, B1, grid, ATOM_TIMES)
    sampled = h1_norm(samples, B1, grid, ATOM_TIMES)
    assert sampled == pytest.approx(spectral, rel=1e-3)


def test_h1_norm_sampled_matches_dense_kernel():
    # sampled path (FFT heat convolution) against sup_t |W_t f| built from
    # dense heat-kernel matrices, for vector-valued atoms in l^2 and l^4
    grid = SpatialGrid(R=6.0, h=0.02, n=1)
    x, w = grid.axis, grid.weights
    rng = np.random.default_rng(31)
    for kind, d, q in (("cancel", 2, 4.0), ("local", 3, 2.0)):
        a = make_random_atom(rng, grid, kind, d=d)
        B = BanachModel(d, q)
        sup = B.norm(a.samples)
        for t in ATOM_TIMES.nodes:
            W = heat_kernel(x[:, None], x[None, :], t)
            sup = np.maximum(sup, B.norm(W @ (w[:, None] * a.samples)))
        assert h1_norm(a, B, grid, ATOM_TIMES) == pytest.approx(w @ sup, rel=1e-12)


def test_h1_norm_sampled_planar_separable():
    # n = 2 on a 241 x 241 lattice: a dense kernel would be 58081 x 58081.
    # For f = f1 (x) f2, W_t f = (W_t f1) (x) (W_t f2), and each factor
    # comes from a one-dimensional dense heat-kernel matrix.
    grid = SpatialGrid(R=6.0, h=0.05, n=2)
    x, w = grid.axis, grid.axis_weights
    f1 = np.exp(-((x - 1.0) ** 2)) * np.sin(2.0 * x)
    f2 = np.exp(-2.0 * (x + 0.5) ** 2)
    f = np.multiply.outer(f1, f2)
    sup = np.abs(f)
    for t in ATOM_TIMES.nodes:
        W = heat_kernel(x[:, None], x[None, :], t)
        sup = np.maximum(sup, np.abs(np.multiply.outer(W @ (w * f1), W @ (w * f2))))
    want = float(np.sum(np.multiply.outer(w, w) * sup))
    got = h1_norm(f.reshape(grid.size, 1), B1, grid, ATOM_TIMES)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_h1_norm_rejects_non_finite_samples(bad):
    samples = np.zeros((ATOM_GRID.size, 1))
    samples[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        h1_norm(samples, B1, ATOM_GRID, ATOM_TIMES)


def test_uniform_atom_bound():
    # empirical sup of h1_norm over valid atoms, stable when the family
    # is doubled
    rng = np.random.default_rng(2024)
    norms = []
    for i in range(100):
        kind = "cancel" if i % 2 == 0 else "local"
        a = make_random_atom(rng, ATOM_GRID, kind)
        norms.append(h1_norm(a, B1, ATOM_GRID, ATOM_TIMES))
    first = max(norms[:50])
    both = max(norms)
    assert np.isfinite(both)
    assert both <= 1.1 * first
    assert both <= 20.0


def test_shifted_poisson_maximal_comparability():
    # Poisson maximal norms with shifts 0 and 2 stay within a factor 3
    # on a small atom family (expansions via quadrature analysis)
    rng = np.random.default_rng(55)
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    for _ in range(6):
        a = make_random_atom(rng, grid, "cancel", center_range=2.0)
        e = analyze(a.samples[:, 0], grid, K=30)
        v0 = h1_norm(e, B1, grid, ATOM_TIMES, kind="poisson", alpha=0.0)
        v2 = h1_norm(e, B1, grid, ATOM_TIMES, kind="poisson", alpha=2.0)
        assert 1.0 / 3.0 <= v2 / v0 <= 3.0


def test_bmo_norm_constant_and_zero():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    balls = BallSpec(spacing=0.5, extent=6.0, depth=3)
    ones = np.ones((grid.size, 1))
    assert bmo_norm(ones, B1, grid, balls) == pytest.approx(1.0, abs=1e-12)
    assert bmo_norm(np.zeros((grid.size, 1)), B1, grid, balls) == 0.0


def test_bmo_norm_positive_iff_nonzero():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    balls = BallSpec(spacing=0.5, extent=6.0, depth=3)
    f = np.zeros((grid.size, 1))
    f[grid.size // 2, 0] = 1.0  # a spike at the origin
    assert bmo_norm(f, B1, grid, balls) > 0.0


def test_bmo_norm_of_gaussian_mode():
    grid = SpatialGrid(R=8.0, h=0.025, n=1)
    f = np.asarray(hermite_eval(0, grid.points))[:, None]
    coarse = bmo_norm(f, B1, grid, BallSpec(spacing=0.5, extent=6.0, depth=3))
    fine = bmo_norm(f, B1, grid, BallSpec(spacing=0.25, extent=6.0, depth=3))
    assert 0.0 < coarse <= math.pi ** -0.25
    assert abs(fine - coarse) <= 0.05 * coarse


def test_bmo_norm_warns_on_empty_balls():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    # off-lattice centers with ladder radii far below the grid spacing
    balls = BallSpec(spacing=0.077, extent=0.2, depth=12)
    with pytest.warns(UserWarning, match="skipped"):
        bmo_norm(np.ones((grid.size, 1)), B1, grid, balls)


def test_ball_spec_validation():
    with pytest.raises(ValueError):
        BallSpec(spacing=0.0)
    with pytest.raises(ValueError):
        BallSpec(depth=-1)


def test_area_integral_zero():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    zero = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    assert area_integral(zero, 0.0, 0.0, grid, ATOM_TIMES) == 0.0


def test_area_integral_even_symmetry():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    e = HermiteExpansion.single(0)
    field = gfunction(e, 0.0, grid, ATOM_TIMES)
    for x in (0.5, 1.5, 3.0):
        left = area_integral(e, -x, 0.0, grid, ATOM_TIMES, field=field)
        right = area_integral(e, x, 0.0, grid, ATOM_TIMES, field=field)
        assert left == pytest.approx(right, abs=1e-6)


def test_area_integral_l1_refinement_stable():
    e = HermiteExpansion.single(0)
    totals = []
    for h, N in ((0.1, 24), (0.05, 48)):
        grid = SpatialGrid(R=8.0, h=h, n=1)
        times = TimeGrid(1e-3, 20.0, N)
        field = gfunction(e, 0.0, grid, times)
        vals = np.array(
            [area_integral(e, x, 0.0, grid, times, field=field) for x in grid.points]
        )
        totals.append(float(grid.weights @ vals))
    assert np.isfinite(totals[1])
    assert abs(totals[1] - totals[0]) <= 0.05 * totals[0]


def test_carleson_zero_and_monotone():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    zero = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    small = BallSpec(spacing=1.0, extent=2.0, depth=1)
    large = BallSpec(spacing=0.5, extent=4.0, depth=3)
    assert carleson_functional(zero, 0.0, 0.0, small, grid, ATOM_TIMES) == 0.0
    e = HermiteExpansion(n=1, d=1, K=2, coeffs={(0,): [1.0], (2,): [0.4]})
    field = gfunction(e, 0.0, grid, ATOM_TIMES)
    v_small = carleson_functional(e, 0.3, 0.0, small, grid, ATOM_TIMES, field=field)
    v_large = carleson_functional(e, 0.3, 0.0, large, grid, ATOM_TIMES, field=field)
    # the larger family contains the smaller one's balls at shared centers
    assert v_large >= v_small - 1e-12


def test_carleson_constant_surrogate_stable():
    # truncated expansion of the constant function on [-R, R]
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    ones = np.ones(grid.size)
    e = analyze(ones, grid, K=24)
    balls = BallSpec(spacing=0.5, extent=4.0, depth=2)
    sub = SpatialGrid(R=8.0, h=0.05, n=1)
    vals = []
    for times in (TimeGrid(1e-3, 20.0, 24), TimeGrid(1e-3, 20.0, 48)):
        field = gfunction(e, 0.0, sub, times)
        vals.append(carleson_functional(e, 0.5, 0.0, balls, sub, times, field=field))
    assert np.isfinite(vals[1]) and vals[1] > 0
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]
