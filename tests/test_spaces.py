import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlp.basis import HermiteExpansion, SpatialGrid, analyze, hermite_eval, point_synthesis_matrix
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.kernels import heat_kernel
from hermlp.semigroups import gfunction, maximal_norm
from hermlp.verify import equivalence_suite
from hermlp import spaces
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


def lattice_mass(h, t):
    """h sqrt(c1) sum_k e^{-pi c1 (h k)^2}, summed directly over |k| <= 4000:
    the per-axis lattice mass that sampled h1_norm divides W_t by."""
    c1 = math.exp(-2.0 * t) / (math.pi * -math.expm1(-4.0 * t))
    k = np.arange(-4000, 4001)
    return h * math.sqrt(c1) * float(np.sum(np.exp(-math.pi * c1 * (h * k) ** 2)))


def test_critical_radius_values():
    assert critical_radius(0.0) == 0.5
    assert critical_radius(1.0) == 0.5
    assert critical_radius(3.0) == pytest.approx(0.25)
    assert critical_radius(-3.0) == pytest.approx(0.25)
    # one-dimensional arrays are batches of scalar points
    assert critical_radius(np.array([0.0, 2.0])) == pytest.approx([0.5, 1.0 / 3.0])
    # a planar point goes in with an explicit coordinate axis
    assert critical_radius(np.array([[0.0, 2.0]])) == pytest.approx([1.0 / 3.0])
    assert critical_radius([3, 4]) == pytest.approx([0.25, 0.2])
    assert critical_radius([[3, 4]]) == pytest.approx([1.0 / 6.0])


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_atom_rejects_non_finite_center_and_radius(bad):
    # a NaN centre passed validate_atom: every clause compares with NaN
    zeros = np.zeros((ATOM_GRID.size, 1))
    with pytest.raises(ValueError, match="center"):
        Atom(bad, 0.1, "cancel", ATOM_GRID, zeros)
    with pytest.raises(ValueError, match="center"):
        Atom([0.0, bad], 0.1, "local", SpatialGrid(2.0, 0.1, 2), np.zeros((41 * 41, 1)))
    with pytest.raises(ValueError, match="radius"):
        Atom(0.0, bad, "cancel", ATOM_GRID, zeros)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, ATOM_GRID.size - 1),
       st.booleans())
def test_atom_rejects_non_finite_samples(bad, row, everywhere):
    # an all-NaN atom was accepted and passed validate_atom: NaN fails
    # every comparison
    samples = np.zeros((ATOM_GRID.size, 1))
    samples[slice(None) if everywhere else row] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        Atom(0.0, 0.1, "cancel", ATOM_GRID, samples)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(1, 2),
       st.integers(0, 3), st.integers(0, 1))
def test_critical_radius_rejects_non_finite_points(bad, n, row, coord):
    # nan gave nan, inf gave 0.0 and [[nan, 0]] gave [nan], all silently
    x = np.linspace(-2.0, 2.0, 4 * n).reshape(4, n)
    x[row, coord % n] = bad
    for points in ((x[:, 0], x[row, 0]) if n == 1 else (x, x[row:row + 1])):
        with pytest.raises(ValueError, match="finite"):
            critical_radius(points)


@settings(max_examples=40, deadline=None)
@given(st.floats() | st.just("3"), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_ball_spec_takes_an_integer_depth_and_finite_reals(depth, bad):
    # BallSpec(0.5, 6, 1.5) raised TypeError and BallSpec(0.5, inf, 3)
    # OverflowError, both at the first sweep
    with pytest.raises(ValueError, match="ladder depth"):
        BallSpec(0.5, 6.0, depth)
    with pytest.raises(ValueError, match="spacing and extent"):
        BallSpec(bad, 6.0, 3)
    with pytest.raises(ValueError, match="spacing and extent"):
        BallSpec(0.5, bad, 3)
    assert type(BallSpec(0.5, 6.0, np.int64(2)).depth) is int


def test_validate_flags_every_violation():
    # oversupported, oversized, and unbalanced all at once
    samples = np.full((ATOM_GRID.size, 1), 100.0)
    a = Atom(0.0, 0.125, "cancel", ATOM_GRID, samples)
    ok, violations = validate_atom(a)
    assert not ok
    assert len(violations) == 3


def test_validate_atom_in_the_plane():
    # centre at distance 2.5: rho = 1/3.5; a bump of radius 0.25 <= rho
    grid = SpatialGrid(R=4.0, h=0.05, n=2)
    center = np.array([1.5, -2.0])
    r2 = np.sum((grid.points - center) ** 2, axis=-1) / 0.25 ** 2
    bump = np.where(r2 < 1.0, 1.0 - r2, 0.0)
    samples = (bump * 0.9 / (math.pi * 0.3 ** 2))[:, None]
    ok, violations = validate_atom(Atom(center, 0.25, "local", grid, samples))
    assert ok, violations
    ok, violations = validate_atom(Atom(center, 0.3, "local", grid, samples))
    assert violations == ["radius exceeds critical radius"]


def test_random_atoms_are_valid():
    rng = np.random.default_rng(101)
    for kind in ("cancel", "local"):
        for _ in range(25):
            a = make_random_atom(rng, ATOM_GRID, kind)
            ok, violations = validate_atom(a)
            assert ok, (kind, a.center, a.radius, violations)


@pytest.mark.parametrize("kwargs, match", [
    ({"d": 0}, "dimension d"), ({"d": True}, "dimension d"), ({"d": 2.0}, "dimension d"),
    ({"center_range": math.nan}, "center_range"), ({"center_range": -1.0}, "center_range"),
    ({"center_range": 0.0}, "center_range"), ({"center_range": math.inf}, "center_range"),
    ({"center_range": 1e308}, "center_range"),
    ({"center_range": 1e6}, "no point"), ({"center_range": 1e6, "kind": "local"}, "no point"),
])
def test_make_random_atom_checks_its_arguments(kwargs, match):
    # d = 0 failed in a numpy reduction and d = True or 2.0 with a TypeError;
    # nan, -1 and 1e308 failed inside rng.uniform; a ball beyond the grid gave
    # NaN samples with a divide warning ("cancel") or an all-zero atom that
    # validate_atom passed ("local")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            make_random_atom(np.random.default_rng(3), SpatialGrid(6.0, 0.05), **kwargs)


def test_sampled_estimators_read_an_atom_only_on_its_own_grid():
    # on SpatialGrid(12, 0.1), also 241 points, this atom read 1.6606
    grid = SpatialGrid(6.0, 0.05)
    times = TimeGrid(1e-3, 20.0, 16)
    a = make_random_atom(np.random.default_rng(3), grid)
    assert h1_norm(a, B1, SpatialGrid(6.0, 0.05), times) == pytest.approx(0.9155, abs=1e-4)
    for other in (SpatialGrid(12.0, 0.1), SpatialGrid(6.1, 0.05), SpatialGrid(6.0, 0.05, 2)):
        with pytest.raises(ValueError, match="sampled on"):
            h1_norm(a, B1, other, times)
        with pytest.raises(ValueError, match="sampled on"):
            equivalence_suite("H1", [a], B1, grid=other, times=times)
        if other.n == 1:  # ball sweeps refuse planar grids first
            with pytest.raises(ValueError, match="sampled on"):
                bmo_norm(a, B1, other, BallSpec())


def test_sampled_estimators_check_the_banach_model_dimension():
    # bmo_norm read the l^2_3 norm 1.7320508 of these ones in a d = 2 model,
    # and h1_norm read 0.0 for the zeros
    grid = SpatialGrid(6.0, 0.05)
    B2 = BanachModel(2, 2.0)
    times = TimeGrid(1e-3, 20.0, 16)
    for samples in (np.ones((grid.size, 3)), np.zeros((grid.size, 3)), np.ones(grid.size),
                    make_random_atom(np.random.default_rng(3), grid)):
        with pytest.raises(ValueError, match="dimension must match"):
            bmo_norm(samples, B2, grid, BallSpec())
        with pytest.raises(ValueError, match="dimension must match"):
            h1_norm(samples, B2, grid, times)
    assert bmo_norm(np.ones((grid.size, 2)), B2, grid, BallSpec()) == pytest.approx(math.sqrt(2))


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


def test_h1_norm_rejects_an_expansion_of_another_dimension():
    with pytest.raises(ValueError, match="expansion has n=1 but the grid has n=2"):
        h1_norm(HermiteExpansion.single(3), B1, SpatialGrid(R=2.0, h=0.1, n=2), ATOM_TIMES)


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
        # h^2 = 2.5e-3: the first times are below the lattice, where
        # h1_norm divides by the lattice mass per axis (1 + 2.8e-7 at 1e-3)
        W = heat_kernel(x[:, None], x[None, :], t) / lattice_mass(grid.h, t)
        sup = np.maximum(sup, np.abs(np.multiply.outer(W @ (w * f1), W @ (w * f2))))
    want = float(np.sum(np.multiply.outer(w, w) * sup))
    got = h1_norm(f.reshape(grid.size, 1), B1, grid, ATOM_TIMES)
    assert got == pytest.approx(want, rel=1e-12)


def test_sampled_h1_holds_below_the_lattice():
    # the odd quartic-bump atom at x0 = 0.7, r0 = rho/2: h1_norm read
    # 0.1180 at t_min = 1e-3, and 0.1180, 0.1809, 0.4999 and 4.716 at 1e-4,
    # 1e-5, 1e-6 and 1e-8, where W_t is narrower than the step h = 0.02.
    # Now 0.11788 at 1e-8
    grid = SpatialGrid(12.0, 0.02)
    r0 = float(critical_radius(0.7)) / 2
    u = (grid.points - 0.7) / r0
    f = np.where(np.abs(u) < 1.0, u * (1.0 - u * u) ** 2, 0.0)
    atom = Atom(0.7, r0, "cancel", grid, f)
    assert validate_atom(atom) == (True, [])
    ref = h1_norm(atom, B1, grid, TimeGrid(1e-3, 20.0, 64))
    for t_min in (1e-4, 1e-5, 1e-6, 1e-8):
        assert abs(h1_norm(atom, B1, grid, TimeGrid(t_min, 20.0, 64)) - ref) <= 1e-3
    # the function 1 has sup_t W_t 1 = 1 inside the lattice: it read 224265
    # on the line and 1.2e10 on the plane
    for grid, area in ((SpatialGrid(4.0, 0.1), 8.0), (SpatialGrid(2.0, 0.1, 2), 16.0)):
        ones = np.ones(grid.size)
        assert h1_norm(ones, B1, grid, TimeGrid(1e-12, 1.0, 8)) == pytest.approx(area, rel=1e-12)


@pytest.mark.parametrize("grid, times, t, n", [
    (SpatialGrid(2.0, 0.5), TimeGrid(1e-310, 1e-300, 4), "1e-310", 1),
    (SpatialGrid(1.0, 0.5, 3), TimeGrid(1e-300, 1.0, 4), "1e-300", 3),
])
def test_sampled_h1_rejects_times_too_small_for_the_heat_kernel(grid, times, t, n):
    # both read NaN; heat_apply now rejects the times before the lattice
    # mass is taken, which warned on the first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"t={t} .* n={n} "):
            h1_norm(np.ones((grid.size, 1)), B1, grid, times)
        assert h1_norm(np.ones((125, 1)), B1, SpatialGrid(1.0, 0.5, 3),
                       TimeGrid(1e-200, 1.0, 4)) == 8.0


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
    # every average is a weighted sum over the mass of the same weights
    hardy = SpatialGrid(R=12.0, h=0.02, n=1)
    for q in (1.0, 2.0, math.inf):
        assert bmo_norm(np.ones((hardy.size, 1)), BanachModel(1, q), hardy, BallSpec()) == 1.0


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


def test_bmo_norm_warns_on_every_call():
    # the ball intervals are cached per grid; the warning is not
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    balls = BallSpec(spacing=0.077, extent=0.2, depth=12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            bmo_norm(np.ones((grid.size, 1)), B1, grid, balls)
    assert len({str(w.message) for w in caught}) == 1
    assert len(caught) == 3


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
    for x in (0.5, 1.5, 3.0):
        left = area_integral(e, -x, 0.0, grid, ATOM_TIMES)
        right = area_integral(e, x, 0.0, grid, ATOM_TIMES)
        assert left == pytest.approx(right, abs=1e-6)


def test_area_integral_l1_refinement_stable():
    e = HermiteExpansion.single(0)
    totals = []
    for h, N in ((0.1, 24), (0.05, 48)):
        grid = SpatialGrid(R=8.0, h=h, n=1)
        times = TimeGrid(1e-3, 20.0, N)
        vals = np.array([area_integral(e, x, 0.0, grid, times) for x in grid.points])
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
    v_small = carleson_functional(e, 0.3, 0.0, small, grid, ATOM_TIMES)
    v_large = carleson_functional(e, 0.3, 0.0, large, grid, ATOM_TIMES)
    # the larger family contains the smaller one's balls at shared centers
    assert v_large >= v_small - 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_area_and_carleson_reject_non_finite_points(bad):
    # both returned 0.0: no cone or ball contains a non-finite point
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    e = HermiteExpansion(n=1, d=1, K=2, coeffs={(0,): [1.0], (2,): [0.4]})
    with pytest.raises(ValueError, match="finite"):
        area_integral(e, bad, 0.0, grid, ATOM_TIMES)
    with pytest.raises(ValueError, match="finite"):
        carleson_functional(e, bad, 0.0, BallSpec(1.0, 2.0, 1), grid, ATOM_TIMES)


def test_carleson_constant_surrogate_stable():
    # truncated expansion of the constant function on [-R, R]
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    ones = np.ones(grid.size)
    e = analyze(ones, grid, K=24)
    balls = BallSpec(spacing=0.5, extent=4.0, depth=2)
    sub = SpatialGrid(R=8.0, h=0.05, n=1)
    vals = []
    for times in (TimeGrid(1e-3, 20.0, 24), TimeGrid(1e-3, 20.0, 48)):
        vals.append(carleson_functional(e, 0.5, 0.0, balls, sub, times))
    assert np.isfinite(vals[1]) and vals[1] > 0
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


# ------------------------------------------------------ batched estimators
def test_h1_norm_sampled_equals_per_time_heat_calls():
    # one batched heat_apply per block of times, bit for bit the max over
    # scalar calls.  On the plane grid (h^2 = 0.0225) each norm is divided
    # by the lattice mass theta(t)^2, as h1_norm does
    from hermlp.kernels import _lattice_mass, heat_apply

    rng = np.random.default_rng(12)
    for grid, d, q in ((SpatialGrid(12.0, 0.02), 1, 2.0), (SpatialGrid(12.0, 0.02), 3, 1.5),
                       (SpatialGrid(3.0, 0.15, 2), 2, math.inf)):
        f = rng.normal(size=(grid.size, d))
        B = BanachModel(d, q)
        wf = (grid.weights[:, None] * f).reshape(grid.shape + (d,))
        sup = B.norm(f)
        mass = _lattice_mass(grid.h, ATOM_TIMES.nodes) ** grid.n
        assert np.all(mass == 1.0) == (grid.n == 1)
        for t, theta in zip(ATOM_TIMES.nodes, mass):
            sup = np.maximum(sup, B.norm(heat_apply(wf, grid.axis, t)).ravel() / theta)
        assert h1_norm(f, B, grid, ATOM_TIMES) == float(np.sum(grid.weights * sup))


@pytest.mark.parametrize("grid, N, calls", [
    (SpatialGrid(12.0, 0.02), 16, [16]),        # the hardy lattice: one block
    (SpatialGrid(3.0, 0.1, 2), 40, [17, 17, 6]),
    (SpatialGrid(6.0, 0.05, 2), 512, [1] * 512),  # 241 x 241: never all 512 at once
])
def test_h1_norm_time_blocks_stay_under_the_budget(monkeypatch, grid, N, calls):
    seen = []

    def fake(values, plan, start, stop):  # the worker h1_norm calls once per block
        seen.append(stop - start)
        return np.zeros((stop - start,) + values.shape)

    monkeypatch.setattr(spaces, "_heat_rows", fake)
    h1_norm(np.ones((grid.size, 1)), B1, grid, TimeGrid(1e-3, 20.0, N))
    assert seen == calls
    assert max(seen) * grid.size <= spaces._HEAT_BLOCK


HARDY_ATOMS = [make_random_atom(np.random.default_rng(29), SpatialGrid(12.0, 0.02), kind)
               for kind in ("cancel", "local") * 32]
HARDY_TIMES = TimeGrid(1e-3, 20.0, 16)


def test_sampled_h1_builds_one_lattice_plan_for_a_grid_and_times():
    from hermlp import kernels

    grid = HARDY_ATOMS[0].grid
    kernels._lattice_plan.cache_clear()
    for a in HARDY_ATOMS:
        h1_norm(a, B1, grid, HARDY_TIMES)
    info = kernels._lattice_plan.cache_info()
    assert (info.misses, info.hits) == (1, 63)


@pytest.mark.parametrize("N", [17, 32])
def test_sampled_h1_reuses_its_plan_beyond_16_time_blocks(N):
    # SpatialGrid(6, 0.05, 2) takes one time per block; with a plan per
    # block, more than the 16 kept were all rebuilt on every call
    from hermlp import kernels

    grid = SpatialGrid(6.0, 0.05, 2)
    times = TimeGrid(1e-3, 20.0, N)
    f = np.exp(-np.sum(grid.points ** 2, axis=-1))
    first = h1_norm(f, B1, grid, times)
    misses = kernels._lattice_plan.cache_info().misses
    assert h1_norm(f, B1, grid, times) == first
    assert kernels._lattice_plan.cache_info().misses == misses


def test_sampled_h1_of_huge_constants_scales_with_the_constant():
    # the constant 1e305 read inf and 1e306 NaN, where heat_apply overflowed
    grid = HARDY_ATOMS[0].grid
    one = h1_norm(np.ones(grid.size), B1, grid, HARDY_TIMES)
    for c in (1e305, 1e306):
        got = h1_norm(np.full(grid.size, c), B1, grid, HARDY_TIMES)
        assert got == pytest.approx(c * one, rel=1e-15, abs=0.0)


def test_sampled_h1_is_the_same_with_a_cleared_lattice_plan_cache():
    from hermlp import kernels

    grid = HARDY_ATOMS[0].grid
    for a in HARDY_ATOMS[:6]:
        kernels._lattice_plan.cache_clear()
        cold = h1_norm(a, B1, grid, HARDY_TIMES)
        assert h1_norm(a, B1, grid, HARDY_TIMES) == cold
        assert kernels._lattice_plan.cache_info().hits == 1


@settings(max_examples=60, deadline=None)
@given(st.floats(0.005, 1.5), st.floats(0.01, 8.0), st.integers(0, 6),
       st.floats(0.5, 10.0), st.floats(0.003, 0.2))
def test_ball_intervals_are_the_distance_masks(spacing, extent, depth, R, h):
    grid = SpatialGrid(R, h)
    centers, radii, _ = BallSpec(spacing, extent, depth).balls()
    lo, count = spaces._ball_intervals(grid.axis, centers, radii)
    for a, r, start, size in zip(centers, radii, lo, count):
        mask = np.abs(grid.points - a) < r
        assert np.array_equal(np.flatnonzero(mask), np.arange(start, start + size))


@pytest.mark.parametrize("balls", [BallSpec(0.5, 2.0, 2), BallSpec(0.25, 3.0, 3),
                                   BallSpec(0.37, 4.0, 5), BallSpec(0.013, 1.0, 6), BallSpec()])
def test_cached_ball_intervals_are_the_distance_masks(balls):
    # h = 1/8: the centres that are multiples of 1/2 put a +/- r exactly on
    # lattice points (r = 1/2, 1/4, 1, 2, ... near the origin), which the
    # strict inequality leaves out
    grid = SpatialGrid(4.0, 0.125)
    axis = grid.axis
    centers, radii, _ = balls.balls()
    empty = sum(not np.any(np.abs(axis - a) < r) for a, r in zip(centers, radii))
    for _ in range(2):  # a miss, then a hit
        plan = spaces._ball_plan(grid, balls)
        assert plan.skipped == empty
        for a, r, start, stop in zip(plan.centers, plan.radii, plan.bounds[::2],
                                     plan.bounds[1::2]):
            mask = np.abs(axis - a) < r
            assert np.array_equal(np.flatnonzero(mask), np.arange(start, stop))
    assert np.sum(np.isin(centers + radii, axis)) >= 4


def test_ball_family_arrays_follow_the_ladder():
    centers, radii, oscillation = BallSpec(0.5, 1.0, 2).balls()
    assert centers.tolist() == [c for c in (-1.0, -0.5, 0.0, 0.5, 1.0) for _ in range(6)]
    assert radii[:6].tolist() == [0.5, 0.5, 0.25, 1.0, 0.125, 2.0]
    assert oscillation[:6].tolist() == [True, False] * 3
    assert radii[-6:] == pytest.approx([0.5 / 2 ** m * s for m in range(3) for s in (1, 4 ** m)])


def _bmo_loop(samples, B, grid, balls):
    """Per-ball reference sweep: a distance mask and a weighted average
    per ball."""
    w, best, skipped = grid.weights, 0.0, 0
    for a in balls.centers:
        rho = float(critical_radius(a))
        for m in range(balls.depth + 1):
            for r, oscillation in ((rho * 2.0 ** -m, True), (rho * 2.0 ** m, False)):
                mask = np.abs(grid.points - a) < r
                if not mask.any():
                    skipped += 1
                    continue
                wm = w[mask] / np.sum(w[mask])
                sub = samples[mask]
                dev = sub - wm @ sub if oscillation else sub
                best = max(best, float(wm @ B.norm(dev)))
    return best, skipped


def _carleson_loop(g2, x, balls, grid, times):
    w, t, best = grid.weights, times.nodes, 0.0
    for a in balls.centers:
        rho = float(critical_radius(a))
        for r in [rho * 2.0 ** s for m in range(balls.depth + 1) for s in (-m, m)]:
            mask = np.abs(grid.points - a) < r
            if abs(x - a) >= r or not mask.any() or not np.any(t < r):
                continue
            tm = t < r
            box = float(np.sum(g2[np.ix_(mask, tm)] * w[mask, None] * times.weights[None, tm]))
            best = max(best, math.sqrt(box / float(np.sum(w[mask]))))
    return best


def test_bmo_norm_equals_a_per_ball_loop():
    rng = np.random.default_rng(88)
    for _ in range(40):
        grid = SpatialGrid(float(rng.uniform(3.0, 12.0)), float(rng.uniform(0.01, 0.1)))
        d = int(rng.integers(1, 4))
        B = BanachModel(d, float(rng.choice([1.0, 1.5, 2.0, 4.0, math.inf])))
        f = rng.normal(size=(grid.size, d)) + np.sin(grid.points)[:, None]
        balls = BallSpec(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 6.0)),
                         int(rng.integers(0, 7)))
        want, skipped = _bmo_loop(f, B, grid, balls)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = bmo_norm(f, B, grid, balls)
        assert got == pytest.approx(want, rel=1e-14)
        messages = [str(w.message) for w in caught]
        assert messages == ([f"skipped {skipped} balls without interior lattice points"]
                            if skipped else [])


def test_carleson_functional_equals_a_per_ball_loop():
    rng = np.random.default_rng(89)
    for _ in range(25):
        grid = SpatialGrid(float(rng.uniform(4.0, 8.0)), float(rng.uniform(0.02, 0.08)))
        times = TimeGrid(10 ** rng.uniform(-3, -1), 10 ** rng.uniform(0, 1.3),
                         int(rng.integers(4, 20)))
        ks = rng.choice(12, size=3, replace=False)
        e = HermiteExpansion(1, 1, int(max(ks)),
                             {(int(k),): [float(rng.normal())] for k in ks})
        field = gfunction(e, 0.0, grid, times)
        balls = BallSpec(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 4.0)),
                         int(rng.integers(0, 5)))
        x = float(rng.uniform(-3.0, 3.0))
        want = _carleson_loop(field.values[:, :, 0] ** 2, x, balls, grid, times)
        got = carleson_functional(e, x, 0.0, balls, grid, times)
        assert got == pytest.approx(want, rel=1e-14)


def test_carleson_functional_skips_empty_balls_around_x():
    # balls of radius 0.5 / 2^12 around the off-lattice centre x hold no
    # lattice point; the sweep of the cached family must leave them out
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    times = TimeGrid(1e-3, 2.0, 8)
    balls = BallSpec(spacing=0.077, extent=0.2, depth=12)
    e = HermiteExpansion(1, 1, 3, {(1,): [1.0], (3,): [-0.5]})
    field = gfunction(e, 0.0, grid, times)
    want = _carleson_loop(field.values[:, :, 0] ** 2, 0.077, balls, grid, times)
    for _ in range(2):  # a miss, then a hit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = carleson_functional(e, 0.077, 0.0, balls, grid, times)
        assert got == pytest.approx(want, rel=1e-14) and want > 0


def _bmo_gathered(samples, B, grid, balls):
    """The gather route that `bmo_norm` took before its interval sums: the
    interiors of all used balls copied into one index array, and every sum
    one np.add.reduceat over that copy."""
    centers, radii, oscillation = balls.balls()
    lo, count = spaces._ball_intervals(grid.axis, centers, radii)
    used = count > 0
    lo, count, oscillation = lo[used], count[used], oscillation[used]
    starts = np.cumsum(count) - count
    idx = np.repeat(lo - starts, count) + np.arange(int(np.sum(count)))
    w, f = grid.weights[idx], samples[idx]
    mass = np.add.reduceat(w, starts)
    mean = np.add.reduceat(w[:, None] * f, starts) / mass[:, None]
    f -= np.repeat(np.where(oscillation[:, None], mean, 0.0), count, axis=0)
    return float(np.max(np.add.reduceat(w * B.norm(f), starts) / mass))


def test_bmo_norm_keeps_the_bits_of_the_gather_route():
    rng = np.random.default_rng(90)
    qs = (1.0, 1.5, 2.0, 4.0, math.inf)
    with_empty = 0
    for i in range(60):  # every (d, q) pair four times
        grid = SpatialGrid(float(rng.uniform(2.0, 12.0)), float(rng.uniform(0.01, 0.2)))
        B = BanachModel(1 + i % 3, qs[i % 5])
        f = rng.normal(size=(grid.size, B.d)) * 10.0 ** rng.uniform(-3, 3, size=B.d)
        f += np.sin(grid.points)[:, None]
        # ladders up to rho 2^-9 around off-lattice centres hold empty balls
        balls = BallSpec(float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.3, 6.0)),
                         int(rng.integers(0, 10)))
        with_empty += spaces._ball_plan(grid, balls).skipped > 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert bmo_norm(f, B, grid, balls) == _bmo_gathered(f, B, grid, balls)
    assert 10 <= with_empty < 60


def test_ball_plan_is_read_only_and_cold_and_warm_calls_agree():
    # a step no other test uses: the first calls build the plan on this axis
    grid = SpatialGrid(5.0, 0.05 * (1.0 + 2.0 ** -30))
    balls, times = BallSpec(0.3, 4.0, 4), TimeGrid(1e-3, 4.0, 10)
    B = BanachModel(2, 1.5)
    f = np.stack([np.cos(grid.points), np.clip(grid.points, -1.0, 1.0)], axis=1)
    e = HermiteExpansion(1, 1, 4, {(0,): [0.7], (4,): [-0.4]})
    misses = spaces._ball_plan.cache_info().misses
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cold = bmo_norm(f, B, grid, balls), carleson_functional(e, 0.4, 0.0, balls, grid, times)
        warm = bmo_norm(f, B, grid, balls), carleson_functional(e, 0.4, 0.0, balls, grid, times)
    assert spaces._ball_plan.cache_info().misses == misses + 1
    assert cold == warm and min(cold) > 0
    plan = spaces._ball_plan(grid, balls)
    arrays = [plan.centers, plan.radii, plan.bounds, plan.mass, plan.count, plan.starts,
              plan.gather, plan.weights]
    assert not any(a.flags.writeable for a in arrays)
    assert plan.skipped + plan.mass.size == balls.balls()[0].size


def test_equal_grids_built_apart_share_one_ball_plan():
    # the plan was keyed on the bytes of the axis and the weights; a grid
    # is now its own key, and a step no other test uses makes the first
    # call a miss
    balls, B, step = BallSpec(0.4, 3.0, 2), BanachModel(1, 2.0), 0.05 * (1.0 + 2.0 ** -29)
    first, second = SpatialGrid(4.0, step), SpatialGrid(4.0, step)
    assert first is not second and first == second
    f = np.cos(first.points)
    misses = spaces._ball_plan.cache_info().misses
    assert bmo_norm(f, B, first, balls) == bmo_norm(f, B, second, balls)
    assert spaces._ball_plan.cache_info().misses == misses + 1
    assert spaces._ball_plan(first, balls) is spaces._ball_plan(second, balls)


def test_an_atom_is_read_on_an_equal_grid_built_apart():
    grid, times = SpatialGrid(6.0, 0.05), TimeGrid(1e-3, 20.0, 16)
    a = make_random_atom(np.random.default_rng(3), grid)
    other = SpatialGrid(6.0, 0.05)
    assert other is not grid
    assert h1_norm(a, B1, other, times) == h1_norm(a, B1, grid, times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert bmo_norm(a, B1, other, BallSpec()) == bmo_norm(a.samples, B1, grid, BallSpec())


def test_carleson_functional_on_and_off_the_lattice_equals_a_per_ball_loop():
    grid, times = SpatialGrid(6.0, 0.04), TimeGrid(1e-3, 5.0, 12)
    e = HermiteExpansion(1, 1, 6, {(1,): [0.8], (2,): [0.3], (6,): [-0.5]})
    g2 = gfunction(e, 0.0, grid, times).values[:, :, 0] ** 2
    balls = BallSpec(0.25, 3.0, 3)
    for x in (float(grid.axis[160]), float(grid.axis[160]) + 0.013, 0.5, -1.2345):
        want = _carleson_loop(g2, x, balls, grid, times)
        got = carleson_functional(e, x, 0.0, balls, grid, times)
        assert got == pytest.approx(want, rel=1e-14) and want > 0


def test_ball_sweeps_reject_planar_grids():
    # BallSpec centers are scalars: on a plane they would sit at (a, a)
    grid = SpatialGrid(3.0, 0.25, 2)
    e = HermiteExpansion.single((0, 0))
    with pytest.raises(ValueError, match="one-dimensional"):
        bmo_norm(np.ones((grid.size, 1)), B1, grid, BallSpec())
    with pytest.raises(ValueError, match="one-dimensional"):
        carleson_functional(e, [0.0, 0.0], 0.0, BallSpec(), grid, ATOM_TIMES)


# (grid, degree cap) per dimension n; each spacing resolves its degree
SPECTRAL_GRIDS = {1: (SpatialGrid(R=3.0, h=0.08, n=1), 3), 2: (SpatialGrid(R=1.0, h=0.1, n=2), 2),
                  3: (SpatialGrid(R=0.3, h=0.1, n=3), 1)}


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("kind", ["heat", "poisson"])
@pytest.mark.parametrize("q", [1.5, 2.0, math.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_h1_norm_is_the_integrated_maximal_norm(n, q, kind, alpha):
    grid, K = SPECTRAL_GRIDS[n]
    rng = np.random.default_rng(n)
    ks = [k for k in np.ndindex(*(K + 1,) * n) if sum(k) <= K]
    e = HermiteExpansion(n=n, d=n, K=K, coeffs={k: rng.normal(size=n) for k in ks})
    B = BanachModel(n, q)
    times = TimeGrid(1e-2, 5.0, 8)
    pts = grid.points
    want = sum(w * maximal_norm(e, x, kind, alpha, B, times) for w, x in zip(grid.weights, pts))
    assert h1_norm(e, B, grid, times, kind, alpha) == pytest.approx(want, rel=1e-14)


def test_spectral_h1_norm_checks_its_input_as_maximal_norm_does():
    grid = SpatialGrid(R=3.0, h=0.1, n=1)
    one = HermiteExpansion.single(1)
    empty = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    for call in (lambda e, B, alpha: h1_norm(e, B, grid, ATOM_TIMES, "heat", alpha),
                 lambda e, B, alpha: maximal_norm(e, 0.3, "heat", alpha, B, ATOM_TIMES)):
        with pytest.raises(ValueError, match="dimension must match"):
            call(one, BanachModel(3, 2.0), 0.0)
        with pytest.raises(ValueError, match="shift"):
            call(empty, B1, -5.0)
        assert call(empty, B1, 0.0) == 0.0


@pytest.mark.parametrize("n, q", [(1, 2.0), (1, 1.5), (2, math.inf), (3, 2.0)])
def test_spectral_h1_norm_equals_the_per_time_products(n, q):
    # the time blocks of one stacked product give the per-time values bit for bit
    grid, K = SPECTRAL_GRIDS[n]
    rng = np.random.default_rng(10 + n)
    ks = [k for k in np.ndindex(*(K + 1,) * n) if sum(k) <= K]
    e = HermiteExpansion(n=n, d=2, K=K, coeffs={k: rng.normal(size=2) for k in ks})
    B = BanachModel(2, q)
    times = TimeGrid(1e-3, 20.0, 40)
    S = point_synthesis_matrix(e.modes, grid.points)
    C = np.array([e.coeffs[k] for k in e.coeffs])
    rate = np.sqrt([e.eigenvalue(k, 0.5) for k in e.coeffs])
    sup = B.norm(S.T @ C)
    for t in times.nodes:
        sup = np.maximum(sup, B.norm(((np.exp(-t * rate)[:, None] * C).T @ S).T))
    assert h1_norm(e, B, grid, times, "poisson", 0.5) == float(np.sum(grid.weights * sup))


def test_area_and_carleson_reject_a_field_of_another_shape():
    # the g-field of a d = 2 expansion was read through component 0
    grid = SpatialGrid(12.0, 0.02)
    pair = HermiteExpansion(n=1, d=2, K=2, coeffs={(0,): [1.0, 0.5], (2,): [0.4, 0.0]})
    with pytest.raises(ValueError, match="scalar-valued inputs"):
        area_integral(pair, 0.3, 0.0, grid, ATOM_TIMES)
    with pytest.raises(ValueError, match="scalar-valued inputs"):
        carleson_functional(pair, 0.3, 0.0, BallSpec(), grid, ATOM_TIMES)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norms_at_q_two_of_huge_and_tiny_samples_scale(scale):
    # at q = 2 and d >= 2 the Banach norm summed unscaled squares, so h1_norm
    # and bmo_norm read inf (with an overflow warning) or 0 for these samples
    grid, times, B = SpatialGrid(4.0, 0.1), TimeGrid(1e-2, 5.0, 8), BanachModel(2, 2.0)
    f = np.exp(-grid.points ** 2)
    samples = np.stack([f, np.cos(grid.points) * f], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # bmo_norm skips empty balls
        h1 = h1_norm(scale * samples, B, grid, times)
        bmo = bmo_norm(scale * samples, B, grid, BallSpec())
        h1_one, bmo_one = h1_norm(samples, B, grid, times), bmo_norm(samples, B, grid, BallSpec())
    assert h1 == pytest.approx(scale * h1_one, rel=1e-14, abs=0.0)
    assert bmo == pytest.approx(scale * bmo_one, rel=1e-14, abs=0.0)


def test_spectral_h1_and_analyze_take_the_same_steps():
    # the spectral h1_norm allowed h <= 0.25 / sqrt(2K + n + 1e-12) and
    # analyze h <= 0.25 / sqrt(2K + n) + 1e-12, so the step 0.25 / sqrt(2K + n)
    # passed analyze and failed h1_norm
    K, times = 3, TimeGrid(0.1, 2.0, 4)
    edge = 0.25 / math.sqrt(2 * K + 1)
    for h, ok in [(edge, True), (edge + 5e-13, True), (edge * (1 + 1e-9), False)]:
        grid = SpatialGrid(8.0, h)
        calls = [lambda: analyze(np.zeros(grid.shape), grid, K),
                 lambda: h1_norm(HermiteExpansion.single(K), B1, grid, times)]
        for call in calls:
            if ok:
                call()
            else:
                with pytest.raises(ValueError, match="too coarse"):
                    call()


def test_atom_checks_its_kind_and_radius_and_reads_d():
    samples = np.zeros((ATOM_GRID.size, 3))
    with pytest.raises(ValueError, match="unknown atom kind 'wide'"):
        Atom(0.0, 0.25, "wide", ATOM_GRID, samples)
    for radius in (0.0, -0.25):
        with pytest.raises(ValueError, match="radius must be positive"):
            Atom(0.0, radius, "cancel", ATOM_GRID, samples)
    assert Atom(0.0, 0.25, "local", ATOM_GRID, samples).d == 3
    assert Atom(0.0, 0.25, "local", ATOM_GRID, samples[:, 0]).d == 1


def test_make_random_atom_checks_its_kind_and_grid():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="unknown atom kind 'wide'"):
        make_random_atom(rng, ATOM_GRID, kind="wide")
    with pytest.raises(ValueError, match="one-dimensional grids"):
        make_random_atom(rng, SpatialGrid(R=2.0, h=0.25, n=2))


def test_h1_norm_rejects_an_unknown_kind_and_sampled_poisson_or_shift():
    f = make_random_atom(np.random.default_rng(5), ATOM_GRID)
    with pytest.raises(ValueError, match="unknown semigroup kind 'wave'"):
        h1_norm(f, B1, ATOM_GRID, ATOM_TIMES, kind="wave")
    with pytest.raises(ValueError, match="heat maximal function only"):
        h1_norm(f, B1, ATOM_GRID, ATOM_TIMES, kind="poisson")
    with pytest.raises(ValueError, match="alpha = 0 only"):
        h1_norm(f, B1, ATOM_GRID, ATOM_TIMES, alpha=1.0)


def test_bmo_norm_of_no_usable_ball_is_zero_with_the_warning(monkeypatch):
    # every SpatialGrid holds the origin and every BallSpec a ball about it,
    # so no grid and ball family of the public API skips every ball; an
    # empty interval table stands in for one, read by a plan cache of its own
    grid, balls = SpatialGrid(R=3.0, h=0.5), BallSpec()
    centers, radii, _ = balls.balls()
    lo, count = spaces._ball_intervals(grid.axis, centers, radii)
    monkeypatch.setattr(spaces, "_ball_intervals", lambda *args: (lo, 0 * count))
    monkeypatch.setattr(spaces, "_ball_plan", functools.lru_cache(maxsize=8)(spaces._BallPlan))
    with pytest.warns(UserWarning, match=f"skipped {count.size} balls"):
        assert bmo_norm(np.ones(grid.size), B1, grid, balls) == 0.0
