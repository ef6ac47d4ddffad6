import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hermlp import basis, kernels
from hermlp.basis import SpatialGrid, hermite_eval
from hermlp.kernels import (
    ShiftedOperator,
    SubordinationRule,
    g_kernel,
    g_of_one,
    heat_apply,
    heat_kernel,
    heat_kernel_one,
    heat_one_dt,
    ladder_kernel,
    poisson_kernel,
)
from hermlp.verify import kernel_bound_ratio

L = ShiftedOperator(0.0, 1)
L2 = ShiftedOperator(2.0, 1)


def spectral_action(kern, k, x, lo=-14.0, hi=14.0):
    """Independent oracle: apply a kernel to h_k by adaptive quadrature."""
    val, _ = quad(lambda y: kern(x, y) * hermite_eval(k, y), lo, hi, limit=300)
    return val


def test_operator_rejects_bad_shift():
    with pytest.raises(ValueError, match="shift"):
        ShiftedOperator(-1.0, 1)
    with pytest.raises(ValueError, match="shift"):
        ShiftedOperator(-2.0, 2)
    ShiftedOperator(-1.5, 2)  # fine: -1.5 > -2


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_operator_rejects_non_finite_shift(alpha):
    with pytest.raises(ValueError, match="not finite"):
        ShiftedOperator(alpha, 1)


def test_rule_s_nodes_integrate_subordination_density():
    # t/sqrt(4 pi) int s^{-3/2} e^{-t^2/4s - lam s} ds = e^{-t sqrt(lam)}
    rule = SubordinationRule()
    for t in (0.1, 1.0, 5.0):
        for lam in (1.0, 3.0, 25.0):
            s, w = rule.s_nodes(t, lam)
            val = t / math.sqrt(4 * math.pi) * float(
                np.sum(w * s ** -1.5 * np.exp(-t * t / (4 * s) - lam * s))
            )
            assert val == pytest.approx(math.exp(-t * math.sqrt(lam)), rel=1e-9)


def test_rule_rejects_single_node():
    with pytest.raises(ValueError):
        SubordinationRule(Q=1)


def test_heat_kernel_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.normal(size=2) * 2
        t = rng.uniform(0.05, 3.0)
        assert heat_kernel(x, y, t) == heat_kernel(y, x, t)
        assert heat_kernel(x, y, t) > 0


def test_heat_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, -1.0)


def test_heat_kernel_frozen_value():
    # (e^{-2} / (pi (1 - e^{-4})))^{1/2}, evaluated independently
    assert heat_kernel(0.0, 0.0, 1.0) == pytest.approx(0.20948100342398213, rel=1e-14)


def test_heat_kernel_matches_spectral_sum():
    # truncated sum converges once e^{-t(2K+n)} is below the tolerance
    cases = [(0.25, 60), (1.0, 60), (0.1, 160)]
    pts = [(0.0, 0.0), (0.5, -1.2), (2.0, 1.0), (-3.0, 2.5)]
    for t, K in cases:
        for x, y in pts:
            ssum = sum(
                math.exp(-t * (2 * k + 1)) * hermite_eval(k, x) * hermite_eval(k, y)
                for k in range(K + 1)
            )
            assert heat_kernel(x, y, t) == pytest.approx(ssum, abs=1e-8)


def test_heat_kernel_2d_factorizes():
    x = np.array([0.3, -0.9])
    y = np.array([1.1, 0.2])
    prod = heat_kernel(0.3, 1.1, 0.7) * heat_kernel(-0.9, 0.2, 0.7)
    assert heat_kernel(x, y, 0.7, n=2) == pytest.approx(float(prod), rel=1e-13)


def test_heat_kernel_one_frozen_value():
    # sqrt(2 e^{-2} / (1 + e^{-4}))
    assert heat_kernel_one(0.0, 1.0) == pytest.approx(0.5155601117562139, rel=1e-14)


def test_heat_kernel_one_small_time_limit():
    for x in (0.0, 1.5, 2.5):
        assert heat_kernel_one(x, 1e-6) == pytest.approx(1.0, abs=1e-5)
    # farther out the deviation grows like t |x|^2 but still vanishes
    assert heat_kernel_one(4.0, 1e-6) == pytest.approx(1.0, abs=5e-5)


def test_heat_kernel_one_matches_y_quadrature():
    for x in (0.0, 1.0, 2.5):
        for t in (0.1, 0.5, 2.0):
            val, _ = quad(lambda y: heat_kernel(x, y, t), -np.inf, np.inf)
            assert heat_kernel_one(x, t) == pytest.approx(val, abs=1e-8)


def test_heat_kernel_one_monotone_in_radius():
    xs = np.linspace(0.0, 6.0, 25)
    v = heat_kernel_one(xs, 0.8)
    assert np.all(np.diff(v) <= 0)


def test_heat_one_dt_matches_finite_difference():
    h = 1e-6
    for op in (L, L2, ShiftedOperator(-0.5, 1)):
        for x in (0.0, 1.2, 3.0):
            for t in (0.2, 1.0, 3.0):
                fd = (
                    math.exp(-op.alpha * (t + h)) * heat_kernel_one(x, t + h, op.n)
                    - math.exp(-op.alpha * (t - h)) * heat_kernel_one(x, t - h, op.n)
                ) / (2 * h)
                assert heat_one_dt(x, t, op) == pytest.approx(fd, abs=1e-7)


def test_poisson_action_on_ground_mode():
    # e^{-1} h_0(0)
    val = spectral_action(lambda x, y: poisson_kernel(x, y, 1.0, L), 0, 0.0)
    assert val == pytest.approx(0.2763236455473584, abs=1e-9)


def test_poisson_spectral_action_sweep():
    for k in (0, 3, 10):
        for t in (0.1, 1.0, 5.0):
            val = spectral_action(lambda x, y: poisson_kernel(x, y, t, L), k, 0.3)
            oracle = math.exp(-t * math.sqrt(2 * k + 1)) * hermite_eval(k, 0.3)
            assert val == pytest.approx(float(oracle), rel=1e-6, abs=1e-12)


def test_poisson_shift_decreases_kernel():
    xs = np.linspace(-3, 3, 7)
    for t in (0.3, 1.0):
        a0 = poisson_kernel(xs, 0.5, t, L)
        a2 = poisson_kernel(xs, 0.5, t, L2)
        assert np.all(a2 <= a0)
        assert np.all(a0 > 0)


def test_poisson_envelope_refinement_stable():
    # P_t(x,y) (t + |x-y|)^{n+1} / t stays bounded and does not grow when
    # the evaluation lattice is refined 2x
    def sup_ratio(npts):
        xs = np.linspace(-5, 5, npts)
        best = 0.0
        for t in (0.1, 0.5, 2.0):
            P = poisson_kernel(xs[:, None], xs[None, :], t, L)
            ratio = P * (t + np.abs(xs[:, None] - xs[None, :])) ** 2 / t
            best = max(best, float(ratio.max()))
        return best

    coarse = sup_ratio(21)
    fine = sup_ratio(41)
    assert np.isfinite(fine)
    assert fine <= 1.1 * max(coarse, fine / 1.05)  # stable, not exploding
    assert fine <= 10.0


def test_g_action_on_ground_mode():
    val = spectral_action(lambda x, y: g_kernel(x, y, 0.7, L), 0, 0.4)
    oracle = -0.7 * math.exp(-0.7) * hermite_eval(0, 0.4)
    assert val == pytest.approx(float(oracle), rel=1e-8)


def test_g_action_shifted():
    val = spectral_action(lambda x, y: g_kernel(x, y, 0.7, L2), 0, 0.4)
    r = math.sqrt(3)
    oracle = -0.7 * r * math.exp(-0.7 * r) * hermite_eval(0, 0.4)
    assert val == pytest.approx(float(oracle), rel=1e-8)


def test_g_kernel_vanishes_as_t_to_zero():
    assert abs(g_kernel(0.0, 1.0, 1e-4, L)) <= 1e-4


def test_g_envelope_finite():
    xs = np.linspace(-5, 5, 21)
    for t in (0.1, 1.0):
        G = g_kernel(xs[:, None], xs[None, :], t, L)
        ratio = np.abs(G) * (t + np.abs(xs[:, None] - xs[None, :])) ** 2 / t
        assert np.all(np.isfinite(ratio))
        assert ratio.max() <= 10.0


def test_ladder_action_raising_mode():
    # t (d/dx + x) P_t on h_1 = t sqrt(2) e^{-t sqrt(3)} h_0
    val = spectral_action(lambda x, y: ladder_kernel(x, y, 0.7, 1, +1), 1, 0.4)
    oracle = 0.7 * math.sqrt(2) * math.exp(-0.7 * math.sqrt(3)) * hermite_eval(0, 0.4)
    assert val == pytest.approx(float(oracle), rel=1e-8)


def test_ladder_annihilates_ground_mode():
    val = spectral_action(lambda x, y: ladder_kernel(x, y, 0.7, 1, +1), 0, 0.4)
    assert abs(val) <= 1e-8


def test_ladder_lowering_sign():
    # t (d/dx - x) P_t on h_0 = -t sqrt(2) e^{-t} h_1
    val = spectral_action(lambda x, y: ladder_kernel(x, y, 0.7, 1, -1), 0, 0.4)
    oracle = -0.7 * math.sqrt(2) * math.exp(-0.7) * hermite_eval(1, 0.4)
    assert val == pytest.approx(float(oracle), rel=1e-8)


def test_ladder_rejects_bad_arguments():
    with pytest.raises(ValueError, match="sign"):
        ladder_kernel(0.0, 0.0, 1.0, 1, 0)
    with pytest.raises(ValueError, match="coordinate"):
        ladder_kernel(0.0, 0.0, 1.0, 2, +1, n=1)


def test_ladder_envelope_finite():
    xs = np.linspace(-5, 5, 21)
    for t in (0.1, 1.0):
        O = ladder_kernel(xs[:, None], xs[None, :], t, 1, +1)
        dxy = np.abs(xs[:, None] - xs[None, :])
        ratio = np.abs(O) * (t + dxy) ** 3 / (t * t)
        assert np.all(np.isfinite(ratio))
        assert ratio.max() <= 50.0


def test_g_of_one_matches_time_derivative():
    # oracle: finite differences in t of the subordinated Poisson action on 1
    rule = SubordinationRule()

    def poisson_one(x, t, op):
        s, w = rule.s_nodes(t, op.n + op.alpha)
        integ = s ** -1.5 * np.exp(-t * t / (4 * s) - op.alpha * s) * heat_kernel_one(
            x, s, op.n
        )
        return t / math.sqrt(4 * math.pi) * float(np.sum(w * integ))

    h = 1e-5
    for x, t in [(0.0, 0.5), (1.5, 1.0), (3.0, 0.2)]:
        fd = t * (poisson_one(x, t + h, L2) - poisson_one(x, t - h, L2)) / (2 * h)
        assert g_of_one(x, t, L2) == pytest.approx(fd, abs=1e-6)


def test_g_of_one_sqrt_envelope():
    # |G(1)(x,t)| <= C (t / rho(x))^{1/2} with a finite empirical constant
    xs = np.linspace(-6, 6, 25)
    rho = np.where(np.abs(xs) < 1, 0.5, 1.0 / (1.0 + np.abs(xs)))
    sup = 0.0
    for t in np.geomspace(1e-3, 10, 20):
        vals = np.abs(g_of_one(xs, t, L2))
        sup = max(sup, float(np.max(vals / np.sqrt(t / rho))))
    assert np.isfinite(sup)
    assert sup <= 20.0


def test_g_of_one_sup_finite():
    xs = np.linspace(-8, 8, 33)
    sup = 0.0
    for t in np.geomspace(1e-3, 20, 25):
        sup = max(sup, float(np.max(np.abs(g_of_one(xs, t, L2)))))
    assert np.isfinite(sup)
    assert sup <= 5.0


def test_gradient_envelope_finite():
    # |d/dx (t d/dt P_t)| (t + |x-y|)^{n+2} / t finite via finite differences
    xs = np.linspace(-4, 4, 17)
    h = 1e-5
    for t in (0.2, 1.0):
        Gp = g_kernel(xs[:, None] + h, xs[None, :], t, L)
        Gm = g_kernel(xs[:, None] - h, xs[None, :], t, L)
        grad = (Gp - Gm) / (2 * h)
        dxy = np.abs(xs[:, None] - xs[None, :])
        ratio = np.abs(grad) * (t + dxy) ** 3 / t
        assert np.all(np.isfinite(ratio))
        assert ratio.max() <= 50.0


# ---------------------------------------------------------------- heat_apply
HARDY_GRID = SpatialGrid(12.0, 0.02)
PLANE_GRID = SpatialGrid(3.0, 0.15, 2)


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 20.0])
@pytest.mark.parametrize("grid, d", [(HARDY_GRID, 1), (HARDY_GRID, 3), (PLANE_GRID, 2)])
def test_heat_apply_matches_dense_kernel(grid, d, t):
    rng = np.random.default_rng(11)
    values = rng.normal(size=(grid.size, d))
    P = grid.points
    if grid.n == 1:
        W = heat_kernel(P[:, None], P[None, :], t)
    else:
        W = heat_kernel(P[:, None, :], P[None, :, :], t, grid.n)
    dense = W @ values
    fast = heat_apply(values.reshape(grid.shape + (d,)), grid.axis, t)
    assert fast.shape == grid.shape + (d,)
    err = np.max(np.abs(fast.reshape(grid.size, d) - dense))
    assert err <= 1e-13 * np.max(np.abs(dense))


def test_heat_apply_rejects_bad_input():
    axis = HARDY_GRID.axis
    ok = np.ones((axis.size, 1))
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="time"):
            heat_apply(ok, axis, t)
    with pytest.raises(ValueError, match="shape"):
        heat_apply(np.ones(axis.size), axis, 1.0)
    with pytest.raises(ValueError, match="shape"):
        heat_apply(np.ones((axis.size - 1, 1)), axis, 1.0)
    with pytest.raises(ValueError, match="uniform"):
        heat_apply(np.ones((5, 1)), np.array([0.0, 0.1, 0.2, 0.4, 0.5]), 1.0)
    bad = ok.copy()
    bad[7, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        heat_apply(bad, axis, 1.0)


HEAT_TIMES = np.concatenate([[1e-3, 20.0], np.geomspace(2e-3, 10.0, 6), [0.37, 3.3]])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("grid", [HARDY_GRID, PLANE_GRID])
def test_heat_apply_time_axis_is_the_stacked_scalar_calls(grid, d):
    values = np.random.default_rng(17).normal(size=grid.shape + (d,))
    batch = heat_apply(values, grid.axis, HEAT_TIMES)
    assert batch.shape == (HEAT_TIMES.size,) + values.shape
    stacked = np.stack([heat_apply(values, grid.axis, t) for t in HEAT_TIMES])
    assert np.array_equal(batch, stacked)
    # a one-element array keeps its time axis
    assert np.array_equal(heat_apply(values, grid.axis, HEAT_TIMES[:1]), stacked[:1])


def test_heat_apply_rejects_bad_time_arrays():
    axis = HARDY_GRID.axis
    ok = np.ones((axis.size, 1))
    for bad in (np.array([]), np.ones((2, 2)), [[1.0]],
                [1.0, math.nan], [math.inf, 1.0], [0.5, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time"):
                heat_apply(ok, axis, bad)


SEMI_GRID = SpatialGrid(10.0, 0.05)
SYM_GRID = SpatialGrid(6.0, 0.1)
# (amplitude, center, width); amplitudes stay clear of the subnormal
# range, where no floating-point route keeps its relative precision
bump = st.tuples(
    st.floats(-1.0, 1.0).filter(lambda a: abs(a) >= 1e-3),
    st.floats(-3.0, 3.0),
    st.floats(0.3, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(bump, min_size=1, max_size=3), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_heat_apply_semigroup_law(bumps, s, t):
    # W_t W_s f = W_{s+t} f for smooth f concentrated well inside the
    # lattice, where trapezoid quadrature is accurate to rounding.  Errors
    # are measured against W_{s+t}|f|, since bumps of opposite sign may
    # cancel; over 2000 random draws the worst ratio was 5.7e-15.
    x, w = SEMI_GRID.axis, SEMI_GRID.axis_weights[:, None]
    f = sum(a * np.exp(-((x - c) ** 2) / (2 * r * r)) for a, c, r in bumps)[:, None]
    twice = heat_apply(w * heat_apply(w * f, x, s), x, t)
    once = heat_apply(w * f, x, s + t)
    scale = np.max(heat_apply(w * np.abs(f), x, s + t))
    assert np.max(np.abs(twice - once)) <= 5e-14 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 30.0), st.integers(1, 3))
def test_heat_apply_is_symmetric(seed, t, d):
    # <W_t f, g> = <f, W_t g> in the trapezoid inner product; over 2000
    # random draws the worst error relative to <W_t|f|, |g|> was 5.2e-17
    x, w = SYM_GRID.axis, SYM_GRID.axis_weights[:, None]
    f, g = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, x.size, d))
    left = np.sum(w * g * heat_apply(w * f, x, t))
    right = np.sum(w * f * heat_apply(w * g, x, t))
    scale = np.sum(w * np.abs(g) * heat_apply(w * np.abs(f), x, t))
    assert abs(left - right) <= 1e-15 * scale


# ------------------------------------------------- heat_apply's lattice plan
@pytest.mark.parametrize("t", [0.37, HEAT_TIMES])
@pytest.mark.parametrize("grid, d", [(HARDY_GRID, 1), (HARDY_GRID, 3), (PLANE_GRID, 2)])
def test_lattice_plan_miss_gives_the_bits_of_a_hit(grid, d, t):
    values = np.random.default_rng(23).normal(size=grid.shape + (d,))
    heat_apply(values, grid.axis, t)
    hit = heat_apply(values, grid.axis, t)
    kernels._lattice_plan.cache_clear()
    miss = heat_apply(values, grid.axis, t)
    assert kernels._lattice_plan.cache_info().misses == 1
    assert np.array_equal(miss, hit)


def test_lattice_plan_arrays_are_read_only():
    # one plan holds the edge scalings, c1^{n/2}, the series decays and
    # table, the Gaussians and their stencils, and their real spectra, one per circle
    # length: 1280, 1536, 2048 and 2560 points cover every support on 1201
    # points; a spectrum is built on first use and then handed out again
    plan = kernels._lattice_plan(HARDY_GRID.axis.tobytes(), HEAT_TIMES.tobytes(), 1)
    spectra = [plan.spectrum(size) for size in (1280, 1536, 2048, 2560)]
    for spectrum, size in zip(spectra, (1280, 1536, 2048, 2560)):
        assert spectrum.dtype == np.float64
        assert spectrum.shape == (len(plan.short), size // 2 + 1)
        assert plan.spectrum(size) is spectrum
    arrays = [plan.edge, plan.scale, plan.weights, plan.gauss, plan.table, *plan.decays,
              *plan.stencils, *spectra]
    for a in arrays:
        assert isinstance(a, np.ndarray)
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_fft_length_is_the_smallest_of_the_three_forms():
    forms = sorted(f << a for f in (1, 3, 5) for a in range(16))
    for m in range(1, 20001):
        assert kernels._fft_length(m) == next(p for p in forms if p >= m)
    # the outputs of L = 1201 points need lags m in [600, 1200]: four lengths
    assert {kernels._fft_length(2 * m + 1) for m in range(600, 1201)} == {1280, 1536, 2048, 2560}


def _gaussian_scale(grid, values, t):
    """c1^{n/2} sum_y e^{-B|y|^2/2} |values(y)|: no output of W_t exceeds
    it, and the FFT rounds the convolution to a small multiple of eps
    times it, however small the output is."""
    _, B, c1 = kernels._mehler(t)
    r2 = grid.points ** 2 if grid.n == 1 else np.sum(grid.points ** 2, axis=-1)
    return c1 ** (grid.n / 2) * np.sum(np.exp(-0.5 * B * r2)[:, None] * np.abs(values))


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 20.0])
@pytest.mark.parametrize("grid", [HARDY_GRID, PLANE_GRID])
def test_heat_apply_matches_dense_kernel_on_a_support(grid, t):
    # the circle is sized to the support: each case is its own dense matrix
    L, P = grid.axis.size, grid.points
    W = heat_kernel(P[:, None], P[None, :], t, grid.n) if grid.n == 1 else \
        heat_kernel(P[:, None, :], P[None, :, :], t, grid.n)
    rng = np.random.default_rng(41)
    rows = {"centre": slice(L // 2 - 5, L // 2 + 6), "left": slice(0, 8),
            "right": slice(L - 8, L), "point": slice(L // 3, L // 3 + 1), "zeros": slice(0, 0)}
    for where, row in rows.items():
        mask = np.zeros(grid.shape, dtype=bool)
        mask[(row,) * grid.n] = True
        values = np.where(mask.reshape(-1, 1), rng.normal(size=(grid.size, 2)), 0.0)
        fast = heat_apply(values.reshape(grid.shape + (2,)), grid.axis, t).reshape(grid.size, 2)
        if where == "zeros":
            assert np.array_equal(fast, np.zeros_like(values))
            continue
        dense = W @ values
        err = np.max(np.abs(fast - dense))
        if where in ("left", "right"):
            # the FFT's rounding is absolute: for t >= 0.1 an edge
            # support's output is far below the Gaussian bound (1e-20 at
            # t = 1), and the error reaches 7e-10 of its maximum at t = 1
            # in 1-D (9e-8 before the circle followed the support, at
            # t = 0.37)
            assert err <= 1e-13 * _gaussian_scale(grid, values, t), where
        else:
            assert err <= 1e-13 * np.max(np.abs(dense)), where


def _circle_lengths(call):
    """The lengths of the values' FFTs in call() (a spectrum's rfft has no
    explicit length), and its result."""
    lengths = []
    rfft = np.fft.rfft

    def recording(a, n=None, axis=-1, **kw):
        if n is not None:
            lengths.append(n)
        return rfft(a, n, axis, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft", recording)
        return lengths, call()


def test_heat_apply_narrow_on_one_axis_only():
    # five rows of the plane grid, every column: the rows' axis convolves
    # on 48 points, the columns' on 96 (2 * 41 - 1 = 81 before)
    grid = PLANE_GRID
    values = np.zeros(grid.shape + (1,))
    values[18:23] = np.random.default_rng(43).normal(size=(5, grid.shape[1], 1))
    lengths, fast = _circle_lengths(lambda: heat_apply(values, grid.axis, HEAT_TIMES[:3]))
    assert lengths == [48, 96]
    P = grid.points
    W = heat_kernel(P[:, None, :], P[None, :, :], HEAT_TIMES[:3, None, None], grid.n)
    dense = W @ values.reshape(grid.size, 1)
    assert np.max(np.abs(fast.reshape(dense.shape) - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_atoms_take_no_fft_and_a_dense_input_keeps_its_circle():
    # an atom's support is at most about 50 of the 1201 points, so every
    # short time of HEAT_TIMES takes the stencil, (2w + s) s <= 2e5 for
    # w <= 404 lags; a dense input convolves on 2560 points
    from hermlp.spaces import make_random_atom

    rng = np.random.default_rng(47)
    for kind in ("cancel", "local") * 8:
        w = HARDY_GRID.weights[:, None] * make_random_atom(rng, HARDY_GRID, kind).samples
        lengths, _ = _circle_lengths(lambda: heat_apply(w, HARDY_GRID.axis, HEAT_TIMES))
        assert lengths == []
    ones = np.ones((HARDY_GRID.size, 1))
    assert _circle_lengths(lambda: heat_apply(ones, HARDY_GRID.axis, HEAT_TIMES))[0] == [2560]


def test_lattice_mass_is_the_direct_lattice_sum():
    # theta(t) = h sqrt(c1) sum_k e^{-pi c1 (h k)^2}, summed directly, over
    # both of its routes (c1 h^2 below and above 1)
    for h in (0.02, 0.05, 0.15, 1.0):
        for t in np.geomspace(1e-9, 2.0, 40):
            _, _, c1 = kernels._mehler(t)
            k = np.arange(-20000, 20001)
            direct = h * math.sqrt(c1) * np.sum(np.exp(-math.pi * c1 * (h * k) ** 2))
            assert kernels._lattice_mass(h, t) == pytest.approx(direct, rel=1e-14)
    # exactly 1.0 wherever t >= h^2: the hardy and criterion 10 time grids
    for h in (0.02, 0.05, 0.15, 1.0):
        t = h * h * np.geomspace(1.0, 1e6, 200)
        assert np.all(kernels._lattice_mass(h, t) == 1.0)
    assert np.all(kernels._lattice_mass(0.02, np.geomspace(1e-3, 20.0, 32)) == 1.0)
    assert kernels._lattice_mass(0.02, 1e-6) == pytest.approx(0.02 / math.sqrt(4e-6 * math.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels._lattice_mass(0.02, 800.0) == 1.0  # c1 underflows to 0


@pytest.mark.parametrize("t", [0.37, HEAT_TIMES])
def test_heat_apply_result_is_not_the_cached_plan(t):
    values = np.random.default_rng(31).normal(size=(HARDY_GRID.size, 2))
    first = heat_apply(values, HARDY_GRID.axis, t)
    want = first.copy()
    first[...] = math.nan
    assert np.array_equal(heat_apply(values, HARDY_GRID.axis, t), want)


@pytest.mark.parametrize("where", [0, 2, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heat_apply_rejects_a_non_finite_axis(bad, where):
    # a NaN end point passed the uniformity check and gave NaN values
    axis = np.linspace(-1.0, 1.0, 5)
    axis[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="axis must be finite"):
            heat_apply(np.ones((5, 1)), axis, 1.0)


def test_lattice_plans_follow_spacing_offset_and_times():
    # same L, another spacing or offset, and time arrays of one length:
    # each pair gets its own plan, and each result is its own dense matrix
    L = 101
    axes = [np.linspace(-5.0, 5.0, L), np.linspace(-4.0, 4.0, L), np.linspace(-4.75, 5.25, L)]
    time_lists = [np.array([0.1, 1.0]), np.array([0.1, 2.0])]
    values = np.random.default_rng(37).normal(size=(L, 1))
    kernels._lattice_plan.cache_clear()
    for x in axes:
        for ts in time_lists:
            got = heat_apply(values, x, ts)
            dense = heat_kernel(x[:, None], x[None, :], ts[:, None, None]) @ values
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    info = kernels._lattice_plan.cache_info()
    assert (info.misses, info.hits) == (6, 0)


# ------------------------------------------- heat_apply's Mehler series rows
HARDY_TIMES = np.geomspace(1e-3, 20.0, 16)  # the nodes of TimeGrid(1e-3, 20, 16)


def _split(grid, times):
    """(series row indices, their orders K) of heat_apply at these times."""
    plan = kernels._lattice_plan(grid.axis.tobytes(), np.asarray(times, float).tobytes(), grid.n)
    return plan.series, [len(decay) - 1 for decay in plan.decays]


def test_the_hardy_times_split_between_the_routes():
    # the 6 longest of the 16 hardy times take the series, with these K;
    # 0.38 would need K = 83 > 64 and keeps the FFT
    assert _split(HARDY_GRID, HARDY_TIMES) == ([10, 11, 12, 13, 14, 15], [55, 35, 19, 10, 5, 2])
    assert HARDY_TIMES[10] == pytest.approx(0.737, abs=1e-3)
    assert kernels._series_order(HARDY_TIMES[9], HARDY_GRID.R, 1) is None
    # a time's route and order do not depend on the other times
    for i, t in enumerate(HARDY_TIMES):
        rows, orders = _split(HARDY_GRID, [t])
        assert rows == ([0] if i >= 10 else [])
        assert orders == ([[55, 35, 19, 10, 5, 2][i - 10]] if i >= 10 else [])
    # smaller lattices reach lower times, and n = 2 splits 1e-16 between its axes
    assert _split(PLANE_GRID, HARDY_TIMES) == (list(range(9, 16)), [52, 27, 14, 7, 3, 2, 1])


def test_hermite_functions_meet_indritz_bound():
    # |h_k(x)| <= pi^{-1/4}, the bound behind every series order
    x = np.linspace(-25.0, 25.0, 20001)
    table = basis._table(200, x)
    assert np.max(np.abs(table)) <= math.pi ** -0.25
    assert np.max(np.abs(table)) >= 0.99 * math.pi ** -0.25  # h_0(0) is the bound itself


@pytest.mark.parametrize("grid", [HARDY_GRID, PLANE_GRID])
def test_series_remainder_is_below_its_bound_at_each_order(grid):
    # the remainder kernel sum_{k > K} e^{-(2k+1)t} h_k(x) h_k(y), summed
    # to k = K + 200, against 1e-16 / n of the least Gaussian weight
    # c1^{1/2} e^{-B R^2/2} of the lattice; one order less misses the bound
    x, R, n = grid.axis, grid.R, grid.n
    table = basis._table(300, x)
    rows, orders = _split(grid, HARDY_TIMES)
    for t, K in zip(HARDY_TIMES[rows], orders):
        k = np.arange(K + 1, K + 201)
        tail = (table[k].T * np.exp(-(2.0 * k + 1.0) * t)) @ table[k]
        _, B, c1 = kernels._mehler(t)
        bound = 1e-16 / n * math.sqrt(c1) * math.exp(-0.5 * B * R * R)
        assert np.max(np.abs(tail)) <= bound, (t, K)
        # Indritz's bound on the same tail, and the rule's closed form of it
        indritz = math.exp(-(2 * K + 3) * t) / (math.sqrt(math.pi) * -math.expm1(-2.0 * t))
        assert indritz <= bound * (1 + 1e-12)
        ratio = math.sqrt(1.0 / math.tanh(t)) * math.exp(0.5 * B * R * R - (2 * K + 2) * t)
        assert ratio == pytest.approx(indritz / bound * 1e-16 / n, rel=1e-10)
        if K > 0:
            assert ratio * math.exp(2.0 * t) > 1e-16 / n


@pytest.mark.parametrize("grid, times", [(HARDY_GRID, [0.8, 2.0, 20.0]),
                                         (PLANE_GRID, [0.4, 3.0, 20.0])])
def test_series_rows_match_the_dense_kernel_at_the_centre_and_edges(grid, times):
    rows, _ = _split(grid, times)
    assert rows == [0, 1, 2]
    L, P = grid.axis.size, grid.points
    rng = np.random.default_rng(53)
    supports = {"centre": slice(L // 2 - 5, L // 2 + 6), "left": slice(0, 8),
                "right": slice(L - 8, L), "dense": slice(0, L)}
    for t in times:
        W = heat_kernel(P[:, None], P[None, :], t, grid.n) if grid.n == 1 else \
            heat_kernel(P[:, None, :], P[None, :, :], t, grid.n)
        for where, row in supports.items():
            mask = np.zeros(grid.shape, dtype=bool)
            mask[(row,) * grid.n] = True
            values = np.where(mask.reshape(-1, 1), rng.normal(size=(grid.size, 3)), 0.0)
            fast = heat_apply(values.reshape(grid.shape + (3,)), grid.axis, t)
            err = np.max(np.abs(fast.reshape(grid.size, 3) - W @ values))
            assert err <= 1e-13 * _gaussian_scale(grid, values, t), (t, where)


def test_series_rows_take_no_fft():
    values = np.random.default_rng(59).normal(size=(HARDY_GRID.size, 1))
    lengths, _ = _circle_lengths(lambda: heat_apply(values, HARDY_GRID.axis, [20.0, 1.0]))
    assert lengths == []
    # the FFT rows of a mixed batch keep their circle
    lengths, _ = _circle_lengths(lambda: heat_apply(values, HARDY_GRID.axis, HARDY_TIMES))
    assert lengths == [2560]


def test_axis_checks_run_once_per_plan_and_keep_their_order():
    axis = np.linspace(-1.0, 1.0, 7)
    bent = axis.copy()
    bent[3] += 0.01
    nan_values = np.full((7, 1), math.nan)
    # an axis fault comes before a values fault, a values fault before a
    # time too small for the closed form, as before the checks were cached
    with pytest.raises(ValueError, match="uniform"):
        heat_apply(nan_values, bent, 1.0)
    with pytest.raises(ValueError, match="values must be finite"):
        heat_apply(nan_values, axis, 1e-320)
    with pytest.raises(ValueError, match="too small"):
        heat_apply(np.ones((7, 1)), axis, 1e-320)
    # no plan is kept for a bad axis
    kernels._lattice_plan.cache_clear()
    for bad in (bent, np.where(axis > 0.5, math.inf, axis)):
        with pytest.raises(ValueError):
            heat_apply(np.ones((7, 1)), bad, 1.0)
    assert kernels._lattice_plan.cache_info().currsize == 0
    # a good axis is checked once per plan, however many calls use it
    kernels._lattice_plan.cache_clear()
    for t in (0.1, 1.0, [0.5, 2.0]) * 2:
        heat_apply(np.ones((7, 1)), axis, t)
    info = kernels._lattice_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)


# ------------------------------------------- heat_apply's Gaussian stencil rows
HARDY_SHORT = HARDY_TIMES[:10]  # t = 1e-3 ... 0.37: the hardy times short of the series


def test_hardy_stencils_reach_the_last_lag_above_1e_17():
    plan = kernels._lattice_plan(HARDY_GRID.axis.tobytes(), HARDY_TIMES.tobytes(), 1)
    assert plan.short.tolist() == list(range(10))
    assert plan.widths.tolist() == [19, 27, 38, 53, 74, 103, 143, 200, 281, 404]
    h = HARDY_GRID.h
    for t, w, stencil in zip(HARDY_SHORT, plan.widths, plan.stencils):
        _, _, c1 = kernels._mehler(t)
        assert stencil.shape == (2 * w + 1,)
        assert np.array_equal(stencil, stencil[::-1])
        assert stencil[w] == 1.0
        assert stencil[0] >= 1e-17 > math.exp(-math.pi * c1 * (h * (w + 1)) ** 2)
    # about 21 KB for the 10 stencils
    assert sum(s.nbytes for s in plan.stencils) == 8 * (2 * sum(plan.widths.tolist()) + 10)


@pytest.mark.parametrize("size", [1, 8, 50])
@pytest.mark.parametrize("where", ["left", "centre", "right"])
def test_stencil_rows_match_the_dense_kernel(size, where):
    grid, L, P = HARDY_GRID, HARDY_GRID.axis.size, HARDY_GRID.points
    lo = {"left": 0, "centre": L // 2 - size // 2, "right": L - size}[where]
    values = np.zeros((L, 2))
    values[lo:lo + size] = np.random.default_rng(61).normal(size=(size, 2))
    lengths, fast = _circle_lengths(lambda: heat_apply(values, grid.axis, HARDY_SHORT))
    assert lengths == []  # every one of these times took the stencil
    for t, row in zip(HARDY_SHORT, fast):
        err = np.max(np.abs(row - heat_kernel(P[:, None], P[None, :], t) @ values))
        assert err <= 1e-13 * _gaussian_scale(grid, values, t), (t, where)


@pytest.mark.parametrize("axis", [np.array([0.3]), np.array([-0.2, 0.5]),
                                  np.linspace(4.0, -4.0, 161)], ids=["L1", "L2", "descending"])
def test_short_lattices_and_descending_axes_keep_their_values(axis):
    # one point (step 0: no lag beyond 0), two points, and a negative step
    values = np.random.default_rng(67).normal(size=(axis.size, 2))
    times = np.array([1e-3, 0.05, 0.37, 2.0, 20.0])
    got = heat_apply(values, axis, times)
    dense = heat_kernel(axis[:, None], axis[None, :], times[:, None, None]) @ values
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    if axis.size > 2:  # the same lattice read the other way round
        ascending = heat_apply(values[::-1], axis[::-1], times)[:, ::-1]
        assert np.max(np.abs(got - ascending)) <= 1e-13 * np.max(np.abs(dense))


def test_a_stencil_row_keeps_its_bits_beside_fft_and_series_rows():
    # 200 points of support: the 9 shortest hardy times take the stencil,
    # (2w + s) s <= 2e5, t = 0.37 (w = 404) the FFT and the 6 longest the
    # series; each row is its scalar call bit for bit
    values = np.zeros((HARDY_GRID.size, 1))
    values[500:700] = np.random.default_rng(71).normal(size=(200, 1))
    plan = kernels._lattice_plan(HARDY_GRID.axis.tobytes(), HARDY_TIMES.tobytes(), 1)
    near = (2 * plan.widths + 200) * 200 <= kernels._STENCIL_WORK
    assert near.tolist() == [True] * 9 + [False]
    lengths, batch = _circle_lengths(lambda: heat_apply(values, HARDY_GRID.axis, HARDY_TIMES))
    assert lengths == [1536]
    for t, row in zip(HARDY_TIMES, batch):
        assert np.array_equal(heat_apply(values, HARDY_GRID.axis, t), row), t
    # a dense input sends every short time to the FFT, whatever its batch
    ones = np.ones((HARDY_GRID.size, 1))
    assert np.array_equal(heat_apply(ones, HARDY_GRID.axis, HARDY_TIMES)[9],
                          heat_apply(ones, HARDY_GRID.axis, HARDY_TIMES[9]))


# the 80 nodes of a t-free heat bank, ln s = ln 1e-12 + 0.4 i: on the hardy
# lattice the 37 below about 2.6e-6 have stencils of width 0, [1.0]
BANK_TIMES = np.exp(math.log(1e-12) + 0.4 * np.arange(80))


def test_zero_width_stencil_rows_keep_the_convolution_bytes():
    # the rows of width 0 are one product, (v + 0.0) times the output
    # scaling; np.convolve(v, [1.0]) sums from 0.0, so it turns -0.0 into
    # +0.0, and the product must too.  Each row is the same called alone,
    # in one call with every width, and as the convolution it stands for
    lo, hi = 590, 610
    values = np.zeros((HARDY_GRID.size, 1))
    values[lo:hi, 0] = np.random.default_rng(79).normal(size=hi - lo)
    values[595, 0], values[600, 0] = -0.0, 0.0
    plan = kernels._lattice_plan(HARDY_GRID.axis.tobytes(), BANK_TIMES.tobytes(), 1)
    zero = [i for i, w in zip(plan.short_rows, plan.width_list) if w == 0]
    assert zero == list(range(37)) and max(plan.width_list) > 0
    batch = heat_apply(values, HARDY_GRID.axis, BANK_TIMES)
    for i in zero:
        alone = heat_apply(values, HARDY_GRID.axis, BANK_TIMES[i])
        single = kernels._lattice_plan(HARDY_GRID.axis.tobytes(), BANK_TIMES[i:i + 1].tobytes(), 1)
        assert single.stencils[0].tolist() == [1.0]
        want = np.zeros_like(values)
        v = values[lo:hi, 0] * single.edge[0, lo:hi]
        want[lo:hi, 0] = np.convolve(v, single.stencils[0]) * single.weights[0, lo:hi]
        assert alone.tobytes() == want.tobytes() == batch[i].tobytes(), BANK_TIMES[i]
        # the -0.0 comes out +0.0, where the bare product would keep its sign
        assert not np.signbit(alone[595, 0]) and np.signbit(v[595 - lo] * single.weights[0, 595])
        assert not np.signbit(alone[600, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.floats(0.005, 0.3), st.floats(-0.5, 0.5), st.data(),
       st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=4))
def test_heat_apply_matches_the_dense_kernel_on_random_axes(L, h, offset, data, times):
    # random uniform axes, supports and short times: stencil, FFT and
    # series rows alike are the dense matrix within 1e-13 of the bound
    axis = offset + h * (np.arange(L) - (L - 1) / 2)
    lo = data.draw(st.integers(0, L - 1))
    hi = data.draw(st.integers(lo + 1, L))
    values = np.zeros((L, 1))
    values[lo:hi, 0] = np.random.default_rng(lo * 401 + hi).normal(size=hi - lo)
    got = heat_apply(values, axis, np.array(times))
    for t, row in zip(times, got):
        dense = heat_kernel(axis[:, None], axis[None, :], t) @ values
        _, B, c1 = kernels._mehler(t)
        bound = math.sqrt(c1) * np.sum(np.exp(-0.5 * B * axis[:, None] ** 2) * np.abs(values))
        assert np.max(np.abs(row - dense)) <= 1e-13 * bound, t


# ---------------------------------------------------- heat_apply's float range
@pytest.mark.parametrize("times, support", [
    (HARDY_SHORT, slice(580, 620)),   # stencil rows
    (HARDY_SHORT, slice(0, 1201)),    # FFT rows
    (HARDY_TIMES[10:], slice(0, 1201)),  # series rows
])
def test_heat_apply_scales_by_powers_of_two_bit_for_bit(times, support):
    values = np.zeros((HARDY_GRID.size, 2))
    values[support] = np.random.default_rng(73).normal(size=values[support].shape)
    plain = heat_apply(values, HARDY_GRID.axis, times)
    assert np.array_equal(heat_apply(2.0 ** 1000 * values, HARDY_GRID.axis, times),
                          2.0 ** 1000 * plain)
    assert np.array_equal(heat_apply(2.0 ** -1000 * values, HARDY_GRID.axis, times),
                          2.0 ** -1000 * plain)


def test_heat_apply_is_finite_up_to_the_float_range():
    # the FFT's spectrum product overflowed from about 1e304, the series
    # from 1e307; the outputs are about 50 times the values here
    axis, ones = HARDY_GRID.axis, np.ones((HARDY_GRID.size, 1))
    times = np.array([0.01, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = heat_apply(ones, axis, times)
        for c in (1e304, 1e305, 3e306):
            big = heat_apply(np.full((HARDY_GRID.size, 1), c), axis, times)
            assert np.all(np.isfinite(big))
            assert np.max(np.abs(big - c * unit)) <= 1e-15 * c * np.max(unit)
        # outputs beyond the float range, from the FFT and from the series
        for t in (0.01, 2.0):
            with pytest.raises(ValueError, match="float range"):
                heat_apply(np.full((HARDY_GRID.size, 1), 1.7e308), axis, t)


# ------------------------------------------------- times on one shared grid
MULTI_TIMES = np.geomspace(1e-3, 20.0, 32)
REFERENCE_RULE = SubordinationRule(Q=1024)


def _pair_points(n):
    if n == 1:
        return np.linspace(-3.0, 3.0, 9)[:, None], np.linspace(-2.5, 2.5, 9)[None, :]
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-2.5, 2.5, size=(2, 8, 2))
    return x[:, None, :], y[None, :, :]


def _subordinated(name, n, alpha):
    """kernel(t, rule) for one of the four subordinated kernels."""
    x, y = _pair_points(n)
    op = ShiftedOperator(alpha, n)
    if name == "poisson":
        return lambda t, rule=None: poisson_kernel(x, y, t, op, rule)
    if name == "g":
        return lambda t, rule=None: g_kernel(x, y, t, op, rule)
    if name == "ladder":
        return lambda t, rule=None: ladder_kernel(x, y, t, n, -1, n, rule)
    if name == "raising":
        return lambda t, rule=None: ladder_kernel(x, y, t, n, +1, n, rule)
    return lambda t, rule=None: g_of_one(x[:, 0], t, op, rule)


# The ladder kernels have no shift; "ladder" is the lowering sign.  The
# raising kernel nearly cancels at large t (it annihilates the ground
# mode), but its node factors do not, so it is as accurate as the rest:
# up to 8.0e-14 of its maximum against Q = 1024 here, where the Q = 1024
# and Q = 4096 references differ by up to 4.0e-14 at t >= 15.
MULTI_CASES = [(name, n, alpha) for name in ("poisson", "g", "g_of_one")
               for n in (1, 2) for alpha in (0.0, 1.5)]
MULTI_CASES += [(name, n, 0.0) for name in ("ladder", "raising") for n in (1, 2)]


@pytest.mark.parametrize("name,n,alpha", MULTI_CASES)
def test_shared_grid_matches_fine_per_time_rule(name, n, alpha):
    # the shared grid against a per-t Q = 1024 rule; measured 6e-14 to
    # 9e-14 of max|K_t|, where the per-t Q = 64 rule misses by up to 1e-9
    kernel = _subordinated(name, n, alpha)
    multi = kernel(MULTI_TIMES)
    ref = np.stack([kernel(float(t), REFERENCE_RULE) for t in MULTI_TIMES])
    assert multi.shape == ref.shape
    rows = len(MULTI_TIMES)
    err = np.max(np.abs(multi - ref).reshape(rows, -1), axis=1)
    assert np.all(err <= 1e-12 * np.max(np.abs(ref).reshape(rows, -1), axis=1))


@pytest.mark.parametrize("name,n,alpha", MULTI_CASES)
def test_time_axis_shapes(name, n, alpha):
    kernel = _subordinated(name, n, alpha)
    size = 9 if n == 1 else 8
    point_shape = (size,) if name == "g_of_one" else (size, size)
    assert np.shape(kernel(0.7)) == point_shape
    assert kernel([0.7]).shape == (1,) + point_shape
    assert kernel(np.array([0.3, 2.0, 0.7])).shape == (3,) + point_shape


class _NodeCounter:
    """Counts the nodes at which the t-free blocks are evaluated: every
    block calls _mehler_block(s, d2, s2, n, out) or
    _heat_one_dt_rescaled(r2, s, op, out) with the nodes s on the leading
    axis and `out` its strip of the chunk buffer."""

    def __init__(self, monkeypatch):
        import hermlp.kernels as kernels

        self.nodes = 0
        for name, at in (("_mehler_block", 0), ("_heat_one_dt_rescaled", 1)):
            def counted(*args, _inner=getattr(kernels, name), _at=at):
                self.nodes += np.shape(args[_at])[0]
                return _inner(*args)

            monkeypatch.setattr(kernels, name, counted)


@pytest.mark.parametrize("times,expected", [
    ([0.5], 64),
    ([1e-3, 40.0], 128),            # a shared grid would need 512 nodes
    (list(np.geomspace(0.1, 2.0, 6)), 113),   # the envelope suite's times
    (list(MULTI_TIMES), 392),
])
@pytest.mark.parametrize("name", ["poisson", "g", "ladder", "g_of_one"])
def test_node_count_at_most_times_by_q(monkeypatch, name, times, expected):
    kernel = _subordinated(name, 1, 0.0)
    counter = _NodeCounter(monkeypatch)
    kernel(np.array(times))
    assert counter.nodes <= len(times) * 64
    assert counter.nodes == expected


class _PairCounter:
    """Counts the `_distinct` calls on point pairs (two invariants)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = kernels._distinct

        def counted(*keys):
            self.calls += len(keys) == 2
            return inner(*keys)

        monkeypatch.setattr(kernels, "_distinct", counted)


ENVELOPE_KINDS = ("heat", "poisson", "g", "gH", "ladder", "gradient")


@pytest.mark.parametrize("suite,nodes", [
    # five kinds on one 113-node grid: gH's 16 times span the same window
    ("envelopes", 113),
    # the shifts 0 and 2 at times 0.1, 1 and 5 had grids of 146 and 160
    ("kernel-vs-spectral", 173),
])
def test_a_verify_family_evaluates_its_blocks_once(monkeypatch, suite, nodes):
    from hermlp import verify

    counter, pairs = _NodeCounter(monkeypatch), _PairCounter(monkeypatch)
    if suite == "envelopes":
        verify._envelope_reports(ENVELOPE_KINDS, ENVELOPE_XS, ENVELOPE_TS)
    else:
        verify.check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0])
    assert counter.nodes == nodes
    assert pairs.calls == 1


def _envelope_members():
    from hermlp.gamma import TimeGrid

    nodes = TimeGrid(0.1, 2.0, 16).nodes
    ts = ENVELOPE_TS
    return [
        (("poisson", ts, L), lambda X, Y: poisson_kernel(X, Y, ts, L)),
        (("g", ts, L), lambda X, Y: g_kernel(X, Y, ts, L)),
        (("g", nodes, L), lambda X, Y: g_kernel(X, Y, nodes, L)),
        ((("ladder", 1, +1), ts, L), lambda X, Y: ladder_kernel(X, Y, ts, 1, +1)),
        (("g_dx", ts, L), lambda X, Y: kernels._pair_kernel(X, Y, ("g_dx", ts, L))),
    ]


def test_family_members_equal_their_one_member_calls():
    # the envelope family's members share the one grid of each member's
    # own call, and each member's rows get a matmul of their own, so the
    # family gives the one-member kernels bit for bit
    X, Y = ENVELOPE_XS[:, None], ENVELOPE_XS[None, :]
    members, calls = zip(*_envelope_members())
    family = list(kernels._pair_family(X, Y, list(members)))
    assert len(family) == len(calls)
    for got, call in zip(family, calls):
        assert np.array_equal(got, call(X, Y))


def test_family_members_on_a_finer_union_grid_match_their_calls():
    # shifts 0 and 2 (decays 1 and 3): the union grid of 173 nodes is finer
    # than each member's own (146 and 160 nodes), which moves the kernels
    # by rounding only (measured up to 6.2e-15 of the maximum)
    X, Y = np.linspace(-4.0, 4.0, 5)[:, None], np.linspace(-6.0, 6.0, 121)[None, :]
    times = np.array([0.1, 1.0, 5.0])
    ops = [ShiftedOperator(0.0, 1), ShiftedOperator(2.0, 1)]
    members = [("poisson", times, op) for op in ops]
    members.append((("ladder", 1, -1), times[::-1], ops[0]))
    calls = [poisson_kernel(X, Y, times, op) for op in ops]
    calls.append(ladder_kernel(X, Y, times[::-1], 1, -1))
    for got, want in zip(kernels._pair_family(X, Y, members), calls):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_family_checks_every_member_before_any_block(monkeypatch):
    counter = _NodeCounter(monkeypatch)
    members = [("poisson", 0.5, L), ("g", [0.5, np.nan], L)]
    with pytest.raises(ValueError, match="finite"):
        next(kernels._pair_family(0.0, 0.0, members))
    assert counter.nodes == 0


def test_single_time_grid_is_the_per_time_rule():
    rule = SubordinationRule()
    for t in (1e-3, 0.3, 1.0, 40.0):
        (s, w), = list(rule._node_blocks(np.array([t]), [2.5]))
        s_ref, w_ref = rule.s_nodes(t, 2.5)
        assert np.array_equal(s, s_ref) and np.array_equal(w, w_ref)
        # the nodes are np.linspace's in log s, bit for bit
        assert np.array_equal(s, np.exp(np.linspace(*rule._window(t, 2.5), 64)))


def test_per_time_fallback_matches_scalar_calls():
    # {1e-3, 40} runs on the two per-t grids, so each row is its scalar
    # call up to the summation order of the matmul (measured 6 ulp of max)
    kernel = _subordinated("g", 1, 0.0)
    both = kernel(np.array([1e-3, 40.0]))
    for row, t in zip(both, (1e-3, 40.0)):
        single = kernel(t)
        assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


TIME_POOL = [1e-3, 0.02, 0.1, 0.5, 1.0, 3.0, 20.0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(TIME_POOL) | st.floats(1e-3, 50.0), min_size=1, max_size=8),
       st.sampled_from(["poisson", "g", "ladder", "g_of_one"]))
def test_time_order_and_repeats_do_not_change_values(times, name):
    kernel = _subordinated(name, 1, 0.0)
    distinct = np.unique(times)
    got = kernel(np.array(times))
    want = kernel(distinct)[np.searchsorted(distinct, times)]
    assert np.array_equal(got, want)
    # C order, as a caller's BLAS product rounds by the layout (the gH
    # envelope's tensordot over the times)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2])
def test_pair_kernels_of_no_points_are_empty(n):
    none = np.zeros((0,) if n == 1 else (0, n))
    op = ShiftedOperator(0.5, n)
    assert poisson_kernel(none, none, 1.0, op).shape == (0,)
    assert g_kernel(none, none, [0.5, 2.0], op).shape == (2, 0)
    assert ladder_kernel(none, none, [0.5, 2.0, 0.5], 1, +1, n).shape == (3, 0)
    # the closed form at 1 and its subordination: each raised numpy's
    # "zero-size array to reduction operation minimum"
    assert g_of_one(none, 1.0, op).shape == (0,)
    assert g_of_one(none, [0.5, 2.0], op).shape == (2, 0)
    assert heat_one_dt(none, 1.0, op).shape == (0,)


@pytest.mark.parametrize("call", [
    lambda: heat_kernel(0.0, 0.0, math.nan),
    lambda: heat_kernel_one(0.0, math.inf),
    lambda: poisson_kernel(0.0, 0.0, math.nan, L),
    lambda: g_kernel(0.0, 0.0, math.inf, L),
    lambda: ladder_kernel(0.0, 0.0, [1.0, math.nan], 1, +1),
    lambda: g_of_one(0.0, -math.inf, L),
])
def test_non_finite_time_rejected(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("call, t, n", [
    (lambda: heat_kernel(0.0, 0.0, 1e-310), "1e-310", 1),
    (lambda: heat_kernel(1.0, 0.0, [1e-3, 1e-310]), "1e-310", 1),
    (lambda: heat_kernel([0, 0, 0], [0, 0, 0], 1e-300, 3), "1e-300", 3),
    (lambda: heat_apply(np.ones((9, 1)), SpatialGrid(2.0, 0.5).axis, 1e-310), "1e-310", 1),
    (lambda: heat_apply(np.zeros((9, 1)), SpatialGrid(2.0, 0.5).axis, 1e-310), "1e-310", 1),
    (lambda: heat_apply(np.ones((5, 5, 5, 1)), SpatialGrid(1.0, 0.5).axis, 1e-300), "1e-300", 3),
])
def test_heat_closed_forms_reject_times_too_small_for_them(call, t, n):
    # coth t, c1 or c1^{n/2} overflowed: NaN, or inf with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"t={t} .* n={n} "):
            call()


def test_heat_closed_forms_keep_the_smallest_times_they_take():
    # c1^{1/2} is finite at t = 1e-308, where the kernel's diagonal reads
    # the value it had before the check; the lattice spectrum's overflow to
    # -inf used to warn there
    axis = SpatialGrid(2.0, 0.5).axis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagonal = heat_kernel(0.0, 0.0, 1e-308)
        applied = heat_apply(np.ones((9, 1)), axis, 1e-308)
    assert diagonal == 2.8209479177387816e+153
    assert np.array_equal(applied[:, 0], heat_kernel(axis, axis, 1e-308))


# every kernel entry point, called as f(x, y) with n-point rows; the
# one-point kernels take x + y, so a bad value in either argument reaches them
POINT_CALLS = {
    "heat_kernel": lambda x, y, n: heat_kernel(x, y, 0.5, n),
    "heat_kernel_one": lambda x, y, n: heat_kernel_one(x + y, 0.5, n),
    "heat_one_dt": lambda x, y, n: heat_one_dt(x + y, 0.5, ShiftedOperator(0.0, n)),
    "poisson_kernel": lambda x, y, n: poisson_kernel(x, y, 0.5, ShiftedOperator(1.0, n)),
    "g_kernel": lambda x, y, n: g_kernel(x, y, [0.5, 2.0], ShiftedOperator(0.0, n)),
    "ladder_kernel": lambda x, y, n: ladder_kernel(x, y, 0.5, n, -1, n),
    "g_of_one": lambda x, y, n: g_of_one(x + y, 0.5, ShiftedOperator(0.0, n)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(POINT_CALLS)), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.integers(1, 2), st.integers(0, 3), st.integers(0, 1), st.booleans())
def test_non_finite_points_rejected(name, bad, n, row, coord, in_y):
    # they returned NaN (or 0 for an infinite point) without an error
    x = np.linspace(-1.0, 1.0, 4 * n).reshape(4, n)
    y = np.zeros((4, n))
    (y if in_y else x)[row, coord % n] = bad
    if n == 1:
        x, y = x[:, 0], y[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="points must be finite"):
            POINT_CALLS[name](x, y, n)


def test_subordinated_times_must_be_a_nonempty_list():
    for bad in (np.ones((2, 2)), [[1.0]], []):
        for call in (lambda t: poisson_kernel(0.0, 0.0, t, L),
                     lambda t: ladder_kernel(0.0, 0.0, t, 1, -1),
                     lambda t: g_of_one(0.0, t, L)):
            with pytest.raises(ValueError, match="times"):
                call(bad)


# ----------------------------------------------- shifts below zero (alpha < 0)
def _unscaled_form(name, x, y, op):
    """The kernel with weight e^{-alpha s} and block W_s (for g_of_one the
    time derivative of e^{-alpha s} W_s(1) from heat_kernel_one): the
    direct factorization, which overflows for negative shifts at large s.
    Its invariant is the point's flat index, so every block is the closed
    form at the points themselves, with no pair shared."""
    from hermlp import kernels

    pts = [x] if name == "g_of_one" else np.broadcast_arrays(x, y)
    shape = pts[0].shape[:pts[0].ndim - (op.n > 1)]
    flat = [p.reshape(-1, op.n) if op.n > 1 else p.ravel() for p in pts]
    keys = (np.arange(math.prod(shape), dtype=float).reshape(shape),)
    # the family's weight carries e^{-(alpha+n)s}, which each factor undoes
    # down to the e^{-alpha s} of the direct factorization
    if name == "g_of_one":
        def block(s, k):
            x = flat[0][k.astype(int)]
            r2 = x * x if op.n == 1 else np.sum(x * x, axis=-1)
            e4, m4 = np.exp(-4.0 * s), -np.expm1(-4.0 * s)
            bracket = op.alpha + op.n * m4 / (1 + e4) + r2 * 4.0 * e4 / (1 + e4) ** 2
            return -np.exp(-op.alpha * s) * bracket * heat_kernel_one(x, s, op.n)

        def factor(s, t):  # the block already carries e^{-alpha s}
            return 2.0 * s * np.exp((op.n + op.alpha) * s)
    else:
        def block(s, k):
            return heat_kernel(flat[0][k.astype(int)], flat[1][k.astype(int)], s, op.n)

        def factor(s, t):
            g = 1.0 if name == "poisson" else 1.0 - t * t / (2.0 * s)
            return g * np.exp(op.n * s)

    def filling(s, k, out):  # the family's one block contract: write the strip
        out[...] = block(s, k)

    return lambda t: next(kernels._subordinate_family(
        [(t, op.n + op.alpha, factor, None)], None, filling, keys))


NEGATIVE = ShiftedOperator(-0.9, 1)
SUBORDINATED = {
    "poisson": lambda t, op: poisson_kernel(0.0, 0.0, t, op),
    "g": lambda t, op: g_kernel(0.0, 0.0, t, op),
    "g_of_one": lambda t, op: g_of_one(0.3, t, op),
}


@pytest.mark.parametrize("name", sorted(SUBORDINATED))
def test_negative_shift_stays_finite_at_large_times(name):
    kernel = SUBORDINATED[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = kernel([5.0, 200.0], NEGATIVE)
        single = kernel(5.0, NEGATIVE)
        far = kernel(120.0, NEGATIVE)
    assert np.all(np.isfinite(both)) and np.isfinite(far)
    # the pair shares one grid, so t = 5 agrees with its own grid to rounding
    assert both[0] == pytest.approx(single, rel=1e-13)
    if name == "poisson":
        assert both[1] > 0 and far > 0
        assert single == pytest.approx(0.11608819383429805, rel=1e-14)
    else:
        # t d/dt of a decreasing function of t
        assert both[1] < 0 and far < 0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.5, -0.5])
@pytest.mark.parametrize("name", ["poisson", "g", "g_of_one"])
def test_rescaled_blocks_move_values_by_rounding_only(name, n, alpha):
    # where the e^{-alpha s} weight cannot overflow, carrying e^{-(alpha+n)s}
    # in the weight and e^{ns} W_s in the block only reorders roundings
    # (measured up to 3.2e-16 of the maximum here)
    x, y = _pair_points(n)
    op = ShiftedOperator(alpha, n)
    kernel = _subordinated(name, n, alpha)
    want = _unscaled_form(name, x[:, 0] if name == "g_of_one" else x, y, op)(MULTI_TIMES[::4])
    got = kernel(MULTI_TIMES[::4])
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_kernel_time_array_is_the_stacked_scalar_calls(n):
    # the Mehler prefactors c^{n/2} round the same way alone and in a batch,
    # for the kernel and for W_t(1) and its time derivative
    ts = np.geomspace(1e-3, 20.0, 1000)
    x = 0.3 if n == 1 else np.full(n, 0.3)
    y = -0.7 if n == 1 else np.linspace(-0.7, 0.4, n)
    op = ShiftedOperator(0.5, n)
    for kernel in (lambda t: heat_kernel(x, y, t, n), lambda t: heat_kernel_one(x, t, n),
                   lambda t: heat_one_dt(x, t, op)):
        batch = kernel(ts)
        assert batch.shape == ts.shape
        stacked = np.array([kernel(t) for t in ts])
        assert np.array_equal(batch, stacked)


@pytest.mark.parametrize("t, bound", [(5.0, 1e-12), (20.0, 1e-10)])
def test_raising_ladder_kernel_large_time_accuracy_as_documented(t, bound):
    # ladder_kernel's docstring: 1.2e-13 (t = 5) and 7.4e-15 (t = 20) of the
    # maximum against a Q = 4096 rule on the 9 x 9 lattice of [-2, 2]^2;
    # before the cancellation-free node factors, 3.0e-11 at t = 20
    x = np.linspace(-2.0, 2.0, 9)
    X, Y = np.meshgrid(x, x, indexing="ij")
    ref = ladder_kernel(X, Y, t, 1, +1, 1, SubordinationRule(4096))
    got = ladder_kernel(X, Y, t, 1, +1, 1)
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


# ------------------------------------------------ one time validator
_AXIS = np.linspace(-1.0, 1.0, 11)
TIME_CALLS = {
    "heat_kernel": lambda t: heat_kernel(0.3, -0.2, t),
    "heat_kernel_one": lambda t: heat_kernel_one(0.3, t),
    "heat_one_dt": lambda t: heat_one_dt(0.3, t, L),
    # the envelope check hands its times to the closed-form kernels
    "kernel_bound_ratio": lambda t: kernel_bound_ratio("heat", _AXIS, t),
    "heat_apply": lambda t: heat_apply(np.ones((_AXIS.size, 1)), _AXIS, t),
    "poisson_kernel": lambda t: poisson_kernel(0.3, -0.2, t, L2),
    "g_kernel": lambda t: g_kernel(0.3, -0.2, t, L),
    "ladder_kernel": lambda t: ladder_kernel(0.3, -0.2, t, 1, +1),
    "g_of_one": lambda t: g_of_one(0.3, t, L),
}
# every entry point rejects a bad time; the closed forms broadcast t
# against the points, so only the other five reject 2-D and empty arrays
BAD_TIMES = [(name, [1.0, bad]) for name in TIME_CALLS
             for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
BAD_TIMES += [(name, bad) for name in ("heat_apply", "poisson_kernel", "g_kernel",
                                       "ladder_kernel", "g_of_one")
              for bad in (np.ones((2, 2)), np.array([]))]


@pytest.mark.parametrize("name, bad", BAD_TIMES)
def test_every_time_entry_point_rejects_bad_times(name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time"):
            TIME_CALLS[name](bad)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [+1, -1])
def test_ladder_block_is_the_differentiated_heat_kernel(n, sign):
    # the pair block reuses its own Mehler coefficients instead of calling
    # heat_kernel, and its Gaussian has the same bits as heat_kernel's;
    # with the node factors of _ladder_coefficients and the weight's
    # e^{-ns} it is (d/dx_j + sign x_j) W_s up to the rounding of the
    # direct form sign x_j - A u/2 - B v/2 (measured up to 3.3 ulp of its
    # terms), except where the block's exponent is below log(tiny): there
    # the block is 0 and W_s is subnormal
    rng = np.random.default_rng(n)
    x = rng.uniform(-2.0, 2.0, size=(5, 1, n))
    y = rng.uniform(-2.0, 2.0, size=(1, 4, n))
    if n == 1:
        x, y = x[..., 0], y[..., 0]
    s = np.geomspace(1e-3, 60.0, 200).reshape(-1, 1, 1)
    A, B, _ = kernels._mehler(s)
    d2, s2 = kernels._pair_keys(x, y, n)
    arg = -0.25 * (A * d2 + B * s2)
    gauss = np.where(arg >= kernels._LOG_TINY, np.exp(arg), 0.0)
    block = kernels._mehler_block(s, d2, s2, n)
    assert np.array_equal(block, (math.pi * -np.expm1(-4.0 * s)) ** (-n / 2.0) * gauss)
    W = heat_kernel(x, y, s, n)
    for j in range(1, n + 1):
        xj, yj = (x, y) if n == 1 else (x[..., j - 1], y[..., j - 1])
        u, v = xj - yj, xj + yj
        a, b = kernels._ladder_coefficients(s, sign)
        got = (a * u + b * v) * (np.exp(-n * s) * block)
        want = (sign * xj - 0.5 * A * u - 0.5 * B * v) * W
        scale = (np.abs(xj) + 0.5 * A * np.abs(u) + 0.5 * B * np.abs(v)) * W
        kept = arg >= kernels._LOG_TINY
        assert np.all(np.abs(got - want)[kept] <= 6 * np.finfo(float).eps * scale[kept])
        assert np.all(got[~kept] == 0) and np.all(np.abs(want[~kept]) < 1e-300)


def test_ladder_coefficients_are_sign_minus_coth_and_tanh():
    # (sign - coth s)/2 and (sign - tanh s)/2 without cancellation, against
    # 100-digit values: measured up to 1.2 ulp
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 100
    s = np.geomspace(1e-3, 60.0, 400)
    for sign in (+1, -1):
        a, b = kernels._ladder_coefficients(s, sign)
        for got, f in ((a, mpmath.coth), (b, mpmath.tanh)):
            want = np.array([float((sign - f(mpmath.mpf(si))) / 2) for si in s])
            assert np.all(np.abs(got - want) <= 3 * np.finfo(float).eps * np.abs(want))


ENVELOPE_XS = np.linspace(-4.0, 4.0, 65)
ENVELOPE_TS = np.geomspace(0.1, 2.0, 6)
ENVELOPE_KERNELS = {
    "poisson": lambda x, y, t: poisson_kernel(x, y, t, L),
    "g": lambda x, y, t: g_kernel(x, y, t, L2),
    "g_dx": lambda x, y, t: kernels._pair_kernel(x, y, ("g_dx", t, L)),
    "raising": lambda x, y, t: ladder_kernel(x, y, t, 1, +1),
    "lowering": lambda x, y, t: ladder_kernel(x, y, t, 1, -1),
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_KERNELS))
def test_pair_blocks_match_entry_by_entry_calls(name):
    # the envelope lattice has 1089 distinct (|x-y|^2, |x+y|^2) pairs in
    # its 4225 points; evaluating each pair once and scattering the sums
    # back agrees with one call per point
    kernel = ENVELOPE_KERNELS[name]
    X, Y = ENVELOPE_XS[:, None], ENVELOPE_XS[None, :]
    batch = kernel(X, Y, ENVELOPE_TS)
    single = np.array([[kernel(x, y, ENVELOPE_TS) for y in ENVELOPE_XS] for x in ENVELOPE_XS])
    single = np.moveaxis(single, -1, 0)
    assert batch.shape == single.shape == (6, 65, 65)
    assert np.max(np.abs(batch - single)) <= 2e-15 * np.max(np.abs(single))


def test_g_of_one_blocks_match_entry_by_entry_calls():
    # one invariant, |x|^2: the 65 points have 33 distinct values
    batch = g_of_one(ENVELOPE_XS, ENVELOPE_TS, L2)
    single = np.stack([g_of_one(x, ENVELOPE_TS, L2) for x in ENVELOPE_XS], axis=1)
    assert np.max(np.abs(batch - single)) <= 2e-15 * np.max(np.abs(single))


def test_g_kernel_dx_matches_central_difference():
    # the analytic x-derivative against a central difference of g_kernel
    # at h = 1e-5 (measured 1.1e-8 of the maximum: the difference's error)
    X, Y = ENVELOPE_XS[:, None], ENVELOPE_XS[None, :]
    h = 1e-5
    fd = (g_kernel(X + h, Y, ENVELOPE_TS, L) - g_kernel(X - h, Y, ENVELOPE_TS, L)) / (2 * h)
    got = kernels._pair_kernel(X, Y, ("g_dx", ENVELOPE_TS, L))
    assert np.max(np.abs(got - fd)) <= 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("keys", [
    [np.array([0.7])],
    [np.array([2.0, 2.0])],
    [np.array([3.0, -1.0, 3.0, 0.0, -1.0, 3.0])],
    list(kernels._pair_keys(ENVELOPE_XS[:, None], ENVELOPE_XS, 1)),
    [np.array([1.0, 0.0, 1.0, 1.0]), np.array([2.0, 5.0, 2.0, 3.0])],
])
def test_distinct_is_np_unique(keys):
    # tuples of keys match np.unique of the complex numbers they make
    keys = [k.ravel() for k in keys]
    values, inverse = kernels._distinct(*keys)
    packed = keys[0] + 1j * keys[1] if len(keys) == 2 else keys[0]
    want, want_inverse = np.unique(packed, return_inverse=True)
    got = values[0] + 1j * values[1] if len(keys) == 2 else values[0]
    assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse.ravel())
    for k, v in zip(keys, values):
        assert np.array_equal(v[inverse], k)


def _lexsort_distinct(*keys):
    """`_distinct` as it was written with np.lexsort: the reference."""
    order = np.lexsort(keys[::-1])
    ordered = [k[order] for k in keys]
    first = np.ones(keys[0].size, dtype=bool)
    first[1:] = np.any([k[1:] != k[:-1] for k in ordered], axis=0)
    inverse = np.empty(keys[0].size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return [k[first] for k in ordered], inverse


# ties, exact zeros of both signs, subnormals and huge values
_KEY_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e-300, 1e300, 3.0]) | st.floats(
    -1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda size: st.tuples(
    st.lists(_KEY_FLOATS, min_size=size, max_size=size),
    st.lists(_KEY_FLOATS, min_size=size, max_size=size),
    st.lists(st.integers(0, 1100), min_size=size, max_size=size),
    st.sampled_from(["one", "two", "exponents"]))))
def test_distinct_is_the_lexsort_reference(case):
    # the single sort of a complex view (two keys) or of the key itself
    # (one key, the times) against np.lexsort: the same tuples in the same
    # order, each in its key's own dtype, and the same inverse
    first, second, exponents, kind = case
    keys = {"one": [np.array(first)],
            "two": [np.array(first), np.array(second)],
            # g_of_one's keys (e, m): integer exponents, then floats
            "exponents": [np.array(exponents), np.abs(np.array(second))]}[kind]
    values, inverse = kernels._distinct(*keys)
    want, want_inverse = _lexsort_distinct(*keys)
    assert np.array_equal(inverse, want_inverse)
    for got, ref, key in zip(values, want, keys):
        assert got.dtype == key.dtype and got.tobytes() == ref.tobytes()
        assert np.array_equal(got[inverse], key)  # -0.0 and 0.0 are one tuple


# the chunk sizes the strip test runs at: the default rule, and chunks of 7
# nodes, which end inside a node block and a strip
_CHUNKS = (None, 7)


def _family_kernels(x, y, t, alpha, n):
    """Every member kind of `_pair_family` at once, and `g_of_one`."""
    op, lap = ShiftedOperator(alpha, n), ShiftedOperator(0.0, n)
    members = [("poisson", t, op), ("g", t, op), ("g_dx", t, op),
               (("ladder", n, +1), t, lap), (("ladder", 1, -1), t, lap)]
    return [*kernels._pair_family(x, y, members), g_of_one(x, t, op)]


_COORDINATES = st.floats(-6.0, 6.0, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0, 40.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 5), st.integers(1, 5), st.data(),
       st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6),
       st.sampled_from([0.0, 1.5, -0.5]))
def test_strips_keep_the_bits_of_every_member(n, rows, cols, data, times, alpha):
    # a chunk's block buffer is filled in strips of _STRIP_ENTRIES entries;
    # the block is elementwise in (node, tuple), so every strip size from
    # one node to a whole chunk gives every member kind the same bits
    x = np.array(data.draw(st.lists(_COORDINATES, min_size=rows * n, max_size=rows * n)))
    y = np.array(data.draw(st.lists(_COORDINATES, min_size=cols * n, max_size=cols * n)))
    x, y = (x.reshape(rows, 1), y.reshape(1, cols)) if n == 1 else (
        x.reshape(rows, 1, n), y.reshape(1, cols, n))
    t = np.array(times)
    tuples = kernels._distinct(*map(np.ravel, kernels._pair_keys(
        kernels._capped(x), kernels._capped(y), n)))[0][0].size
    for chunk in _CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(kernels, "_BLOCK_ENTRIES", chunk * tuples)
            mp.setattr(kernels, "_STRIP_ENTRIES", kernels._BLOCK_ENTRIES)
            want = _family_kernels(x, y, t, alpha, n)
            for strip in (1, 3):
                mp.setattr(kernels, "_STRIP_ENTRIES", strip * tuples)
                got = _family_kernels(x, y, t, alpha, n)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.floats() | st.just("2"))
def test_operator_and_rule_take_integer_counts_only(count):
    # ShiftedOperator(0.0, 1.5) built a kernel on a 1.5-dimensional space
    # and SubordinationRule(2.5) failed with TypeError at its first call
    with pytest.raises(ValueError, match="dimension n"):
        ShiftedOperator(0.0, count)
    with pytest.raises(ValueError, match="node count Q"):
        SubordinationRule(count)
    with pytest.raises(ValueError, match="dimension n=0"):
        ShiftedOperator(0.0, 0)
    assert type(ShiftedOperator(0.0, np.int64(2)).n) is int
    assert type(SubordinationRule(np.int32(16)).Q) is int


def test_subordination_rule_is_a_frozen_value():
    # rule.Q = 1 after construction slipped past the count check, and the
    # Poisson kernel then failed with ZeroDivisionError (TypeError for 2.5)
    import dataclasses

    rule = SubordinationRule(32)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.Q = 1
    assert rule.Q == 32
    assert SubordinationRule(np.int64(32)) == rule
    assert hash(SubordinationRule(np.int64(32))) == hash(rule)
    assert len({rule, SubordinationRule(32), SubordinationRule()}) == 2


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, -0.9])
def test_rescaled_heat_derivative_formulas_agree_where_both_apply(n, alpha):
    # `g_of_one`'s block picks its formula per strip: near points alone
    # take the direct formula, and beside far ones (|x| = 1e5 and 1e154)
    # the one over 4^e, which must give the near entries the same bits
    op = ShiftedOperator(alpha, n)
    s = np.geomspace(1e-300, 190.0, 400)[:, None]
    near = np.linspace(-30.0, 30.0, 41)
    far = np.array([1e5, -1e154])
    if n == 2:
        near = np.stack([near, near[::-1] / 2.0], axis=-1)
        far = np.array([[1e5, 0.0], [-3.0, 1e154]])

    def rescaled(points):
        out = np.empty((s.size, len(points)))
        assert kernels._heat_one_dt_rescaled(kernels._radius2(points, n), s, op, out) is out
        return out

    alone, beside = rescaled(near), rescaled(np.concatenate([near, far]))
    assert beside[:, :len(near)].tobytes() == alone.tobytes()


def _extreme_time_calls(n):
    op = ShiftedOperator(0.0, n)
    x = 0.0 if n == 1 else np.zeros(n)
    y = 0.3 if n == 1 else np.full(n, 0.3)
    return [
        lambda t: poisson_kernel(x, x, t, op),
        lambda t: poisson_kernel(x, y, t, op),
        lambda t: g_kernel(x, x, t, op),
        lambda t: ladder_kernel(x, x, t, n, -1, n),
        lambda t: ladder_kernel(y, x, t, 1, +1, n),
        lambda t: g_of_one(x, t, op),
        lambda t: g_of_one(y, t, op),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subordinated_kernels_are_finite_over_their_time_range(n):
    # at 1e-160 and 1e-150 they returned NaN or inf with a RuntimeWarning,
    # at 1e-200 they raised "math domain error" and from 1e160 on "cannot
    # convert float NaN to integer"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in _extreme_time_calls(n):
            for t in (kernels._T_MIN, 1e-20, 1.0, 1e20, kernels._T_MAX, [kernels._T_MIN, 1.0]):
                assert np.all(np.isfinite(call(t)))
            for t in (1e-200, 1e-160, 1e-150, 0.5 * kernels._T_MIN, 2.0 * kernels._T_MAX,
                      1e160, [1.0, 1e-200]):
                with pytest.raises(ValueError, match=r"time t=.* is outside \[1e-60, 1e\+150\]"):
                    call(t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subordinated_kernels_are_finite_or_refused_at_quarter_decades(n):
    # under warnings-as-errors ladder_kernel(zeros(4), zeros(4), 1e-55, 1,
    # -1, 4) raised "overflow encountered in matmul", and the n = 6
    # Poisson kernel overflowed from 1e-44.25 down; the lower bound now
    # rises with n
    t_min = kernels._t_min(n)
    assert t_min == (1e-60 if n <= 3 else {4: 1e-48, 5: 1e-40, 6: 1e-34}[n])
    refused = rf"time t=.* is outside \[{t_min:g}, 1e\+150\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in _extreme_time_calls(n):
            for t in 10.0 ** (np.arange(-110 * 4, 161 * 4) / 4):
                if t_min <= t <= kernels._T_MAX:
                    assert np.all(np.isfinite(call(t)))
                else:
                    with pytest.raises(ValueError, match=refused):
                        call(t)


@pytest.mark.parametrize("n, message", [
    (0, "dimension n=0 must be >= 1"),
    (-1, "dimension n=-1 must be >= 1"),
    (1.5, "dimension n=1.5 must be an integer"),
    (True, "dimension n=True must be an integer"),
])
def test_heat_closed_forms_gate_the_dimension(n, message):
    # heat_kernel(0.5, 0.5, 1.0, 0) returned 0.8266 and n=-1 0.1732;
    # heat_kernel_one(0.5, 1.0, 0) returned 0.8865, and n=True ran as 1
    with pytest.raises(ValueError, match=re.escape(message)):
        heat_kernel(0.5, 0.5, 1.0, n)
    with pytest.raises(ValueError, match=re.escape(message)):
        heat_kernel_one(0.5, 1.0, n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, want", [
    # |x|^2 overflowed to inf, and the bracket times the Gaussian was inf * 0
    (lambda: g_of_one(1e160, 1.0, L), 0.0),
    (lambda: heat_one_dt(1e200, 1.0, L), -0.0),
    (lambda: heat_one_dt([1e200, -1e300], [1.0, 1e308], L), -0.0),
    (lambda: heat_one_dt(0.5, 1e308, ShiftedOperator(-0.5, 1)), -0.0),
    # -2 t and -4 t overflowed, with three warnings
    (lambda: heat_kernel_one(0.0, 1e308), 0.0),
    (lambda: heat_kernel_one([1e200, 3.0], [1.0, 1e300], 1), 0.0),
    (lambda: heat_kernel_one([[1e200, 0.0]], 1.0, 2), 0.0),
])
def test_closed_forms_of_heat_on_one_take_their_limit_zero(call, want):
    got = np.asarray(call())
    assert np.all(got == 0.0)
    assert np.all(np.signbit(got) == np.signbit(want))


def test_closed_forms_of_heat_on_one_keep_their_values_below_the_caps():
    # the caps (|x_j| <= 2^500, t <= 2^1000) change no value: far below them
    # the closed forms are what they were, and at them already 0
    x = np.array([0.0, 0.7, -3.0, 25.0, 40.0, 1e100])
    t = np.array([[1e-3], [0.4], [2.0], [700.0]])
    r2, e = x * x, np.exp(-4.0 * t)
    onep = 1.0 + e
    one = np.sqrt(2.0 * np.exp(-2.0 * t) / onep) * np.exp(-0.5 * -np.expm1(-4.0 * t) / onep * r2)
    assert np.array_equal(heat_kernel_one(x, t), one)
    bracket = -np.expm1(-4.0 * t) / onep + r2 * 4.0 * e / (onep * onep)
    dt = np.exp(-t) * (-bracket * np.sqrt(2.0 / onep) * np.exp(-0.5 * -np.expm1(-4.0 * t) / onep * r2))
    assert np.array_equal(heat_one_dt(x, t, L), dt)


@pytest.mark.filterwarnings("error")
def test_heat_kernel_one_takes_far_points_uncapped():
    # |x_j| was capped at 2^500 (|x|^2 = 2^1000), which leaves e^{-10.7} of
    # the Gaussian at t = 1e-300: heat_kernel_one(1e200, 1e-300) read
    # 2.2207376003434842e-05, and at 1e151 the same, not e^{-100}
    assert heat_kernel_one(1e200, 1e-300) == 0.0
    assert heat_kernel_one(1e151, 1e-300) == 3.720075976020783e-44
    assert heat_kernel_one(1e151, 1e-300) == pytest.approx(math.exp(-100.0), rel=1e-13)
    assert np.array_equal(heat_kernel_one([[1e200, 0.0], [1e308, -1e308]], 1e-300, 2), [0.0, 0.0])
    assert heat_kernel_one(1e308, 1e-320) == 0.0
    # within the cap nothing moved: the capped form at the cap is the same value
    x = np.array([0.3, 1e100, 2.0 ** 500, -(2.0 ** 500)])
    want = np.exp(-0.5 * -np.expm1(-4e-300) / (1.0 + np.exp(-4e-300)) * (x * x))
    assert np.array_equal(heat_kernel_one(x, 1e-300), want)


def _heat_one_mpmath(x, t, alpha=None):
    """W_t(1)(x) on R, or d/dt e^{-alpha t} W_t(1)(x) when alpha is given,
    by mpmath at 60 digits and rounded once to a float: W_t(1)(x) =
    sech(2t)^{1/2} e^{-tanh(2t) x^2/2}, whose sech and tanh keep their
    relative precision at subnormal t, where 1 - e^{-4t} at 60 digits
    would read 0."""
    import mpmath

    with mpmath.workdps(60):
        x, t = mpmath.mpf(x), mpmath.mpf(t)
        tanh, sech = mpmath.tanh(2 * t), mpmath.sech(2 * t)
        value = mpmath.sqrt(sech) * mpmath.exp(-tanh * x * x / 2)
        if alpha is not None:
            value *= -mpmath.exp(-alpha * t) * (alpha + tanh + x * x * sech ** 2)
        return float(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, x, t", [
    # |x|^2 overflowed to inf: heat_kernel_one read 0.0 for both, and
    # heat_one_dt, its |x_j| capped at 2^500, -2.3795e296, -1.0715e301 and
    # -2.3795e296
    ("one", 1e155, 5e-324), ("one", 1e160, 1e-318),
    ("dt", 1e151, 1e-300), ("dt", 1e160, 1e-318), ("dt", 1e200, 1e-300),
    # e^{-c|x|^2} is subnormal (c|x|^2 = 718 and 720) while the value is not:
    # the capped form read -2.3795e296 and -1.536133670648546e-307
    ("dt", 2.68e151, 1e-300), ("dt", 848.5, 1e-3),
])
def test_closed_forms_of_heat_on_one_match_mpmath_where_the_square_overflows(kind, x, t):
    # measured: at most 7.6e-14 relative, the rounding of c |x|^2 <= 720
    if kind == "one":
        got, want = heat_kernel_one(x, t), _heat_one_mpmath(x, t)
    else:
        got, want = heat_one_dt(x, t, L), _heat_one_mpmath(x, t, 0.0)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert np.signbit(got) == np.signbit(want)


@pytest.mark.filterwarnings("error")
def test_heat_one_dt_beyond_the_float_range_raises():
    # its value is about -1.0e310; the capped form read -1.0715e301
    assert math.isinf(_heat_one_mpmath(1e155, 5e-324, 0.0))
    with pytest.raises(ValueError, match="exceeds the float range"):
        heat_one_dt(1e155, 5e-324, L)
    with pytest.raises(ValueError, match="exceeds the float range"):
        heat_one_dt([0.5, 1e155], 5e-324, L)



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, want", [
    # |x - y|^2 overflowed, and each returned 0 after two warnings
    (lambda: heat_kernel(1e200, 0.0, 1.0), 0.0),
    (lambda: poisson_kernel(1e200, 0.0, 1.0, L), 0.0),
    (lambda: ladder_kernel(1e200, 0.0, 1.0, 1, 1), 0.0),
    (lambda: heat_kernel([[1e200, 0]], [[0, 0]], 1.0, 2), 0.0),
    # u = x - y overflowed and u times a zero sum was nan
    (lambda: ladder_kernel(1e308, -1e308, 1.0, 1, 1), 0.0),
    (lambda: ladder_kernel(1e308, -1e308, 1.0, 1, -1), 0.0),
    # at short times coth t times |x - y|^2 overflowed as well
    (lambda: heat_kernel(1e150, 0.0, 1e-10), 0.0),
    (lambda: ladder_kernel(1e200, 0.0, 1e-3, 1, 1), 0.0),
    (lambda: g_kernel([[1e200, 3.0]], [[0.0, 0.0]], 1e-20, ShiftedOperator(0.0, 2)), 0.0),
    # (alpha + n) t overflowed
    (lambda: heat_one_dt(0.0, 2.0, ShiftedOperator(1e308)), -0.0),
])
def test_kernels_at_far_points_and_huge_rates_take_their_limit_zero(call, want):
    got = np.asarray(call())
    assert np.all(got == 0.0)
    assert np.all(np.signbit(got) == np.signbit(want))


@pytest.mark.filterwarnings("error")
def test_the_heat_kernel_keeps_its_values_beyond_the_coordinate_cap():
    # at t = 1e-300 the closed form is not 0 at |x| = |y| = 4e150 > 2^500,
    # so its points are not capped the way the subordinated kernels' are
    A, B, scale = kernels._heat_prefactor(np.asarray(1e-300), 1)
    want = scale * np.exp(-0.25 * B * (8e150 * 8e150))
    assert 0.0 < want < math.inf
    assert heat_kernel(4e150, 4e150, 1e-300) == want
    assert heat_kernel(1e200, 1e200, 1e-300) == 0.0

def test_subordination_nodes_check_the_time_and_the_decay():
    rule = SubordinationRule()
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="time must be positive"):
            rule.s_nodes(t, 1.0)
    for t in (1e-61, 1e151):
        with pytest.raises(ValueError, match=r"is outside \[1e-60, 1e\+150\]"):
            rule.s_nodes(t, 1.0)
    for decay in (0.0, -2.0):
        with pytest.raises(ValueError, match="decay rate must be positive"):
            rule.s_nodes(1.0, decay)
