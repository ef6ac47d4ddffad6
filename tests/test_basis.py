import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hermlp import basis
from hermlp.basis import (
    HermiteExpansion,
    SpatialGrid,
    analyze,
    default_grid,
    eval_table,
    hermite_derivative,
    hermite_eval,
    hermite_ladder_eval,
    point_synthesis_matrix,
    synthesize,
    synthesize_grid,
)


def test_h0_at_origin():
    assert hermite_eval(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)


def test_h1_odd_symmetry():
    assert hermite_eval(1, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_h1_closed_form():
    # H_1(x) = 2x, so h_1(x) = sqrt(2) x pi^{-1/4} e^{-x^2/2}
    expected = math.sqrt(2) * math.pi ** -0.25 * math.exp(-0.5)
    assert hermite_eval(1, 1.0) == pytest.approx(expected, rel=1e-12)


def test_tensor_product_structure():
    x = np.array([0.3, -1.2])
    v = hermite_eval((2, 5), x)
    assert v == pytest.approx(hermite_eval(2, 0.3) * hermite_eval(5, -1.2), rel=1e-13)


def test_ladder_zero_mode():
    assert hermite_ladder_eval(0, 1.7, 1, +1) == 0.0
    # -sqrt(2) h_1(0) = 0
    assert hermite_ladder_eval(0, 0.0, 1, -1) == pytest.approx(0.0, abs=1e-15)


def test_derivative_matches_finite_differences():
    xs = np.linspace(-6, 6, 41)
    step = 1e-5
    for k in range(21):
        fd = (hermite_eval(k, xs + step) - hermite_eval(k, xs - step)) / (2 * step)
        exact = hermite_derivative(k, xs)
        assert np.max(np.abs(fd - exact)) <= 1e-7


def test_orthonormality_on_default_grid():
    grid = default_grid(n=1, K=60)
    T = eval_table(20, grid.axis)
    G = (T * grid.axis_weights) @ T.T
    assert np.max(np.abs(G - np.eye(21))) <= 1e-8


def test_eigenrelation():
    # -h_k'' + x^2 h_k = (2k+1) h_k, second derivative from two ladder steps
    xs = np.linspace(-6, 6, 25)
    for k in range(21):
        up = hermite_ladder_eval(k, xs, 1, +1)
        down = hermite_ladder_eval(k, xs, 1, -1)
        # h' of the shifted modes again via ladders
        d2 = 0.5 * (
            _deriv_of_ladder(k, xs, +1) + _deriv_of_ladder(k, xs, -1)
        )
        res = -d2 + xs * xs * hermite_eval(k, xs) - (2 * k + 1) * hermite_eval(k, xs)
        assert np.max(np.abs(res)) <= 1e-6
        del up, down


def _deriv_of_ladder(k, xs, sign):
    if sign == +1:
        if k == 0:
            return np.zeros_like(xs)
        return math.sqrt(2 * k) * hermite_derivative(k - 1, xs)
    return -math.sqrt(2 * k + 2) * hermite_derivative(k + 1, xs)


def test_scaled_recurrence_stays_finite():
    xs = np.linspace(-30, 30, 13)
    for k in (0, 50, 120, 200):
        v = hermite_eval(k, xs)
        assert np.all(np.isfinite(v))


@pytest.mark.parametrize("perturb", [0.0, 1e-6, 1e-3])
def test_eval_table_rows_are_hermite_eval(perturb_recurrence, perturb):
    # the table and the single-degree route share one recurrence, perturbed or not
    perturb_recurrence(perturb)
    xs = np.linspace(-7.0, 7.0, 29)
    table = eval_table(40, xs)
    for k in (0, 1, 7, 40):
        assert np.array_equal(table[k], hermite_eval(k, xs))


@pytest.mark.parametrize("order", [[0, 3, 17, 40, 41], [41, 40, 17, 3, 0]])
def test_table_cache_hit_equals_miss(fresh_tables, order):
    # rising K rebuilds the stored table and falling K slices it; both must
    # give the bits of a table built from an empty store
    axes = [np.linspace(-7.0, 7.0, 29), SpatialGrid(12.0, 0.02).axis]
    for K in order:
        for xs in axes:
            got = eval_table(K, xs)
            fresh_tables.clear()
            want = eval_table(K, xs)
            assert got.tobytes() == want.tobytes() and got.shape == (K + 1, xs.size)
            eval_table(max(order), xs)  # leave the longest table stored


def test_table_cache_holds_one_longest_table_per_axis(fresh_tables):
    xs = np.linspace(-3.0, 3.0, 11)
    for K in (5, 30, 12):
        eval_table(K, xs)
    (table,) = fresh_tables.values()
    assert table.shape == (31, 11) and not table.flags.writeable
    for i in range(9):
        eval_table(4, xs + i)
    assert len(fresh_tables) == 8
    assert not any(key[1] == xs.tobytes() for key in fresh_tables)


def test_single_point_syntheses_leave_the_lattice_tables_stored(monkeypatch, fresh_tables):
    # eight maximal_norm calls at random points used to store eight
    # one-point tables and evict the 1201-point table of gfunction, which
    # the next gfunction then rebuilt
    from hermlp import gamma, semigroups

    grid = SpatialGrid(12.0, 0.02)
    times = gamma.TimeGrid(1e-3, 20.0, 16)
    e = HermiteExpansion(1, 1, 7, {(3,): [0.5], (7,): [-1.0]})
    first = semigroups.gfunction(e, 0.0, grid, times).values
    runs = []
    rows = basis._scaled_rows
    monkeypatch.setattr(basis, "_scaled_rows", lambda kmax, x: runs.append(np.size(x)) or rows(kmax, x))
    for x in np.random.default_rng(3).uniform(-3.0, 3.0, size=8):
        semigroups.maximal_norm(e, x, "heat", 0.0, gamma.BanachModel(1, 2.0), times)
    assert len(runs) >= 8 and set(runs) == {1}
    runs.clear()
    assert np.array_equal(semigroups.gfunction(e, 0.0, grid, times).values, first)
    assert runs == []
    assert [key[0] for key in fresh_tables] == [grid.axis.shape]


def test_eval_table_returns_a_writable_copy(fresh_tables):
    grid = SpatialGrid(10.0, 0.05)
    xs = grid.axis
    want = eval_table(12, xs)
    samples = hermite_eval(3, xs)
    coeffs = analyze(samples, grid, 12).C
    table = eval_table(12, xs)
    table[:] = np.nan
    assert np.array_equal(eval_table(12, xs), want)
    assert np.array_equal(analyze(samples, grid, 12).C, coeffs)


def test_table_cache_under_threads(fresh_tables):
    # four threads on two cores ask for rising and falling K on three axes;
    # every answer has the reference bits, and each axis ends up holding
    # the longest table asked for (a lost update would leave a shorter one)
    axes = [np.linspace(-5.0, 5.0, 201) + i for i in range(3)]
    want = {i: eval_table(60, xs) for i, xs in enumerate(axes)}
    fresh_tables.clear()
    rng = np.random.default_rng(5)
    jobs = [[(int(i), int(K)) for i, K in zip(rng.integers(3, size=200), rng.integers(61, size=200))]
            for _ in range(4)]

    def work(calls):
        return all(np.array_equal(eval_table(K, axes[i]), want[i][:K + 1]) for i, K in calls)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(work, c) for c in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 4
    longest = {i: max(K for c in jobs for j, K in c if j == i) for i in range(3)}
    assert sorted(len(t) for t in fresh_tables.values()) == sorted(K + 1 for K in longest.values())


def test_eval_table_rejects_a_bad_degree():
    for kmax in (-1, 2.0, True):
        with pytest.raises(ValueError, match="kmax"):
            eval_table(kmax, np.zeros(3))


def test_analyze_recovers_single_mode():
    grid = default_grid(n=1, K=60)
    samples = hermite_eval(2, grid.axis)
    e = analyze(samples, grid, K=10)
    assert e.coeffs[(2,)][0] == pytest.approx(1.0, abs=1e-8)
    for k, c in e.coeffs.items():
        if k != (2,):
            assert abs(c[0]) <= 1e-8


def test_analyze_zero_gives_empty_expansion():
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    e = analyze(np.zeros(grid.shape), grid, K=5)
    assert e.coeffs == {}


def test_analyze_linear_combination():
    grid = default_grid(n=1, K=60)
    samples = hermite_eval(0, grid.axis) + 2.0 * hermite_eval(1, grid.axis)
    e = analyze(samples, grid, K=6)
    assert e.coeffs[(0,)][0] == pytest.approx(1.0, abs=1e-8)
    assert e.coeffs[(1,)][0] == pytest.approx(2.0, abs=1e-8)


def test_analyze_rejects_coarse_grid():
    grid = SpatialGrid(R=15.0, h=0.2, n=1)
    with pytest.raises(ValueError, match="too coarse"):
        analyze(np.zeros(grid.shape), grid, K=60)


def test_analyze_rejects_short_grid():
    grid = SpatialGrid(R=5.0, h=0.01, n=1)
    with pytest.raises(ValueError, match="too small"):
        analyze(np.zeros(grid.shape), grid, K=60)


@pytest.mark.parametrize("K, message", [(-1, "K=-1 must be >= 0"),
                                        (2.5, "K=2.5 must be an integer"),
                                        (True, "K=True must be an integer")])
def test_analyze_and_default_grid_check_the_degree_cap(K, message):
    # analyze(samples, grid, -1) and default_grid(1, -1) raised "math domain
    # error", and analyze(samples, grid, 2.5) a TypeError
    grid = default_grid(1, 10)
    with pytest.raises(ValueError, match=re.escape(message)):
        analyze(np.zeros(grid.shape), grid, K)
    with pytest.raises(ValueError, match=re.escape(message)):
        default_grid(1, K)
    assert analyze(np.zeros(grid.shape), grid, np.int64(10)).K == 10


def test_roundtrip_analyze_synthesize():
    grid = default_grid(n=1, K=60)
    rng = np.random.default_rng(7)
    e = HermiteExpansion(
        n=1, d=1, K=12,
        coeffs={(k,): rng.normal(size=1) for k in range(13)},
    )
    samples = synthesize_grid(e, grid)[:, 0]
    back = analyze(samples, grid, K=12)
    for k in e.coeffs:
        assert back.coeffs[k][0] == pytest.approx(e.coeffs[k][0], abs=1e-8)


def test_roundtrip_2d():
    grid = default_grid(n=2, K=8)
    e = HermiteExpansion(n=2, d=1, K=4, coeffs={(0, 0): [1.0], (2, 1): [-0.5], (0, 4): [2.0]})
    samples = synthesize_grid(e, grid).reshape(grid.shape)
    back = analyze(samples, grid, K=4)
    for k, c in e.coeffs.items():
        assert back.coeffs[k][0] == pytest.approx(c[0], abs=1e-8)


def test_synthesize_examples():
    e = HermiteExpansion.single(0)
    assert synthesize(e, 0.0)[0] == pytest.approx(math.pi ** -0.25, rel=1e-13)
    empty = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    assert synthesize(empty, 0.3)[0] == 0.0
    e2 = HermiteExpansion(n=1, d=1, K=2, coeffs={(0,): [1.0], (2,): [-1.0]})
    expected = hermite_eval(0, 0.7) - hermite_eval(2, 0.7)
    assert synthesize(e2, 0.7)[0] == pytest.approx(float(expected), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats() | st.just("2"), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_spatial_grid_takes_an_integer_dimension_and_finite_reals(n, bad):
    # SpatialGrid(12, 0.02, n=1.5) built a line, and an infinite R or h
    # raised OverflowError
    with pytest.raises(ValueError, match="dimension n"):
        SpatialGrid(12.0, 0.02, n)
    with pytest.raises(ValueError, match="finite R > 0 and h > 0"):
        SpatialGrid(bad, 0.02)
    with pytest.raises(ValueError, match="finite R > 0 and h > 0"):
        SpatialGrid(12.0, bad)
    assert type(SpatialGrid(1.0, 0.5, np.int64(2)).n) is int


@pytest.mark.parametrize("R, h", [(1.0, 1e-320), (1e300, 1e-300)])
def test_spatial_grid_rejects_an_overflowing_point_count(R, h):
    # R/h is inf, and int(round(R / h)) raised OverflowError
    with pytest.raises(ValueError, match="R/h .* overflows"):
        SpatialGrid(R, h)


@pytest.mark.parametrize("n, K", [(2, 20), (1, 30)])
def test_default_grid_is_accepted_by_analyze(n, K):
    # R = sqrt(2K+n) + 4 rounded to the nearest lattice step fell short of
    # what analyze requires (10.47 < 10.4807 and 11.81 < 11.8102)
    grid = default_grid(n, K)
    assert grid.R >= math.sqrt(2 * K + n) + 4.0
    e = analyze(np.zeros(grid.shape), grid, K)
    assert e.K == K and not e.coeffs


def test_default_grid_keeps_exact_fits():
    # half-widths that are already lattice multiples are not moved up
    assert default_grid(1, 60).axis.size == 6001
    assert default_grid(1, 60).R == 15.0
    assert default_grid(2, 8).axis.size == 551


def test_import_loads_no_scipy():
    code = (
        "import sys, hermlp; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_grid_weights_sum():
    grid = SpatialGrid(R=3.0, h=0.1, n=2)
    assert np.sum(grid.weights) == pytest.approx((2 * grid.R) ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_arrays_are_built_once_and_read_only(n):
    grid = SpatialGrid(R=1.0, h=0.25, n=n)
    for name in ("points", "weights"):
        first = getattr(grid, name)
        assert getattr(grid, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert np.array_equal(getattr(SpatialGrid(R=1.0, h=0.25, n=n), name), first)
    assert grid.points.shape == ((grid.size,) if n == 1 else (grid.size, n))


@pytest.mark.parametrize("n", [1, 2])
def test_grid_axis_arrays_are_read_only(n):
    # axis and axis_weights were writable, so a write moved every lattice
    # array built from them afterwards
    grid = SpatialGrid(R=1.0, h=0.25, n=n)
    for name in ("axis", "axis_weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 1.0
        with pytest.raises(AttributeError):
            setattr(grid, name, np.zeros(9))
    assert grid.axis.tolist() == [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]


def test_grids_compare_and_hash_by_their_snapped_parameters():
    # the axis and weights are functions of (R, h, n) after the snap, so
    # grids built apart with equal parameters are one value
    assert SpatialGrid(12, 0.02) == SpatialGrid(12.0, 0.02, 1)
    assert hash(SpatialGrid(12, 0.02)) == hash(SpatialGrid(12.0, 0.02, 1))
    assert SpatialGrid(12.004, 0.02) == SpatialGrid(12.0, 0.02)  # R snaps to 600 h
    assert SpatialGrid(12.0, 0.02) != SpatialGrid(12.0, 0.02, 2)
    assert SpatialGrid(12.0, 0.02) != SpatialGrid(12.0, 0.025)
    assert SpatialGrid(12.0, 0.02) != SpatialGrid(12.04, 0.02)
    assert len({SpatialGrid(6, 0.5), SpatialGrid(6.0, 0.5, np.int64(1)), SpatialGrid(6, 0.25)}) == 2
    assert repr(SpatialGrid(12, 0.02)) == "SpatialGrid(R=12.0, h=0.02, n=1)"


def test_expansion_rejects_excess_degree():
    with pytest.raises(ValueError, match="degree cap"):
        HermiteExpansion(n=1, d=1, K=2, coeffs={(3,): [1.0]})


def test_expansion_stores_read_only_mode_and_coefficient_arrays():
    e = HermiteExpansion(n=2, d=2, K=4, coeffs={(2, 1): [1.0, -1.0], (0, 0): [0.5, 2.0]})
    assert e.modes.dtype.kind == "i" and e.modes.tolist() == [[2, 1], [0, 0]]
    assert e.C.tolist() == [[1.0, -1.0], [0.5, 2.0]]
    assert not (e.modes.flags.writeable or e.C.flags.writeable)
    assert list(e.coeffs) == [(2, 1), (0, 0)]
    same = HermiteExpansion.from_arrays(2, 2, e.modes, e.C)
    assert same.K == 3 and np.array_equal(same.modes, e.modes) and np.array_equal(same.C, e.C)
    assert HermiteExpansion.from_arrays(2, 2, e.modes, e.C, K=4).K == 4
    empty = HermiteExpansion(n=3, d=2)
    assert empty.modes.shape == (0, 3) and empty.C.shape == (0, 2) and empty.coeffs == {}
    assert e.scaled(2.0).C.tolist() == [[2.0, -2.0], [1.0, 4.0]]
    assert e.l2_norm_sq() == 6.25


@pytest.mark.parametrize(
    "modes, C, match",
    [
        ([[1, 0]], [[1.0]], "wrong dimension"),
        ([[3]], [[1.0]], "degree cap"),
        ([[-1]], [[1.0]], "nonnegative"),
        ([[1]], [[1.0, 2.0]], "shape"),
        ([[0], [1]], [[1.0], [np.nan]], "non-finite coefficient at \\(1,\\)"),
    ],
)
def test_from_arrays_applies_the_constructor_checks(modes, C, match):
    with pytest.raises(ValueError, match=match):
        HermiteExpansion.from_arrays(1, 1, np.array(modes), np.array(C), K=2)
    with pytest.raises(ValueError, match=match):
        HermiteExpansion(1, 1, 2, {tuple(k): c for k, c in zip(modes, C)})


@pytest.mark.parametrize("n, modes, repeated", [
    (1, [[2], [2]], "(2,)"),
    (1, [[0], [3], [1], [3], [1]], "(1,)"),
    (2, [[1, 0], [0, 1], [2, 0], [0, 1]], "(0, 1)"),
])
def test_from_arrays_rejects_a_repeated_mode(n, modes, repeated):
    # from_arrays(1, 1, [[2], [2]], [[1.0], [3.0]]) synthesized as 4 h_2,
    # read `coeffs` as {(2,): [3.0]} and had l2_norm_sq 10.0
    C = np.arange(1.0, len(modes) + 1.0)[:, None]
    with pytest.raises(ValueError, match=f"^mode {re.escape(repeated)} is given more than once$"):
        HermiteExpansion.from_arrays(n, 1, np.array(modes), C)


@pytest.mark.parametrize(
    "modes, C, message",
    [
        ([[0], [1], [-1], [2]], [[1.0]] * 4, "multi-index must be nonnegative, got (-1,)"),
        ([[0], [1], [3], [4]], [[1.0]] * 4, "index (3,) exceeds degree cap K=2"),
        ([[0], [1], [2], [1]], [[1.0], [2.0], [np.inf], [np.nan]],
         "non-finite coefficient at (2,)"),
        # a row failing a later check does not hide an earlier check's row
        ([[0], [4], [-3], [1]], [[np.nan]] * 4, "multi-index must be nonnegative, got (-3,)"),
    ],
)
def test_a_bad_row_behind_good_rows_is_named(modes, C, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HermiteExpansion.from_arrays(1, 1, np.array(modes), np.array(C), K=2)


def test_analyze_returns_modes_in_lexicographic_order():
    grid = default_grid(n=2, K=6)
    rng = np.random.default_rng(2)
    ks = [k for k in np.ndindex(7, 7) if sum(k) <= 6]
    e = HermiteExpansion(n=2, d=1, K=6, coeffs={k: rng.normal(size=1) for k in ks})
    back = analyze(synthesize_grid(e, grid).reshape(grid.shape), grid, K=6)
    assert list(back.coeffs) == ks
    assert np.max(np.abs(back.C - e.C)) < 1e-8


def test_points_of_the_wrong_dimension_are_rejected():
    e = HermiteExpansion.single((1, 1))
    for x in (np.zeros(4), np.zeros((5, 3)), 0.5):
        with pytest.raises(ValueError, match="last axis 2"):
            synthesize(e, x)
    assert synthesize(e, np.zeros((5, 2))).shape == (5, 1)


@settings(max_examples=40, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.integers(0, 5),
       n=st.integers(1, 3))
def test_non_finite_points_are_rejected(bad, where, n):
    pts = np.linspace(-1.0, 1.0, 6 * n).reshape(6, n)
    pts[where, where % n] = bad
    x = pts[:, 0] if n == 1 else pts
    e = HermiteExpansion(n=n, d=1, K=2, coeffs={(1,) + (0,) * (n - 1): [1.0]})
    for call in (lambda: synthesize(e, x), lambda: point_synthesis_matrix(e.modes, x),
                 lambda: hermite_eval((1,) * n, x), lambda: hermite_eval((1,) * n, x[where])):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_quadrature_inner_product_against_quad():
    # independent oracle: adaptive quadrature of h_3 * h_3
    grid = default_grid(n=1, K=60)
    val, _ = quad(lambda x: hermite_eval(3, x) ** 2, -12, 12)
    trap = float(np.sum(grid.weights * hermite_eval(3, grid.axis) ** 2))
    assert trap == pytest.approx(val, abs=1e-10)
    assert val == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["n", "d", "K"]),
    value=st.floats(0.0, 40.0).filter(lambda v: v != int(v)),
)
def test_expansion_counts_must_be_integers(name, value):
    # int() used to truncate them: K=2.7 gave K=2 and n=1.5 gave n=1
    counts = {"n": 1, "d": 1, "K": 3, name: value}
    with pytest.raises(ValueError, match="must be an integer"):
        HermiteExpansion(counts["n"], counts["d"], counts["K"], {})


@pytest.mark.parametrize("n, K", [(1, 10), (2, 6)])
def test_analyze_reads_d_from_the_samples(n, K):
    # each column is projected alone, so it matches its own call bit for bit
    grid = default_grid(n, K)
    samples = np.random.default_rng(31).normal(size=grid.shape + (3,))
    whole = analyze(samples, grid, K)
    assert (whole.n, whole.d, whole.K) == (n, 3, K)
    for c in range(3):
        one = analyze(samples[..., c], grid, K).coeffs
        for k, row in whole.coeffs.items():
            assert row[c] == (one[k][0] if k in one else 0.0)
        assert set(one) <= set(whole.coeffs)


def _count_calls():
    from hermlp import gamma, kernels, spaces, verify

    T = gamma.rank_one(np.ones(4), np.ones(1), gamma.BanachModel(1, 4.0), gamma.TimeGrid(0.1, 1.0, 4))
    return {
        "SpatialGrid n": lambda v: SpatialGrid(4, 0.1, n=v),
        "HermiteExpansion n": lambda v: HermiteExpansion(v, 1, 0, {}),
        "HermiteExpansion d": lambda v: HermiteExpansion(1, v, 0, {}),
        "HermiteExpansion K": lambda v: HermiteExpansion(1, 1, v, {}),
        "ShiftedOperator n": lambda v: kernels.ShiftedOperator(0.0, v),
        "SubordinationRule Q": lambda v: kernels.SubordinationRule(v),
        "TimeGrid N": lambda v: gamma.TimeGrid(0.1, 1.0, v),
        "BanachModel d": lambda v: gamma.BanachModel(v, 2.0),
        "gamma_norm_mc M": lambda v: gamma.gamma_norm_mc(T, v, 0),
        "gamma_norm_mc seed": lambda v: gamma.gamma_norm_mc(T, 100, v),
        "BallSpec depth": lambda v: spaces.BallSpec(depth=v),
        "check_eigen_ladder K": lambda v: verify.check_eigen_ladder(v),
        "check_operator_identities K": lambda v: verify.check_operator_identities(v),
        "check_operator_identities seed": lambda v: verify.check_operator_identities(2, v),
    }


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", list(_count_calls()))
def test_counts_reject_bools(name, value):
    # SpatialGrid(4, 0.1, n=True), HermiteExpansion(True, 1, 0, {}) and
    # gamma_norm_mc(T, 10, seed=True) each took True as 1
    with pytest.raises(ValueError, match="must be an integer"):
        _count_calls()[name](value)


def _mp_hermite(k, x):
    """h_k(x) by mpmath at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        norm = mpmath.sqrt(2 ** mpmath.mpf(k) * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / norm)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [650, 1000, 2000])
def test_high_degrees_match_mpmath_out_to_the_turning_point_plus_four(fresh_tables, k):
    # the scaled recurrence overflowed beyond |x| = 37.63 (hermite_eval(2000,
    # 40.0) and hermite_eval(1000, 37.9) were NaN); every reader now takes
    # the far points through `_far_rows`.  Measured error: 3.8e-15, 8.4e-15
    # and 3.0e-14 for k = 650, 1000 and 2000
    top = math.sqrt(2 * k + 1) + 4.0
    xs = np.concatenate([np.linspace(-top, top, 41), [37.9, 40.0, top - 4.0]])
    want = np.array([_mp_hermite(k, x) for x in xs])
    got = hermite_eval(k, xs)
    assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want))
    assert np.array_equal(basis._table(k, xs)[k], got)
    assert np.array_equal([basis._table(k, np.array([x]))[k, 0] for x in xs], got)


def test_far_values_named_in_the_defect_report():
    assert hermite_eval(2000, 40.0) == pytest.approx(0.107662611888671, rel=1e-12)
    assert hermite_eval(1000, 37.9) == pytest.approx(-0.120869372046244, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e4, -1e4, 1e200, -1e300, 2.0 ** 20, -3.0e6])
def test_far_out_values_are_zeros_of_the_sign_of_h_k(x):
    # h_k(x) has the sign of x^k beyond its last zero, and underflows there
    for k in (0, 1, 2, 3, 100, 101):
        for value in (hermite_eval(k, x), basis._table(k, np.array([x]))[k, 0]):
            assert value == 0.0
            assert math.copysign(1.0, value) == math.copysign(1.0, x) ** k


@pytest.mark.filterwarnings("error")
def test_tables_sized_for_high_degrees_are_finite(fresh_tables):
    # default_grid(1, 650) spans |x| <= 40.07: the K = 650 table held 36 308
    # non-finite entries, and a synthesis of h_760 on its grid 2126 NaNs
    assert np.isfinite(basis._table(650, default_grid(1, 650).axis)).all()
    grid = default_grid(1, 760)
    values = synthesize_grid(HermiteExpansion.single(760), grid)
    assert np.isfinite(values).all()
    e = analyze(values.reshape(grid.shape + (1,)), grid, 760)
    assert e.coeffs[(760,)][0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_far_points_in_two_dimensions_are_products_of_the_far_rows():
    # |x| = 40.01 in norm, each coordinate within the scaled range: the
    # product of the scaled values overflowed, the product of the h's does not
    x = np.array([[30.0, 26.48], [0.5, -0.25]])
    got = hermite_eval((450, 350), x)
    assert np.isfinite(got).all()
    assert got[0] == pytest.approx(_mp_hermite(450, 30.0) * _mp_hermite(350, 26.48), rel=1e-11)
    assert got[1] == hermite_eval((450, 350), x[1])


def test_near_points_keep_the_scaled_recurrence_bit_for_bit(fresh_tables):
    # within |x| <= 37.63 the tables are the scaled recurrence times the
    # Gaussian, as they were before the far rows existed
    xs = np.linspace(-basis._X_NEAR, basis._X_NEAR, 2001)
    rows = list(basis._scaled_rows(120, xs))
    want = np.array(rows) * np.exp(-0.5 * xs * xs)
    assert np.array_equal(basis._table(120, xs), want)
    assert np.array_equal(hermite_eval(120, xs), want[120])


@pytest.mark.parametrize("n, K", [(1, 60), (2, 20), (3, 20)])
def test_default_grid_defaults_its_degree_cap_by_dimension(n, K):
    got, want = default_grid(n), default_grid(n, K)
    assert (got.n, got.h, got.R) == (want.n, want.h, want.R)


def test_analyze_rejects_samples_of_the_wrong_shape():
    grid = SpatialGrid(R=8.0, h=0.05, n=1)
    for shape in [(grid.size + 1,), (grid.size, 2, 1), (2, grid.size)]:
        with pytest.raises(ValueError, match="samples have shape"):
            analyze(np.zeros(shape), grid, K=5)


@pytest.mark.parametrize("j, sign, message", [
    (1, 1.0, "sign must be"),
    (1, True, "sign must be"),
    (1, 0, "sign must be"),
    (1, np.array([1, 1]), "sign must be"),
    (1.5, 1, "coordinate j=1.5 out of range for n=2"),
    (True, 1, "coordinate j=True out of range for n=2"),
    (0, -1, "coordinate j=0 out of range for n=2"),
    (3, -1, "coordinate j=3 out of range for n=2"),
])
def test_the_ladder_gate_takes_integers_only(j, sign, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        basis._ladder(j, sign, 2)


def test_the_ladder_gate_takes_numpy_integers():
    assert basis._ladder(np.int64(2), np.int8(-1), 2) == (2, -1)
    assert type(basis._ladder(np.int32(1), np.int64(1), 1)[1]) is int


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermite_eval_is_the_product_of_the_table_rows_bit_for_bit(fresh_tables, n):
    # for n >= 2 hermite_eval reattached one Gaussian e^{-|x|^2/2} per point
    # to the product of the scaled values, so it differed in the last bits
    # from the product of the h's that the tables give, and by far more
    # where that Gaussian went subnormal
    rng = np.random.default_rng(2900 + n)
    for _ in range(25):
        k = tuple(rng.integers(0, 120, n).tolist())
        x = rng.uniform(-45.0, 45.0, (6, n)).reshape((6,) if n == 1 else (6, n))
        modes = np.array([k])
        assert np.array_equal(hermite_eval(k, x), point_synthesis_matrix(modes, x)[0])
        for point in x:
            assert hermite_eval(k, point) == point_synthesis_matrix(modes, point)[0, 0]


def _mp_product(k, x):
    """prod_j h_{k_j}(x_j) by mpmath at 60 digits, rounded once to a float."""
    import mpmath

    with mpmath.workdps(60):
        value = mpmath.mpf(1)
        for kj, xj in zip(k, x):
            xj = mpmath.mpf(float(xj))
            norm = mpmath.sqrt(2 ** mpmath.mpf(kj) * mpmath.factorial(kj) * mpmath.sqrt(mpmath.pi))
            value *= mpmath.hermite(kj, xj) * mpmath.exp(-xj * xj / 2) / norm
        return float(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, x", [
    # h_100(38.65) read 0.0 and h_650(38.15) was 1.9e-8 off: both went
    # through a subnormal e^{-x^2/2}; so did the two-dimensional values,
    # 6 % and 1.1e-8 off, whose coordinates are each within 37.63
    ((100,), [38.65]),
    ((650,), [38.15]),
    ((5, 5), [20.0, 33.0]),
    ((40, 40), [27.0, 27.0]),
])
def test_values_past_the_scaled_range_match_mpmath(k, x):
    want = _mp_product(k, x)
    point = x[0] if len(k) == 1 else x
    assert hermite_eval(k, point) == pytest.approx(want, rel=1e-12, abs=0.0)
    single = HermiteExpansion.single(k)
    assert synthesize(single, point)[0] == pytest.approx(want, rel=1e-12, abs=0.0)
