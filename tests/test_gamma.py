import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlp.gamma import (
    BanachModel,
    DiscreteGammaOperator,
    TimeGrid,
    gamma_norm_hilbert,
    gamma_norm_mc,
    gamma_norms,
    h_norm,
    rank_one,
)

GRID = TimeGrid()
EPS = np.finfo(float).eps


def test_time_grid_invariants():
    g = TimeGrid(1e-3, 10.0, 100)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert float(np.sum(g.weights)) == pytest.approx(math.log(10.0 / 1e-3), rel=1e-12)


def test_time_grid_rejects_bad_spans():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 1.0, 1)


@settings(max_examples=40, deadline=None)
@given(st.floats() | st.just("8"))
def test_time_grid_takes_an_integer_node_count(N):
    # TimeGrid(1e-3, 1, 2.5) raised TypeError
    with pytest.raises(ValueError, match="node count N"):
        TimeGrid(1e-3, 1.0, N)
    assert type(TimeGrid(1e-3, 1.0, np.int64(8)).N) is int


@pytest.mark.parametrize("span", [(1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0),
                                  (-math.inf, 1.0)])
def test_time_grid_rejects_non_finite_ends(span):
    # (1e-3, inf) used to build inf nodes and weights with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(*span, 8)


def test_h_norm_exponential_profile():
    # int_0^inf (t e^{-t})^2 dt/t = 1/4
    assert h_norm(GRID.nodes * np.exp(-GRID.nodes), GRID) == pytest.approx(0.5, abs=1e-4)


def test_h_norm_zero():
    assert h_norm(np.zeros(GRID.N), GRID) == 0.0


def test_h_norm_poisson_derivative_profile():
    # -t sqrt(lam) e^{-t sqrt(lam)} has H-norm 1/2 for every lam > 0
    for lam in (0.5, 1.0, 9.0, 25.0):
        r = math.sqrt(lam)
        prof = -GRID.nodes * r * np.exp(-GRID.nodes * r)
        assert h_norm(prof, GRID) == pytest.approx(0.5, abs=1e-4)


def test_h_norm_grid_refinement_converges():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    fine = TimeGrid(GRID.t_min, GRID.t_max, 2 * GRID.N)
    prof2 = fine.nodes * np.exp(-fine.nodes)
    assert abs(h_norm(prof, GRID) - h_norm(prof2, fine)) <= 1e-6


def test_h_norm_rejects_mismatched_samples():
    with pytest.raises(ValueError):
        h_norm(np.zeros(GRID.N - 1), GRID)
    bad = np.zeros(GRID.N)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        h_norm(bad, GRID)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_h_norm_of_a_huge_or_a_tiny_profile(scale):
    # sum(f * f * w) overflowed to inf or underflowed to 0; h_norm is now
    # the Frobenius norm of the rank-one operator with b = [1]
    prof = scale * GRID.nodes * np.exp(-GRID.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = h_norm(prof, GRID)
        assert got == gamma_norm_hilbert(rank_one(prof, [1.0], BanachModel(1, 2.0), GRID))
    assert got == pytest.approx(0.5 * scale, rel=1e-4, abs=0.0)


def test_banach_norm_cases():
    B1 = BanachModel(3, 1.0)
    B2 = BanachModel(3, 2.0)
    Binf = BanachModel(3, math.inf)
    v = np.array([3.0, -4.0, 0.0])
    assert B1.norm(v) == pytest.approx(7.0)
    assert B2.norm(v) == pytest.approx(5.0)
    assert Binf.norm(v) == pytest.approx(4.0)
    assert B2.norm(np.zeros(3)) == 0.0
    # homogeneity / triangle inequality on random tuples
    rng = np.random.default_rng(11)
    for B in (B1, B2, Binf, BanachModel(3, 4.0)):
        for _ in range(10):
            a, b = rng.normal(size=(2, 3))
            c = rng.uniform(-3, 3)
            assert B.norm(c * a) == pytest.approx(abs(c) * B.norm(a), rel=1e-12)
            assert B.norm(a + b) <= B.norm(a) + B.norm(b) + 1e-12


def _norm_of_a_general_axis(v, q):
    """The l^q norm of a one-entry last axis by the branches that longer
    axes take."""
    if math.isinf(q):
        return np.max(np.abs(v), axis=-1)
    if q == 2.0:
        return np.sqrt(np.sum(v * v, axis=-1))
    a = np.abs(np.moveaxis(v, -1, 0), order="C")
    top = np.max(a, axis=0)
    a /= np.where((top > 0) & np.isfinite(top), top, 1.0)
    return top * np.sum(a ** q, axis=0) ** (1.0 / q)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_banach_norm_of_one_entry_is_its_absolute_value(q):
    rng = np.random.default_rng(31)
    B = BanachModel(1, q)
    for shape in [(1,), (7, 1), (16, 1201, 1), (3, 4, 5, 1)]:
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100, size=shape)
        v.flat[0] = 0.0
        got = B.norm(v)
        assert got.shape == shape[:-1]
        assert np.asarray(got).tobytes() == np.asarray(_norm_of_a_general_axis(v, q)).tobytes()
        assert np.array_equal(got, np.abs(v[..., 0]))
    # beyond 1e+-154 the square of the q = 2 branch over- or underflows
    v = np.array([[1e-200], [-1e200], [0.0]])
    assert B.norm(v).tolist() == [1e-200, 1e200, 0.0]


@pytest.mark.parametrize("q", [1.0, 3.0, 4.0, 5.0, 7.0, 64.0])
def test_banach_norm_of_integer_q_takes_products(q):
    # integer q raises the scaled entries by products instead of np.power:
    # a few ulp per power, below rounding once the q-th root is taken
    rng = np.random.default_rng(int(q))
    B = BanachModel(6, q)
    v = rng.normal(size=(50, 6)) * 10.0 ** rng.integers(-100, 100, size=(50, 1))
    v[3] = 0.0
    top = np.max(np.abs(v), axis=-1, keepdims=True)
    want = top[:, 0] * np.sum(np.power(np.abs(v) / np.where(top > 0, top, 1.0), q), axis=-1) ** (1 / q)
    got = B.norm(v)
    assert got[3] == 0.0
    assert np.allclose(got, want, rtol=4e-16, atol=0.0)
    assert BanachModel(2, q).norm([np.inf, 1.0]) == np.inf


@pytest.mark.parametrize("d", [2, 5])
def test_banach_norm_at_q_two_neither_overflows_nor_underflows(d):
    # q = 2 summed unscaled squares: [1e200, 1e200] gave inf with an
    # overflow warning and [1e-200, 1e-200] gave 0.0
    B = BanachModel(d, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200, 1.0):
            got = B.norm(np.full((3, d), scale))
            assert got == pytest.approx(np.full(3, math.sqrt(d) * scale), rel=1e-15, abs=0.0)
        assert B.norm(np.zeros(d)) == 0.0


@pytest.mark.parametrize("q", [400.0, 1022.0, 1023.0, 2000.0, 1e6])
def test_banach_norm_large_q_neither_overflows_nor_underflows(q):
    # a power-of-two scaling leaves the largest entry in [1/2, 1), whose
    # q-th power underflows above q = 1022: [1, 0] read 0 at q = 2000
    B = BanachModel(2, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([10.0, 0.0], [1e-3, 0.0], [1.0, 0.0], [0.5, 0.0], [5e-324, 0.0]):
            assert B.norm(v) == pytest.approx(v[0], rel=1e-12)
        assert B.norm([[0.0, 0.0], [-3.0, 3.0], [1.0, 1.0]]) == pytest.approx(
            [0.0, 3.0 * 2.0 ** (1 / q), 2.0 ** (1 / q)], rel=1e-12
        )


def test_banach_model_rejects_bad_exponent():
    with pytest.raises(ValueError):
        BanachModel(2, 0.5)
    with pytest.raises(ValueError):
        BanachModel(0, 2.0)


def test_banach_model_rejects_nan_exponent():
    with pytest.raises(ValueError, match="q=nan"):
        BanachModel(1, math.nan)
    assert BanachModel(1, math.inf).norm([3.0, -4.0]) == 4.0


def test_operator_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        DiscreteGammaOperator(BanachModel(2, 2.0), GRID, np.zeros((3, GRID.N)))
    with pytest.raises(ValueError, match="finite"):
        DiscreteGammaOperator(
            BanachModel(1, 2.0), GRID, np.full((1, GRID.N), np.inf)
        )


def test_hilbert_norm_single_entry():
    m = np.zeros((2, GRID.N))
    m[1, 7] = 1.0
    T = DiscreteGammaOperator(BanachModel(2, 2.0), GRID, m)
    assert gamma_norm_hilbert(T) == 1.0


def test_hilbert_norm_orthogonal_additivity():
    m = np.zeros((2, GRID.N))
    m[0, 0] = 3.0
    m[1, 5] = 4.0
    T = DiscreteGammaOperator(BanachModel(2, 2.0), GRID, m)
    assert gamma_norm_hilbert(T) == pytest.approx(5.0)


def test_rank_one_hilbert_factorization():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.array([1.0, 2.0, -2.0])
    B = BanachModel(3, 2.0)
    T = rank_one(prof, b, B, GRID)
    assert gamma_norm_hilbert(T) == pytest.approx(h_norm(prof, GRID) * 3.0, rel=1e-12)


def test_rank_one_checks_the_profile_and_the_vector():
    # numpy's "could not be broadcast" and "cannot reshape" errors before
    B, grid = BanachModel(2, 2.0), TimeGrid(1e-3, 1.0, 4)
    with pytest.raises(ValueError, match="profile samples must match the grid nodes"):
        rank_one(np.ones(3), [1.0, 2.0], B, grid)
    with pytest.raises(ValueError, match=r"b needs B.d=2 entries, got shape \(3,\)"):
        rank_one(np.ones(4), [1.0, 2.0, 3.0], B, grid)
    assert rank_one(np.ones(4), [[1.0, 2.0]], B, grid).matrix.shape == (2, 4)


def test_rank_one_zero_vector():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    T = rank_one(prof, np.zeros(2), BanachModel(2, 4.0), GRID)
    est, err = gamma_norm_mc(T, 100, seed=1)
    assert est == 0.0
    assert err == 0.0


def test_rank_one_scaling():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.array([1.0, 1.0])
    B = BanachModel(2, 2.0)
    one = gamma_norm_hilbert(rank_one(prof, b, B, GRID))
    two = gamma_norm_hilbert(rank_one(2.0 * prof, b, B, GRID))
    assert two == pytest.approx(2.0 * one, rel=1e-13)


def test_mc_matches_hilbert_closed_form():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, GRID.N)) * np.exp(-GRID.nodes)  # decaying columns
    T = DiscreteGammaOperator(BanachModel(3, 2.0), GRID, m)
    exact = gamma_norm_hilbert(T)
    est, err = gamma_norm_mc(T, 200000, seed=42)
    # compare squared norms: est^2 is the unbiased mean with stderr err
    assert abs(est * est - exact * exact) <= 3 * err


def test_mc_rank_one_l4():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.array([1.0, -2.0, 0.5, 1.5])
    B = BanachModel(4, 4.0)
    T = rank_one(prof, b, B, GRID)
    est, _ = gamma_norm_mc(T, 200000, seed=7)
    target = h_norm(prof, GRID) * float(B.norm(b))
    assert est == pytest.approx(target, rel=0.02)


def test_mc_rank_one_matches_stated_value():
    # ||b||_q = 3 and h_norm = 1/2 gives gamma norm 1.5 for every q
    prof = GRID.nodes * np.exp(-GRID.nodes)
    for q in (1.0, 3.0, math.inf):
        B = BanachModel(2, q)
        b = np.array([3.0, 0.0]) if q != 1.0 else np.array([2.0, 1.0])
        T = rank_one(prof, b, B, GRID)
        est, _ = gamma_norm_mc(T, 100000, seed=3)
        assert est == pytest.approx(1.5, rel=0.02)


def test_mc_deterministic_and_rejects_small_m():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    T = rank_one(prof, np.array([1.0]), BanachModel(1, 4.0), GRID)
    assert gamma_norm_mc(T, 1000, seed=9) == gamma_norm_mc(T, 1000, seed=9)
    with pytest.raises(ValueError):
        gamma_norm_mc(T, 1, seed=9)


def test_rotation_invariance():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(2, GRID.N)) * np.exp(-GRID.nodes)
    Q, _ = np.linalg.qr(rng.normal(size=(GRID.N, GRID.N)))
    B = BanachModel(2, 4.0)
    T1 = DiscreteGammaOperator(B, GRID, m)
    T2 = DiscreteGammaOperator(B, GRID, m @ Q)
    e1, s1 = gamma_norm_mc(T1, 100000, seed=21)
    e2, s2 = gamma_norm_mc(T2, 100000, seed=22)
    assert abs(e1 * e1 - e2 * e2) <= 2 * (s1 + s2)


def test_mc_error_scales_with_samples():
    # quadrupling M should roughly halve the estimation error vs the q=2
    # closed form, averaged over seeds; over 400 seeds the ratio's spread
    # is about 0.08, so the window below is about 7 of it either side
    rng = np.random.default_rng(23)
    m = rng.normal(size=(2, GRID.N)) * np.exp(-GRID.nodes)
    T = DiscreteGammaOperator(BanachModel(2, 2.0), GRID, m)
    exact = gamma_norm_hilbert(T) ** 2
    errs = {M: [] for M in (1000, 4000)}
    for seed in range(400):
        for M in errs:
            est, _ = gamma_norm_mc(T, M, seed=1000 * M + seed)
            errs[M].append(abs(est * est - exact))
    r = np.mean(errs[1000]) / np.mean(errs[4000])
    assert 2.0 * 0.7 <= r <= 2.0 * 1.3


def test_mc_more_targets_than_nodes_matches_frobenius():
    # d > N: the draw lives in the rank-N image, covariance still exact
    grid = TimeGrid(1e-3, 10.0, 4)
    m = np.random.default_rng(41).normal(size=(8, grid.N))
    T = DiscreteGammaOperator(BanachModel(8, 2.0), grid, m)
    exact = gamma_norm_hilbert(T)
    est, err = gamma_norm_mc(T, 100000, seed=43)
    assert abs(est * est - exact * exact) <= 3 * err


@pytest.mark.parametrize("q", [4.0, math.inf])
def test_mc_rank_one_wide_target(q):
    # a rank-one operator with d = 8 has a singular covariance
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.random.default_rng(47).normal(size=8)
    B = BanachModel(8, q)
    T = rank_one(prof, b, B, GRID)
    est, _ = gamma_norm_mc(T, 100000, seed=53)
    assert est == pytest.approx(h_norm(prof, GRID) * float(B.norm(b)), rel=0.02)


@pytest.mark.parametrize("q", [1.5, math.inf])
def test_mc_zero_operator(q):
    T = DiscreteGammaOperator(BanachModel(3, q), GRID, np.zeros((3, GRID.N)))
    assert gamma_norm_mc(T, 1000, seed=5) == (0.0, 0.0)


def test_mc_zero_operators_return_zeros_without_a_draw(monkeypatch):
    # an all-zero stack (rank 0) drew M empty rows and took the B-norms of
    # M zero vectors per slice
    def norm(self, v):
        raise AssertionError("BanachModel.norm called")

    B = BanachModel(3, 4.0)
    T = DiscreteGammaOperator(B, GRID, np.zeros((3, GRID.N)))
    monkeypatch.setattr(BanachModel, "norm", norm)
    with pytest.raises(ValueError, match="M"):
        gamma_norm_mc(T, 1, seed=0)
    with pytest.raises(ValueError, match="seed"):
        gamma_norm_mc(T, 200000, seed=-1)
    assert gamma_norm_mc(T, 200000, seed=5) == (0.0, 0.0)
    est, err = gamma_norms(np.zeros((2, 3, 512)), B)
    assert est.tolist() == [0.0, 0.0] and err.tolist() == [0.0, 0.0]


def test_q_ordering():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(3, GRID.N)) * np.exp(-GRID.nodes)
    ests = {}
    for q in (1.0, 2.0, math.inf):
        T = DiscreteGammaOperator(BanachModel(3, q), GRID, m)
        ests[q], _ = gamma_norm_mc(T, 50000, seed=2)
    assert ests[math.inf] <= ests[2.0] <= ests[1.0]


def test_gamma_norm_dispatch():
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.array([1.0, 2.0])
    T2 = rank_one(prof, b, BanachModel(2, 2.0), GRID)
    (est,), (err,) = gamma_norms(T2.matrix[None], T2.B)
    assert err == 0.0
    assert est == gamma_norm_hilbert(T2)
    T4 = rank_one(prof, b, BanachModel(2, 4.0), GRID)
    (est,), (err,) = gamma_norms(T4.matrix[None], T4.B, M=50000, seed=4)
    assert err > 0.0
    assert est == pytest.approx(h_norm(prof, GRID) * float(T4.B.norm(b)), rel=0.02)
    # a stack of one operator is a Monte Carlo call on it, bit for bit
    assert (est, err) == gamma_norm_mc(T4, 50000, 4)


@pytest.mark.parametrize("M", [math.nan, math.inf, 2.5, 1000.0, "1000", -3])
def test_mc_rejects_a_sample_count_that_is_not_an_integer_at_least_two(M):
    # nan used to return (nan, nan), 2.5 raised TypeError and inf never returned
    T = rank_one(GRID.nodes * np.exp(-GRID.nodes), np.array([1.0]), BanachModel(1, 4.0), GRID)
    with pytest.raises(ValueError, match="M"):
        gamma_norm_mc(T, M, seed=0)


@pytest.mark.parametrize("seed", [1.5, math.nan, -1, None])
def test_mc_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    T = rank_one(GRID.nodes * np.exp(-GRID.nodes), np.array([1.0]), BanachModel(1, 4.0), GRID)
    with pytest.raises(ValueError, match="seed"):
        gamma_norm_mc(T, 100, seed)


def test_mc_takes_numpy_integers():
    T = rank_one(GRID.nodes * np.exp(-GRID.nodes), np.array([1.0, 2.0]), BanachModel(2, 4.0), GRID)
    assert gamma_norm_mc(T, np.int64(500), np.uint32(3)) == gamma_norm_mc(T, 500, 3)


@pytest.mark.parametrize("d", [2.5, math.nan, "2"])
def test_banach_model_rejects_a_dimension_that_is_not_an_integer(d):
    with pytest.raises(ValueError, match="dimension"):
        BanachModel(d, 2.0)
    assert BanachModel(np.int64(3), 2.0).d == 3


@pytest.mark.parametrize("N", [4, 64])
@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cov_factor_keeps_the_rank_and_the_covariance(rank, d, N):
    from hermlp.gamma import _cov_factor

    rng = np.random.default_rng(100 * rank + 10 * d + N)
    A = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, N))
    F, ranks = _cov_factor((A @ A.T)[None], d * max(d, N) * EPS)
    assert ranks.tolist() == [rank] and F.shape == (1, rank, d)
    scale = np.linalg.norm(A, 2) ** 2
    assert np.max(np.abs(F[0].T @ F[0] - A @ A.T)) <= 1e-13 * scale


@pytest.mark.parametrize("q", [1.5, 4.0, math.inf])
def test_mc_rank_one_draws_one_normal_per_sample(q):
    # a d = 8 rank-one operator keeps one row +-b^T h_norm of its factor, so
    # sample i is |g_i| h_norm ||b||_q with g the first M normals of the seed
    prof = GRID.nodes * np.exp(-GRID.nodes)
    b = np.random.default_rng(61).normal(size=8)
    B = BanachModel(8, q)
    M, seed = 30011, 67
    est, _ = gamma_norm_mc(rank_one(prof, b, B, GRID), M, seed)
    g = np.random.default_rng(seed).standard_normal(M)
    want = h_norm(prof, GRID) * float(B.norm(b)) * math.sqrt(float(np.mean(g * g)))
    assert est == pytest.approx(want, rel=1e-14)


# (estimate, stderr) of full-rank operators, recorded from the eigh factor
# of the covariance; the QR factor before it drew other normals of the same
# law, and CHANGES.md lists its values
def _full_rank_operators():
    rng = np.random.default_rng(2024)
    g = TimeGrid()
    yield DiscreteGammaOperator(BanachModel(3, 4.0), g,
                                rng.normal(size=(3, g.N)) * np.exp(-g.nodes)), 30000, 7
    g2 = TimeGrid(1e-3, 10.0, 64)
    yield DiscreteGammaOperator(BanachModel(2, 1.5), g2, rng.normal(size=(2, g2.N))), 25000, 8
    g3 = TimeGrid(1e-3, 10.0, 4)
    yield DiscreteGammaOperator(BanachModel(8, math.inf), g3, rng.normal(size=(8, g3.N))), 5000, 9


FULL_RANK_PINS = [
    (27.04141557261438, 3.531594010201359),
    (12.414986759317017, 0.9940197457583763),
    (4.413793325755939, 0.29056809833602093),
]


def test_mc_full_rank_operators_keep_their_recorded_estimates():
    for (T, M, seed), pin in zip(_full_rank_operators(), FULL_RANK_PINS):
        assert gamma_norm_mc(T, M, seed) == pytest.approx(pin, rel=1e-15, abs=0.0)


@st.composite
def _stacks(draw):
    S, d, N = (draw(st.sampled_from(c)) for c in ([1, 5], [1, 2, 3, 8], [1, 2, 4, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.empty((S, d, N))
    for s in range(S):
        rank = draw(st.integers(0, min(d, N)))
        A[s] = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, N))
        A[s, draw(st.lists(st.booleans(), min_size=d, max_size=d))] = 0.0
    exponents = draw(st.lists(st.sampled_from([-300, 0, 300]), min_size=S * d, max_size=S * d))
    return np.ldexp(A, np.reshape(exponents, (S, d, 1)))


@settings(max_examples=300, deadline=None)
@given(_stacks())
def test_cov_factor_keeps_the_numerical_rank_and_the_covariance(A):
    # on the scaled slices of `_mc_stack`: the rank is the count of singular
    # values above sqrt(cut) sigma_max, F^T F is A A^T up to the dropped
    # eigenvalues (at most d cut sigma_max^2) and rounding, and the rows
    # below a slice's rank are zero; rows scaled by 2^-300 next to rows of
    # 2^300 fall below the cut, like zero rows
    from hermlp.gamma import _binary_scaled, _cov_factor

    S, d, N = A.shape
    cut = d * max(d, N) * EPS
    A, _ = _binary_scaled(A)
    F, ranks = _cov_factor(A @ A.swapaxes(1, 2), cut)
    sv = np.linalg.svd(A, compute_uv=False)
    assert ranks.tolist() == np.sum(sv > math.sqrt(cut) * sv[:, :1], axis=1).tolist()
    assert F.shape == (S, max(ranks), d)
    for f, a, rank, top in zip(F, A, ranks, sv[:, 0]):
        assert np.max(np.abs(f.T @ f - a @ a.T)) <= 2 * d * cut * top * top
        assert not f[rank:].any()


@pytest.mark.parametrize("d, N", [(3, 1), (8, 1), (8, 2), (2, 1)])
def test_cov_factor_keeps_rank_one_slices_at_rank_one(d, N):
    # where max(d, N) is small, eigh's noise eigenvalues of a rank-one C come
    # closest to the cut (2.1 eps w_max at d = 8, N = 2, against the cut's
    # d max(d, N) eps = 64 eps); rows scaled by 2^+-300 or zeroed keep the
    # rank one, and every slice keeps one row of its factor
    from hermlp.gamma import _binary_scaled, _cov_factor

    rng = np.random.default_rng(10 * d + N)
    S = 20000
    A = rng.normal(size=(S, d, 1)) * rng.normal(size=(S, 1, N))
    A = np.ldexp(A, rng.choice([-300, 0, 300], size=(S, d, 1)))
    zero = rng.random((S, d)) < 0.3
    zero[np.arange(S), rng.integers(d, size=S)] = False
    A[zero] = 0.0
    A, _ = _binary_scaled(A)
    _, ranks = _cov_factor(A @ A.swapaxes(1, 2), d * max(d, N) * EPS)
    assert np.all(ranks == 1)


def _pinned_rank_one(d, q, zero):
    g = TimeGrid(1e-4, 40.0, 128)
    b = np.random.default_rng(100 + d).normal(size=d)
    if zero:
        b[::3] = 0.0
    return rank_one(g.nodes * np.exp(-g.nodes), b, BanachModel(d, q), g)


# (d, zero target entries, q, M) -> (estimate, stderr) of the rank-one
# operator above with seed 11, recorded from the eigh factor of the
# covariance; d = 1 with a zero entry is the zero operator
RANK_ONE_PINS = {
    (1, False, 1.5, 2): (0.3799806404691233, 0.14420280080132208),
    (1, False, 1.5, 7500): (0.3979651764761406, 0.002599993828644039),
    (1, False, 4.0, 2): (0.3799806404691233, 0.14420280080132208),
    (1, False, 4.0, 7500): (0.3979651764761406, 0.002599993828644039),
    (1, False, math.inf, 2): (0.3799806404691233, 0.14420280080132208),
    (1, False, math.inf, 7500): (0.3979651764761406, 0.002599993828644039),
    (1, True, 1.5, 2): (0.0, 0.0),
    (1, True, 1.5, 7500): (0.0, 0.0),
    (1, True, 4.0, 2): (0.0, 0.0),
    (1, True, 4.0, 7500): (0.0, 0.0),
    (1, True, math.inf, 2): (0.0, 0.0),
    (1, True, math.inf, 7500): (0.0, 0.0),
    (3, False, 1.5, 2): (1.0286805158905215, 1.0568461818916648),
    (3, False, 1.5, 7500): (1.0773681062764677, 0.019055063670574357),
    (3, False, 4.0, 2): (0.6941429174270737, 0.48122540678540354),
    (3, False, 4.0, 7500): (0.7269967972380839, 0.008676551917688515),
    (3, False, math.inf, 2): (0.6154421976935364, 0.37829037829955725),
    (3, False, math.inf, 7500): (0.6445711616086248, 0.006820620983425794),
    (3, True, 1.5, 2): (0.755619095349724, 0.5702385894743113),
    (3, True, 1.5, 7500): (0.7913826511222745, 0.01028147029911431),
    (3, True, 4.0, 2): (0.6253241620471446, 0.3905360904854395),
    (3, True, 4.0, 7500): (0.6549208406950628, 0.0070414126458187565),
    (3, True, math.inf, 2): (0.6154421976935363, 0.378290378299557),
    (3, True, math.inf, 7500): (0.6445711616086246, 0.00682062098342579),
    (8, False, 1.5, 2): (2.742639518987853, 7.512564501311885),
    (8, False, 1.5, 7500): (2.872449024868492, 0.1354524408136329),
    (8, False, 4.0, 2): (1.544939200014246, 2.3838204452268155),
    (8, False, 4.0, 7500): (1.6180613849682093, 0.042980569113387004),
    (8, False, math.inf, 2): (1.4065309995156363, 1.9758290726185108),
    (8, False, math.inf, 7500): (1.4731023052920171, 0.03562443563312886),
    (8, True, 1.5, 2): (1.3466758396857275, 1.8112437173388767),
    (8, True, 1.5, 7500): (1.4104141925099847, 0.03265694189767908),
    (8, True, 4.0, 2): (0.991454210718175, 0.9817390769055884),
    (8, True, 4.0, 7500): (1.0383798749571636, 0.017700873541353728),
    (8, True, math.inf, 2): (0.9682073258144922, 0.9362406282721488),
    (8, True, math.inf, 7500): (1.0140327117917118, 0.016880531044519673),
}


@pytest.mark.parametrize("key", list(RANK_ONE_PINS))
def test_mc_rank_one_keeps_its_recorded_bits(key):
    d, zero, q, M = key
    got = gamma_norm_mc(_pinned_rank_one(d, q, zero), M, 11)
    if q == 4.0:  # integer q takes products, not np.power: a few ulp may move
        assert got == pytest.approx(RANK_ONE_PINS[key], rel=1e-15, abs=0.0)
    else:
        assert got == RANK_ONE_PINS[key]


def test_composed_maximal_q4_keeps_its_recorded_estimates():
    from hermlp.basis import HermiteExpansion
    from hermlp.semigroups import composed_maximal

    got = []
    for count in (1, 3):
        rng = np.random.default_rng(40 + count)
        ks = rng.choice(12, size=count, replace=False)
        e = HermiteExpansion(1, 2, int(max(ks)), {(int(k),): rng.normal(size=2) for k in ks})
        got.append(composed_maximal(e, 0.4, 1.0, "g", BanachModel(2, 4.0), TimeGrid(1e-3, 20.0, 32),
                                    M=2000, seed=7))
    assert got == pytest.approx([0.053459490164664523, 0.3482974430253266], rel=1e-15, abs=0.0)


def test_gamma_norms_of_a_stack_match_the_single_operator_norms():
    # the slices share one draw; full-rank slices of one rank get what
    # each gets alone, up to the order the blocks are summed in
    rng = np.random.default_rng(31)
    g = TimeGrid(1e-3, 10.0, 32)
    A = rng.normal(size=(3, 2, g.N))
    for q in (1.5, 4.0, math.inf):
        B = BanachModel(2, q)
        est, err = gamma_norms(A, B, M=30000, seed=5)
        alone = [gamma_norm_mc(DiscreteGammaOperator(B, g, a), 30000, 5) for a in A]
        assert np.allclose(est, [a[0] for a in alone], rtol=1e-14, atol=0.0)
        assert np.allclose(err, [a[1] for a in alone], rtol=1e-12, atol=0.0)
    est, err = gamma_norms(A, BanachModel(2, 2.0))
    assert np.allclose(est, [gamma_norm_hilbert(DiscreteGammaOperator(BanachModel(2, 2.0), g, a))
                             for a in A], rtol=1e-15, atol=0.0)
    assert not err.any()


@pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones((1, 2, 4)), np.ones((0, 3, 4)),
                               np.full((1, 3, 4), np.inf)])
def test_gamma_norms_reject_a_bad_stack(A):
    with pytest.raises(ValueError):
        gamma_norms(A, BanachModel(3, 4.0), M=100)


@pytest.mark.parametrize("S", [1, 5])
@pytest.mark.parametrize("q", [1.5, 4.0, math.inf])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_mc_rank_one_route_matches_the_entrywise_norms(d, q, S):
    # every slice b_s (x) h_s has rank <= 1 (slices 1 and 3 of the S = 5
    # stack are zero), so sample i of slice s is g_i ||h_s|| b_s up to
    # sign; here its norm is taken entry by entry for every sample
    from hermlp.gamma import _mc_stack

    rng = np.random.default_rng(10 * d + S)
    g = TimeGrid(1e-3, 10.0, 64)
    b = rng.normal(size=(S, d))
    h = rng.normal(size=(S, g.N)) * np.exp(-g.nodes)
    if S == 5:
        b[1] = 0.0
        h[3] = 0.0
    B = BanachModel(d, q)
    M, seed = 25013, 73
    est, err = _mc_stack(b[:, :, None] * h[:, None, :], B, M, seed)
    draws = np.random.default_rng(seed).standard_normal(M)
    for s in range(S):
        sq = B.norm(draws[:, None] * (np.linalg.norm(h[s]) * b[s])) ** 2
        assert est[s] == pytest.approx(math.sqrt(np.mean(sq)), rel=1e-14, abs=0.0)
        assert err[s] == pytest.approx(math.sqrt(np.var(sq, ddof=1) / M), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("b", [(0.0, 3.0), (0.0, 0.0, 1.0), (1.0, 0.0, -2.0), (0.0, 2.0, 0.0, 1.0)])
def test_cov_factor_of_a_rank_one_operator_with_zero_target_entries(b):
    # a non-pivoting QR of matrix.T kept a row of R for a zero column ahead
    # of a nonzero one, so (0, 3) kept 2 rows and (0, 0, 1) 3; the
    # eigenvector may carry rounding (-1.2e-16 of ||F|| for (1, 0, -2)) in
    # a zero entry, so the entries are compared to an absolute tolerance
    from hermlp.gamma import _cov_factor

    b = np.array(b)
    prof = GRID.nodes * np.exp(-GRID.nodes)
    A = rank_one(prof, b, BanachModel(b.size, 4.0), GRID).matrix
    F, ranks = _cov_factor((A @ A.T)[None], b.size * GRID.N * EPS)
    assert ranks.tolist() == [1]
    assert np.allclose(np.abs(F[0, 0]), h_norm(prof, GRID) * np.abs(b), rtol=0.0,
                       atol=1e-15 * np.linalg.norm(F))


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_mc_scales_by_powers_of_two_exactly(k):
    # 2^k T has the estimate 2^k and, in squared units, the stderr 4^k of
    # T's: at k = +-600 that stderr overflows to inf or underflows to 0
    rng = np.random.default_rng(79)
    g = TimeGrid(1e-3, 10.0, 32)
    for A in (rng.normal(size=(3, g.N)), rng.normal(size=(3, 1)) * rng.normal(size=(1, g.N))):
        for q in (1.5, 4.0, math.inf):
            T = DiscreteGammaOperator(BanachModel(3, q), g, A)
            est, err = gamma_norm_mc(T, 5000, 83)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est_k, err_k = gamma_norm_mc(DiscreteGammaOperator(T.B, g, np.ldexp(A, k)), 5000, 83)
            assert est_k == math.ldexp(est, k)
            with np.errstate(over="ignore", under="ignore"):
                assert err_k == np.ldexp(err, 2 * k)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_hilbert_norms_scale_by_powers_of_two_exactly(k):
    # entries of 1e200 used to give inf and entries of 1e-170 squares of 0
    A = np.random.default_rng(89).normal(size=(2, 3, GRID.N)) * np.exp(-GRID.nodes)
    B = BanachModel(3, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in A:
            one = gamma_norm_hilbert(DiscreteGammaOperator(B, GRID, a))
            assert gamma_norm_hilbert(DiscreteGammaOperator(B, GRID, np.ldexp(a, k))) == math.ldexp(one, k)
        est, err = gamma_norms(np.ldexp(A, k), B)
        assert est.tolist() == np.ldexp(gamma_norms(A, B)[0], k).tolist()
        assert not err.any()


def test_hilbert_and_q2_gamma_norm_take_one_frobenius_route():
    # a BLAS dot and a pairwise sum used to disagree by up to 2 ulp
    rng = np.random.default_rng(97)
    for _ in range(1000):
        d, N = int(rng.integers(1, 9)), int(rng.integers(2, 2049))
        A = rng.normal(size=(d, N)) * 10.0 ** rng.uniform(-3.0, 3.0)
        T = DiscreteGammaOperator(BanachModel(d, 2.0), TimeGrid(1e-3, 20.0, N), A)
        assert gamma_norm_hilbert(T) == gamma_norms(T.matrix[None], T.B)[0][0]


def test_time_grid_rejects_a_span_whose_ratio_overflows():
    # TimeGrid(1e-200, 1e200, 8).weights were all inf, and h_norm on that
    # grid returned inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_min, t_max in ((1e-200, 1e200), (np.float64(1e-300), np.float64(1e10))):
            with pytest.raises(ValueError, match="time span t_max/t_min"):
                TimeGrid(t_min, t_max, 8)
        # the widest spans that fit keep finite weights
        assert np.all(np.isfinite(TimeGrid(1e-150, 1e150, 8).weights))


def test_time_grids_compare_and_hash_by_their_parameters():
    # nodes and weights are functions of (t_min, t_max, N): comparing their
    # arrays raised "truth value of an array ... is ambiguous", and hash a
    # TypeError
    assert TimeGrid() == TimeGrid()
    assert TimeGrid(0.1, 1, 4) == TimeGrid(0.1, 1.0, 4)
    assert TimeGrid() in [TimeGrid(0.1, 1.0, 4), TimeGrid()]
    assert TimeGrid(0.1, 1.0, 4) != TimeGrid(0.1, 1.0, 5)
    assert TimeGrid(0.1, 1.0, 4) != TimeGrid(0.2, 1.0, 4)
    assert hash(TimeGrid(0.1, 1, 4)) == hash(TimeGrid(0.1, 1.0, 4))
    assert len({TimeGrid(), TimeGrid(), TimeGrid(0.1, 1.0, 4)}) == 2
