import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hermlp.basis import HermiteExpansion, SpatialGrid, hermite_eval, synthesize, synthesize_grid
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.kernels import ShiftedOperator, g_kernel, ladder_kernel
from hermlp.semigroups import (
    apply_semigroup,
    composed_maximal,
    gfunction,
    gfunction_l2_sq,
    inv_sqrt,
    ladder_transform,
    maximal_norm,
    riesz,
)
from hermlp.verify import check_polarization

TIMES = TimeGrid()
SMALL_TIMES = TimeGrid(0.1, 5.0, 12)
GRID = SpatialGrid(R=6.0, h=0.25, n=1)


def expansion(pairs, n=1):
    K = max(sum((k,) if isinstance(k, int) else k) for k, _ in pairs)
    return HermiteExpansion(
        n=n, d=1, K=K, coeffs={(k,) if isinstance(k, int) else k: [v] for k, v in pairs}
    )


def test_semigroup_small_time_is_near_identity():
    e = expansion([(0, 1.0), (3, -0.5)])
    out = apply_semigroup(e, "heat", 1e-12)
    for k, c in e.coeffs.items():
        assert out.coeffs[k][0] == pytest.approx(c[0], rel=1e-10)


def test_poisson_ground_mode_factor():
    e = expansion([(0, 1.0)])
    out = apply_semigroup(e, "poisson", 1.0)
    assert out.coeffs[(0,)][0] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_semigroup_law():
    e = expansion([(0, 1.0), (2, 2.0), (5, -1.0)])
    for kind in ("heat", "poisson"):
        once = apply_semigroup(apply_semigroup(e, kind, 0.3), kind, 0.9)
        direct = apply_semigroup(e, kind, 1.2)
        for k in e.coeffs:
            assert once.coeffs[k][0] == pytest.approx(direct.coeffs[k][0], rel=1e-13)


def test_semigroup_factor_at_a_huge_time_is_zero_without_a_warning():
    # -t * r was a numpy scalar product, which warned where it overflowed;
    # the factor is 0.0 either way, and every finite product keeps its bits
    e = expansion([(0, 1.0), (1, 2.0), (7, -0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("heat", "poisson"):
            for t in (1e308, np.float64(1e308), np.finfo(float).max):
                assert not apply_semigroup(e, kind, t).C.any()
            for t in np.geomspace(1e-3, 1e3, 25):
                rates = 2.0 * np.array([0.0, 1.0, 7.0]) + 1.0
                rates = rates if kind == "heat" else np.sqrt(rates)
                want = [math.exp(-t * r) * c for r, c in zip(rates, (1.0, 2.0, -0.5))]
                assert apply_semigroup(e, kind, t).C[:, 0].tolist() == want


def test_semigroup_rejects_bad_input():
    e = expansion([(0, 1.0)])
    with pytest.raises(ValueError, match="kind"):
        apply_semigroup(e, "wave", 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        apply_semigroup(e, "heat", -1.0)
    with pytest.raises(ValueError, match="shift"):
        apply_semigroup(e, "poisson", 1.0, alpha=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="time .* is not finite"):
            apply_semigroup(e, "heat", bad)
        with pytest.raises(ValueError, match="shift alpha=.* is not finite"):
            apply_semigroup(e, "heat", 1.0, alpha=bad)
        with pytest.raises(ValueError, match="shift alpha=.* is not finite"):
            gfunction_l2_sq(e, bad)


@settings(max_examples=20, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), n=st.integers(1, 2))
def test_point_maximal_functions_reject_non_finite_points(bad, n):
    e = HermiteExpansion.single((1,) * n)
    x = bad if n == 1 else np.array([0.2, bad])
    B = BanachModel(1, 2.0)
    with pytest.raises(ValueError, match="points must be finite"):
        maximal_norm(e, x, "heat", 0.0, B, SMALL_TIMES)
    with pytest.raises(ValueError, match="points must be finite"):
        composed_maximal(e, x, 0.0, "g", B, SMALL_TIMES, M=100)


def test_negative_shift_allowed_modewise():
    # alpha = -2 with n = 1 works when every mode has 2|k| + n - 2 > 0
    e = expansion([(1, 1.0), (4, 0.5)])
    out = apply_semigroup(e, "poisson", 1.0, alpha=-2.0)
    assert out.coeffs[(1,)][0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    bad = expansion([(0, 1.0)])
    with pytest.raises(ValueError, match="shift"):
        apply_semigroup(bad, "poisson", 1.0, alpha=-2.0)


def test_gfunction_frozen_value():
    # single ground mode at x=0, t=1: -e^{-1} pi^{-1/4}
    e = expansion([(0, 1.0)])
    grid = SpatialGrid(R=6.0, h=6.0, n=1)  # nodes at -6, 0, 6
    times = TimeGrid(1.0, 2.0, 2)
    f = gfunction(e, 0.0, grid, times)
    x0 = np.argmin(np.abs(grid.axis))
    assert f.values[x0, 0, 0] == pytest.approx(
        -math.exp(-1.0) * math.pi ** -0.25, rel=1e-13
    )


def test_gfunction_zero_expansion():
    e = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    f = gfunction(e, 0.0, GRID, SMALL_TIMES)
    assert np.all(f.values == 0.0)


def test_gfunction_matches_kernel_quadrature():
    e = expansion([(1, 0.7), (3, -0.2)])
    op = ShiftedOperator(0.0, 1)
    f = gfunction(e, 0.0, GRID, SMALL_TIMES)
    for xi in (10, 24):
        x = GRID.axis[xi]
        for ti in (0, 5, 11):
            t = SMALL_TIMES.nodes[ti]
            val, _ = quad(
                lambda y: g_kernel(x, y, t, op) * synthesize(e, y)[0],
                -12,
                12,
                limit=300,
            )
            assert f.values[xi, ti, 0] == pytest.approx(val, abs=1e-6)


def test_gfunction_plancherel_exact():
    e = expansion([(0, 1.0), (2, -2.0), (7, 0.3)])
    assert gfunction_l2_sq(e, 0.0) == 0.25 * e.l2_norm_sq()
    assert gfunction_l2_sq(e, 3.0) == 0.25 * e.l2_norm_sq()


def test_gfunction_plancherel_by_quadrature():
    e = expansion([(0, 1.0), (2, -2.0)])
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    f = gfunction(e, 0.0, grid, TIMES)
    total = float(
        np.einsum("xtc,x,t->", f.values ** 2, grid.weights, TIMES.weights)
    )
    assert total == pytest.approx(0.25 * e.l2_norm_sq(), rel=1e-3)


def test_ladder_annihilates_ground_mode():
    e = expansion([(0, 1.0)])
    f = ladder_transform(e, 1, +1, GRID, SMALL_TIMES)
    assert np.all(f.values == 0.0)


def test_ladder_single_mode_value():
    # T_{1,+} h_1 at (x,t) = t sqrt(2) e^{-t sqrt(3)} h_0(x)
    e = expansion([(1, 1.0)])
    f = ladder_transform(e, 1, +1, GRID, SMALL_TIMES)
    for xi in (5, 20):
        x = GRID.axis[xi]
        for ti in (0, 7):
            t = SMALL_TIMES.nodes[ti]
            expected = t * math.sqrt(2) * math.exp(-t * math.sqrt(3)) * hermite_eval(0, x)
            assert f.values[xi, ti, 0] == pytest.approx(float(expected), rel=1e-12)


def test_ladder_matches_kernel_quadrature():
    e = expansion([(1, 1.0), (2, 0.5)])
    f = ladder_transform(e, 1, +1, GRID, SMALL_TIMES)
    for xi, ti in [(12, 2), (30, 8)]:
        x = GRID.axis[xi]
        t = SMALL_TIMES.nodes[ti]
        val, _ = quad(
            lambda y: ladder_kernel(x, y, t, 1, +1) * synthesize(e, y)[0],
            -12,
            12,
            limit=300,
        )
        assert f.values[xi, ti, 0] == pytest.approx(val, abs=1e-6)


def test_riesz_values():
    e = expansion([(1, 1.0)])
    out = riesz(e, 1, +1)
    assert list(out.coeffs) == [(0,)]
    assert out.coeffs[(0,)][0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert riesz(expansion([(0, 1.0)]), 1, +1).coeffs == {}


def test_riesz_lowering_sign():
    e = expansion([(0, 1.0)])
    out = riesz(e, 1, -1)
    assert out.coeffs[(1,)][0] == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_riesz_contracts_l2():
    rng = np.random.default_rng(2)
    e = expansion([(k, float(v)) for k, v in enumerate(rng.normal(size=9))])
    assert riesz(e, 1, +1).l2_norm() <= e.l2_norm() + 1e-14


def test_riesz_2d_second_coordinate():
    e = HermiteExpansion(n=2, d=1, K=3, coeffs={(1, 2): [1.0]})
    out = riesz(e, 2, +1)
    assert out.coeffs[(1, 1)][0] == pytest.approx(math.sqrt(4.0 / 8.0), rel=1e-14)


def test_inv_sqrt_ground_mode_identity():
    e = expansion([(0, 1.0)])
    assert inv_sqrt(e, 0.0).coeffs[(0,)][0] == 1.0


def test_inv_sqrt_idempotence():
    e = expansion([(2, 3.0), (4, -1.0)])
    twice = inv_sqrt(inv_sqrt(e, 1.0), 1.0)
    for k, c in e.coeffs.items():
        assert twice.coeffs[k][0] == pytest.approx(c[0] / e.eigenvalue(k, 1.0), rel=1e-14)


def test_riesz_factors_through_inv_sqrt():
    # R_{j,+} = (d/dx_j + x_j) L^{-1/2}: the ladder amplitude sqrt(2 k_j)
    # applied after 1/sqrt(2|k|+n) reproduces the Riesz coefficient
    rng = np.random.default_rng(8)
    e = expansion([(k, float(v)) for k, v in enumerate(rng.normal(size=7), start=0)])
    half = inv_sqrt(e, 0.0)
    r = riesz(e, 1, +1)
    for k, c in half.coeffs.items():
        if k[0] == 0:
            continue
        target = (k[0] - 1,)
        assert r.coeffs[target][0] == pytest.approx(
            math.sqrt(2 * k[0]) * c[0], rel=1e-14
        )


def test_riesz_minus_coordinate_is_derivative():
    # R_{1,+} f - x L^{-1/2} f = d/dx (L^{-1/2} f), checked by central
    # finite differences of the synthesized function
    e = expansion([(1, 1.0), (3, -0.4), (6, 0.2)])
    half = inv_sqrt(e, 0.0)
    lhs = synthesize_grid(riesz(e, 1, +1), GRID) - GRID.axis[:, None] * synthesize_grid(half, GRID)
    h = 1e-5
    for xi in (8, 24, 40):
        x = GRID.axis[xi]
        fd = (synthesize(half, x + h)[0] - synthesize(half, x - h)[0]) / (2 * h)
        assert lhs[xi, 0] == pytest.approx(fd, abs=1e-5)


def _per_mode_field(e, grid, times, modes):
    """Reference route: sum over (m, prof, c) of h_m(x) prof(t) c, one
    hermite_eval per mode on the grid points."""
    values = np.zeros((grid.size, times.N, e.d))
    for m, prof, c in modes:
        hm = np.asarray(hermite_eval(m, grid.points)).reshape(grid.size)
        values += hm[:, None, None] * prof[None, :, None] * c[None, None, :]
    return values


def _g_modes(e, alpha, t):
    for k, c in e.coeffs.items():
        r = math.sqrt(e.eigenvalue(k, alpha))
        yield k, -t * r * np.exp(-t * r), c


def _ladder_modes(e, j, sign, t):
    for k, c in e.coeffs.items():
        kj = k[j - 1]
        if sign == +1 and kj == 0:
            continue
        amp = math.sqrt(2 * kj) if sign == +1 else -math.sqrt(2 * kj + 2)
        m = tuple(kk - sign * (i == j - 1) for i, kk in enumerate(k))
        yield m, t * amp * np.exp(-t * math.sqrt(e.eigenvalue(k, 0.0))), c


def _assert_field_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_fields_match_per_mode_sum_1d():
    rng = np.random.default_rng(7)
    grid = SpatialGrid(R=9.0, h=0.05, n=1)
    times = TimeGrid(1e-3, 20.0, 24)
    e = HermiteExpansion(n=1, d=3, K=20, coeffs={(k,): rng.normal(size=3) for k in range(21)})
    t = times.nodes
    for alpha in (0.0, 2.5):
        _assert_field_close(
            gfunction(e, alpha, grid, times).values,
            _per_mode_field(e, grid, times, _g_modes(e, alpha, t)),
        )
    for sign in (+1, -1):
        _assert_field_close(
            ladder_transform(e, 1, sign, grid, times).values,
            _per_mode_field(e, grid, times, _ladder_modes(e, 1, sign, t)),
        )


def test_fields_match_per_mode_sum_2d():
    rng = np.random.default_rng(8)
    grid = SpatialGrid(R=6.0, h=0.25, n=2)
    times = TimeGrid(1e-2, 10.0, 6)
    ks = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    e = HermiteExpansion(n=2, d=2, K=4, coeffs={k: rng.normal(size=2) for k in ks})
    t = times.nodes
    _assert_field_close(
        gfunction(e, 0.5, grid, times).values,
        _per_mode_field(e, grid, times, _g_modes(e, 0.5, t)),
    )
    for j in (1, 2):
        for sign in (+1, -1):
            _assert_field_close(
                ladder_transform(e, j, sign, grid, times).values,
                _per_mode_field(e, grid, times, _ladder_modes(e, j, sign, t)),
            )


def test_ladder_transform_rejects_bad_sign_and_coordinate():
    e = expansion([(1, 1.0)])
    with pytest.raises(ValueError, match="sign"):
        ladder_transform(e, 1, 0, GRID, SMALL_TIMES)
    with pytest.raises(ValueError, match="out of range"):
        ladder_transform(e, 2, +1, GRID, SMALL_TIMES)


def test_ladder_riesz_identity():
    # t (d/dx + x) P_t f = -(t d/dt P_t^{L+2}) R_{1,+} f
    rng = np.random.default_rng(13)
    e = expansion([(k, float(v)) for k, v in enumerate(rng.normal(size=6))])
    lhs = ladder_transform(e, 1, +1, GRID, SMALL_TIMES)
    rhs = gfunction(riesz(e, 1, +1), 2.0, GRID, SMALL_TIMES)
    assert np.max(np.abs(lhs.values + rhs.values)) <= 1e-10


def test_ladder_riesz_identity_lowering():
    # sign - analogue with shift -2; valid here since every target mode
    # k + e_1 has 2|k + e_1| + n - 2 > 0
    e = expansion([(0, 1.0), (2, -0.7)])
    lhs = ladder_transform(e, 1, -1, GRID, SMALL_TIMES)
    rhs = gfunction(riesz(e, 1, -1), -2.0, GRID, SMALL_TIMES)
    assert np.max(np.abs(lhs.values + rhs.values)) <= 1e-10


def test_maximal_norm_ground_mode():
    e = expansion([(0, 1.0)])
    B = BanachModel(1, 2.0)
    for x in (0.0, 1.0, 2.5):
        v = maximal_norm(e, x, "heat", 0.0, B, TIMES)
        assert v == pytest.approx(float(hermite_eval(0, x)), rel=1e-12)


def test_maximal_norm_zero():
    zero = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    assert maximal_norm(zero, 0.3, "poisson", 0.0, BanachModel(1, 2.0), TIMES) == 0.0


def test_maximal_norm_shift_monotone():
    e = expansion([(0, 1.0), (2, 0.5)])
    B = BanachModel(1, 2.0)
    for x in (0.0, 0.7, 1.9):
        v0 = maximal_norm(e, x, "poisson", 0.0, B, TIMES)
        v2 = maximal_norm(e, x, "poisson", 2.0, B, TIMES)
        assert v2 <= v0 + 1e-14


def test_semigroup_positivity():
    # heat and poisson keep h_0-dominated positive samples positive
    e = expansion([(0, 1.0), (1, 0.08), (2, 0.05)])
    base = synthesize_grid(e, GRID)[:, 0]
    assert np.all(base > 0)
    for kind in ("heat", "poisson"):
        for t in (0.1, 1.0, 4.0):
            out = synthesize_grid(apply_semigroup(e, kind, t), GRID)[:, 0]
            assert np.all(out > 0)


def test_composed_maximal_zero():
    zero = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    B = BanachModel(1, 2.0)
    assert composed_maximal(zero, 0.0, 0.0, "g", B, TIMES) == 0.0


def test_composed_maximal_single_mode_half():
    # the s -> 0 candidate is the H-norm of -t e^{-t} h_0(x), i.e. h_0(x)/2
    e = expansion([(0, 1.0)])
    B = BanachModel(1, 2.0)
    small_s = TimeGrid(0.05, 5.0, 20)
    for x in (0.0, 1.2):
        v = composed_maximal(e, x, 0.0, "g", B, TIMES, sgrid=small_s)
        assert v == pytest.approx(0.5 * float(hermite_eval(0, x)), abs=1e-4)


def test_composed_maximal_monotone_in_s():
    # for a single mode the gamma norm decays in s, so restricting the
    # s-grid to larger values can only lower the sup
    e = expansion([(2, 1.0)])
    B = BanachModel(1, 2.0)
    lo = composed_maximal(e, 0.3, 0.0, "g", B, TIMES, sgrid=TimeGrid(0.01, 0.1, 5))
    hi_only = TimeGrid(1.0, 5.0, 5)
    # drop the s=0 candidate effect by comparing pure grid sups
    vals = []
    for sg in (TimeGrid(0.01, 0.1, 5), hi_only):
        vals.append(composed_maximal(e, 0.3, 0.0, "g", B, TIMES, sgrid=sg))
    assert vals[1] <= vals[0] + 1e-12
    assert lo >= vals[1]


def test_composed_maximal_inner_ladder_matches_shifted_poisson():
    # t (d+x) P_{s+t} f equals P_s^{L+2} applied to the ladder transform;
    # with alpha = 2 the composed value at s in the grid matches the
    # directly assembled profile
    e = expansion([(1, 1.0)])
    B = BanachModel(1, 2.0)
    x = 0.4
    sg = TimeGrid(0.5, 0.5001, 2)
    v = composed_maximal(e, x, 2.0, ("ladder", 1, +1), B, TIMES, sgrid=sg)
    # s -> 0 candidate dominates: H-norm of t sqrt(2) e^{-t sqrt(3)} h_0(x)
    prof = TIMES.nodes * math.sqrt(2) * np.exp(-TIMES.nodes * math.sqrt(3))
    href = math.sqrt(float(np.sum(prof ** 2 * TIMES.weights)))
    assert v == pytest.approx(href * float(hermite_eval(0, x)), rel=1e-10)


def test_composed_maximal_inner_riesz_profile():
    # Poisson-composed Riesz transform: profile sqrt(2k/(2k+1)) e^{-t sqrt(2k+1)}
    e = expansion([(1, 1.0)])
    B = BanachModel(1, 2.0)
    v = composed_maximal(e, 0.0, 2.0, ("riesz", 1, +1), B, TIMES)
    prof = math.sqrt(2.0 / 3.0) * np.exp(-TIMES.nodes * math.sqrt(3.0))
    href = math.sqrt(float(np.sum(prof ** 2 * TIMES.weights)))
    assert v == pytest.approx(href * float(hermite_eval(0, 0.0)), rel=1e-10)


def test_maximal_norm_rejects_several_points():
    B = BanachModel(1, 2.0)
    with pytest.raises(ValueError, match="single point"):
        maximal_norm(expansion([(1, 1.0)]), [0.1, 0.5], "heat", 0.0, B, SMALL_TIMES)
    with pytest.raises(ValueError, match="single point"):
        maximal_norm(HermiteExpansion(1, 1, 0, {}), [0.1, 0.5], "heat", 0.0, B, SMALL_TIMES)


def test_composed_maximal_rejects_several_points():
    e = expansion([(1, 1.0)])
    with pytest.raises(ValueError, match="single point"):
        composed_maximal(e, [0.1, 0.5], 0.0, "g", BanachModel(1, 2.0), SMALL_TIMES, M=100)


def test_composed_maximal_rejects_bad_shift():
    e = expansion([(0, 1.0)])
    B = BanachModel(1, 2.0)
    with pytest.raises(ValueError, match="shift"):
        composed_maximal(e, 0.0, -2.0, "g", B, TIMES)


def _random_expansion(rng, n, d, K, count):
    ks = [k for k in np.ndindex(*(K + 1,) * n) if sum(k) <= K]
    pick = rng.choice(len(ks), size=min(count, len(ks)), replace=False)
    return HermiteExpansion(n=n, d=d, K=K, coeffs={ks[i]: rng.normal(size=d) for i in pick})


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("n", [1, 2])
def test_riesz_matches_the_closed_form_factor(n, sign):
    # factor sqrt(2 k_j / lam) or -sqrt((2 k_j + 2) / lam), lam = 2|k| + n
    e = _random_expansion(np.random.default_rng(n), n, 1, 30 if n == 1 else 12, 40)
    for j in range(1, n + 1):
        got = riesz(e, j, sign)
        want = {}
        for k, c in e.coeffs.items():
            lam = 2 * sum(k) + n
            if sign == +1 and k[j - 1] == 0:
                continue
            m = tuple(kk - sign * (i == j - 1) for i, kk in enumerate(k))
            top = 2 * k[j - 1] + (2 if sign == -1 else 0)
            want[m] = sign * math.sqrt(top / lam) * c
        assert set(got.coeffs) == set(want)
        for m, c in want.items():
            assert got.coeffs[m] == pytest.approx(c, rel=1e-15, abs=0.0)


def _composed_per_term(e, x, alpha, inner, B, times, M, seed):
    """composed_maximal written as a sum over the modes, one term at a time."""
    from hermlp.gamma import gamma_norms

    t = times.nodes
    terms = []  # (target mode, s-rate, profile, coefficient)
    for k, c in e.coeffs.items():
        lam0 = 2 * sum(k) + e.n
        if inner == "g":
            r = math.sqrt(lam0 + alpha)
            terms.append((k, r, -t * r * np.exp(-t * r), c))
            continue
        name, j, sign = inner
        if sign == +1 and k[j - 1] == 0:
            continue
        m = tuple(kk - sign * (i == j - 1) for i, kk in enumerate(k))
        amp = math.sqrt(2 * k[j - 1]) if sign == +1 else -math.sqrt(2 * k[j - 1] + 2)
        r = math.sqrt(lam0)
        prof = t * amp * np.exp(-t * r) if name == "ladder" else amp / r * np.exp(-t * r)
        terms.append((m, math.sqrt(2 * sum(m) + e.n + alpha), prof, c))
    sw = np.sqrt(times.weights)
    best = 0.0
    for s in np.concatenate(([0.0], times.nodes)):
        matrix = np.zeros((B.d, times.N))
        for m, rs, prof, c in terms:
            hc = float(hermite_eval(m, x)) * c
            matrix += hc[:, None] * (math.exp(-s * rs) * prof * sw)[None, :]
        best = max(best, gamma_norms(matrix[None], B, M=M, seed=seed)[0][0])
    return best


INNERS = ["g", ("ladder", 1, +1), ("ladder", 1, -1), ("riesz", 1, +1), ("riesz", 1, -1)]


@pytest.mark.parametrize("inner", INNERS)
def test_composed_maximal_matches_the_per_term_sum(inner):
    rng = np.random.default_rng(3)
    times = TimeGrid(1e-3, 20.0, 24)
    for alpha in (0.0, 1.0):
        e = _random_expansion(rng, 1, 1, 12, 4)
        x = float(rng.uniform(-2.0, 2.0))
        B = BanachModel(1, 2.0)
        want = _composed_per_term(e, x, alpha, inner, B, times, 2000, 0)
        got = composed_maximal(e, x, alpha, inner, B, times, M=2000)
        assert got == pytest.approx(want, rel=1e-14)


def test_composed_maximal_q4_matches_the_per_term_sum():
    rng = np.random.default_rng(4)
    times = TimeGrid(1e-3, 20.0, 16)
    B = BanachModel(2, 4.0)
    e = _random_expansion(rng, 1, 2, 10, 3)
    for x in (-0.8, 0.3, 1.7):
        want = _composed_per_term(e, x, 0.0, "g", B, times, 2000, 11)
        assert composed_maximal(e, x, 0.0, "g", B, times, M=2000, seed=11) == pytest.approx(want, rel=1e-14)


def test_composed_maximal_q4_of_one_mode_matches_the_closed_form():
    # one mode gives rank-one slices e^{-s r} h_k(x) c (x) P, P the profile
    # -t r e^{-t r}, so slice s estimates e^{-s r} |h_k(x)| ||c||_4 ||P||_H
    # times the root mean square of the seed's first M normals; the
    # largest is the s = 0 candidate
    from hermlp.gamma import h_norm

    times = TimeGrid(1e-3, 20.0, 32)
    B = BanachModel(2, 4.0)
    k, c, x, M, seed = 5, np.array([0.8, -1.3]), 0.6, 2000, 13
    r = math.sqrt(2 * k + 1)
    g = np.random.default_rng(seed).standard_normal(M)
    want = (abs(float(hermite_eval(k, x))) * float(B.norm(c))
            * h_norm(-times.nodes * r * np.exp(-times.nodes * r), times)
            * math.sqrt(float(np.mean(g * g))))
    got = composed_maximal(HermiteExpansion(1, 2, k, {(k,): c}), x, 0.0, "g", B, times,
                           M=M, seed=seed)
    assert got == pytest.approx(want, rel=1e-14)


def test_composed_maximal_q4_when_the_rank_falls_with_s():
    # modes 0 and 11 with independent coefficients give rank-2 slices at
    # small s; from s of about 5 on, mode 11 has decayed against mode 0 (by
    # e^{-s (sqrt 23 - 1)}) below the rank cut, sqrt(d max(d, N) eps) of the
    # largest singular value, and the slice keeps one row of its factor.
    # Such a slice reads the first column of the shared
    # draw: its estimate has the law of a standalone gamma_norm_mc call
    # but other draws.  The sup is taken at a rank-2 slice, so the result
    # still equals the per-term sum.
    from hermlp.gamma import (
        DiscreteGammaOperator, _binary_scaled, _cov_factor, _mc_stack, gamma_norm_mc,
    )

    e = HermiteExpansion(1, 2, 11, {(0,): [1.0, 0.5], (11,): [-0.7, 2.0]})
    times = TimeGrid(1e-3, 20.0, 16)
    B = BanachModel(2, 4.0)
    x = 0.3
    t, sw = times.nodes, np.sqrt(times.weights)
    s = np.concatenate(([0.0], times.nodes))
    stack = np.zeros((len(s), 2, times.N))
    for (k,), c in e.coeffs.items():
        r = math.sqrt(2 * k + 1)
        prof = np.exp(-s * r)[:, None] * (-t * r * np.exp(-t * r) * sw)  # (s, N)
        stack += float(hermite_eval(k, x)) * c[None, :, None] * prof[:, None, :]
    scaled, _ = _binary_scaled(stack)
    _, ranks = _cov_factor(scaled @ scaled.swapaxes(1, 2), 2 * times.N * np.finfo(float).eps)
    assert ranks[0] == 2 and ranks[-1] == 1 and np.all(np.diff(ranks) <= 0)

    got = composed_maximal(e, x, 0.0, "g", B, times, M=2000, seed=11)
    assert got == pytest.approx(_composed_per_term(e, x, 0.0, "g", B, times, 2000, 11), rel=1e-14)
    est, err = _mc_stack(stack, B, 2000, 11)
    assert got == np.max(est) == np.max(est[ranks == 2])
    T = DiscreteGammaOperator(B, times, stack[-1])
    alone, alone_err = gamma_norm_mc(T, 2000, 11)
    assert alone != est[-1]
    assert abs(alone ** 2 - est[-1] ** 2) <= 4 * (alone_err + err[-1])


def test_composed_maximal_rejects_semigroup_inners_and_empty_bad_shift():
    e = expansion([(1, 1.0)])
    B = BanachModel(1, 2.0)
    for inner in ("heat", "poisson", ("wave", 1, +1)):
        with pytest.raises(ValueError, match="unknown"):
            composed_maximal(e, 0.0, 0.0, inner, B, SMALL_TIMES, M=100)
    empty = HermiteExpansion(n=1, d=1, K=0, coeffs={})
    with pytest.raises(ValueError, match="shift"):
        composed_maximal(empty, 0.0, -5.0, ("ladder", 1, -1), B, SMALL_TIMES, M=100)


@pytest.mark.parametrize("call", [
    lambda e, grid, times: gfunction(e, 0.0, grid, times),
    lambda e, grid, times: ladder_transform(e, 1, +1, grid, times),
    lambda e, grid, times: check_polarization(e, e),
], ids=["gfunction", "ladder_transform", "check_polarization"])
def test_dimension_mismatch_raises_before_the_dense_tensor(call):
    # the two-dimensional mode on the line used to build a 370 MB tensor
    # and then fail to reshape it
    e = HermiteExpansion.single((0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expansion has n=2 but the grid has n=1"):
            call(e, SpatialGrid(12.0, 0.02), TimeGrid(1e-3, 20.0, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
