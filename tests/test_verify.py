import math
import warnings

import numpy as np
import pytest

from hermlp import basis, verify
from hermlp.basis import (
    HermiteExpansion,
    SpatialGrid,
    hermite_derivative,
    hermite_eval,
    hermite_ladder_eval,
)
from hermlp.gamma import BanachModel, TimeGrid
from hermlp.spaces import BallSpec, make_random_atom
from hermlp.verify import (
    CheckReport,
    check_eigen_ladder,
    check_kernel_vs_spectral,
    check_operator_identities,
    check_polarization,
    equivalence_suite,
    kernel_bound_ratio,
)

B1 = BanachModel(1, 2.0)


def test_eigen_ladder_passes():
    r = check_eigen_ladder(20)
    assert r.passed
    assert r.computed <= 1e-6


def test_eigen_ladder_ground_mode():
    r = check_eigen_ladder(0)
    assert r.passed
    assert r.computed <= 1e-8


def test_eigen_ladder_perturbation_canary(perturb_recurrence):
    # a 1e-3 recurrence error must flip the verdict
    perturb_recurrence(1e-3)
    r = check_eigen_ladder(20)
    assert not r.passed


def _eigen_ladder_by_degree(K):
    """The eigen-ladder residual degree by degree from hermite_eval."""
    xs = np.linspace(-6.0, 6.0, 41)
    step = 1e-5
    worst = 0.0
    for k in range(K + 1):
        hk = hermite_eval(k, xs)
        up = (math.sqrt(2 * k) * hermite_derivative(k - 1, xs)
              if k > 0 else np.zeros_like(xs))
        down = -math.sqrt(2 * k + 2) * hermite_derivative(k + 1, xs)
        d2 = 0.5 * (up + down)
        eigen = -d2 + xs * xs * hk - (2 * k + 1) * hk
        worst = max(worst, float(np.max(np.abs(eigen))))
        fd = (hermite_eval(k, xs + step)
              - hermite_eval(k, xs - step)) / (2 * step)
        for sign in (+1, -1):
            ladder = hermite_ladder_eval(k, xs, 1, sign)
            worst = max(worst, float(np.max(np.abs(fd + sign * xs * hk - ladder))))
    return worst


@pytest.mark.parametrize("K", [0, 1, 5, 20, 60])
@pytest.mark.parametrize("perturb", [0.0, 1e-6, 1e-3])
def test_eigen_ladder_table_equals_degree_by_degree(perturb_recurrence, K, perturb):
    # the table-based check reads the same numbers as the per-degree route
    perturb_recurrence(perturb)
    assert check_eigen_ladder(K).computed == _eigen_ladder_by_degree(K)


def test_eigen_ladder_rejects_negative_cap():
    with pytest.raises(ValueError):
        check_eigen_ladder(-1)


def test_kernel_vs_spectral_passes():
    r = check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0])
    assert r.passed, r.computed
    assert r.computed <= 1e-6
    assert r.details["heat_branch"] <= 1e-8


def test_kernel_vs_spectral_reuses_its_hermite_tables(monkeypatch):
    # the degree-200 heat reference and the quadrature tables are built
    # once per axis, not once per call
    runs = []
    rows = basis._scaled_rows
    monkeypatch.setattr(basis, "_scaled_rows", lambda kmax, x: runs.append(kmax) or rows(kmax, x))
    first = check_kernel_vs_spectral([0.1, 1.0], [0.0])
    runs.clear()
    second = check_kernel_vs_spectral([0.1, 1.0], [0.0])
    assert runs == []
    assert second.computed == first.computed


def test_kernel_vs_spectral_fails_on_heat_branch(monkeypatch):
    # a heat kernel off by 1e-7 relative stays inside the 1e-6 Poisson
    # tolerance but not the 1e-8 heat tolerance
    import hermlp.verify as verify

    exact = verify.heat_kernel
    monkeypatch.setattr(verify, "heat_kernel", lambda x, y, t, n=1: exact(x, y, t, n) * (1 + 1e-7))
    r = check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0])
    assert 1e-8 < r.details["heat_branch"] <= 1e-6
    assert r.computed <= 1e-6
    assert not r.passed


def test_kernel_vs_spectral_fails_on_poisson_branch(monkeypatch):
    # one Poisson mode action off by 1e-5 relative, at one time and shift,
    # must show in the worst error of the whole (time, point, mode) stack
    import hermlp.verify as verify

    exact = verify._pair_family

    def skewed(x, y, members, rule=None):
        for (_, _, op), P in zip(members, exact(x, y, members, rule)):
            if op.alpha == 2.0:
                P[1] *= 1 + 1e-5
            yield P

    monkeypatch.setattr(verify, "_pair_family", skewed)
    r = check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0])
    assert r.computed == pytest.approx(1e-5, rel=1e-3)
    assert r.details["heat_branch"] <= 1e-8
    assert not r.passed


def test_kernel_vs_spectral_large_time_absolute():
    # at t = 20 both sides are below 1e-8 and the comparison is absolute
    r = check_kernel_vs_spectral([20.0], [0.0])
    assert r.passed


def test_kernel_vs_spectral_heat_branch_needs_a_checked_time():
    # the heat branch skips t < 0.1; with no time left it must not pass
    r = check_kernel_vs_spectral([0.05], [0.0])
    assert r.details["heat_times"] == []
    assert math.isnan(r.details["heat_branch"])
    assert not r.passed
    r = check_kernel_vs_spectral([0.05, 1.0], [0.0])
    assert r.details["heat_times"] == [1.0]
    assert r.passed


def test_kernel_vs_spectral_rejects_empty():
    with pytest.raises(ValueError):
        check_kernel_vs_spectral([], [0.0])


@pytest.mark.parametrize("kind", ["heat", "poisson", "g", "gH", "ladder", "gradient"])
def test_envelope_ratios_stable(kind):
    xs = np.linspace(-4.0, 4.0, 65)
    ts = np.geomspace(0.1, 2.0, 6)
    r = kernel_bound_ratio(kind, xs, ts)
    assert r.passed, (kind, r.computed, r.details)
    assert np.isfinite(r.computed)


@pytest.mark.parametrize("kind", ["heat", "poisson", "g", "gH", "ladder", "gradient"])
def test_envelope_coarse_sup_is_the_coarse_lattice(kind):
    # the coarse sup read from the fine lattice equals a run on xs[::2]
    xs = np.linspace(-4.0, 4.0, 33)
    ts = np.geomspace(0.1, 2.0, 6)
    coarse = kernel_bound_ratio(kind, xs, ts).details["coarse"]
    assert coarse == pytest.approx(kernel_bound_ratio(kind, xs[::2], ts).computed, rel=1e-14)


def test_envelope_rejects_empty_region():
    with pytest.raises(ValueError, match="empty region"):
        kernel_bound_ratio("g", [0.0], [1.0])


@pytest.mark.parametrize("kind", ["heat", "poisson", "g", "gH", "ladder", "gradient"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["xs", "ts"])
def test_envelope_rejects_non_finite_input_before_arithmetic(kind, bad, where):
    # an infinite point used to reach X - Y and warn before any error
    xs, ts = [-1.0, 0.0, 1.0], [0.5, 1.0]
    if where == "xs":
        xs[1] = bad
    else:
        ts[0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            kernel_bound_ratio(kind, xs, ts)


@pytest.mark.parametrize("xs, ts", [([[-1.0, 0.0], [0.5, 1.0]], [0.5, 1.0]),
                                    ([-1.0, 0.0, 1.0], [[0.5, 1.0]])])
def test_envelope_rejects_lattices_that_are_not_1d(xs, ts):
    # a 2-D xs was read as a 4-D lattice of pairs and gave a meaningless sup
    with pytest.raises(ValueError, match="1-D"):
        kernel_bound_ratio("poisson", xs, ts)


@pytest.mark.parametrize("ts", [[1.0], [0.5, 0.5]])
def test_envelope_gh_needs_two_distinct_times(ts):
    # it used to surface TimeGrid's "need 0 < t_min < t_max"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="two distinct times"):
            kernel_bound_ratio("gH", [-1.0, 0.0, 1.0], ts)
    # the other kinds take their times as given
    assert np.isfinite(kernel_bound_ratio("g", [-1.0, 0.0, 1.0], ts).computed)


def test_polarization_ground_mode():
    e = HermiteExpansion.single(0)
    r = check_polarization(e, e)
    assert r.passed
    assert r.computed == pytest.approx(0.25, abs=1e-4)
    assert r.expected == 0.25


def test_polarization_orthogonal_modes():
    a = HermiteExpansion.single(0)
    f = HermiteExpansion.single(1)
    r = check_polarization(a, f)
    assert r.passed
    assert abs(r.computed) <= 1e-6
    assert r.expected == 0.0


def test_polarization_truncation_tail(monkeypatch):
    e = HermiteExpansion(n=1, d=1, K=4, coeffs={(0,): [1.0], (4,): [-0.5]})
    r = check_polarization(e, e)
    assert r.passed
    assert abs(r.details["truncated"] - r.expected) <= r.details["tail_bound"] + 1e-14
    # a tiny window keeps the tail bound honest too
    monkeypatch.setattr(verify, "_N_TRUNC", 2.0)
    r2 = check_polarization(e, e)
    assert abs(r2.details["truncated"] - r2.expected) <= r2.details["tail_bound"] + 1e-14


def test_operator_identities_pass():
    r = check_operator_identities(15)
    assert r.passed
    assert r.details["sampled"] <= 1e-10
    assert r.details["coefficient"] <= 1e-14


def test_operator_identities_reject_zero_cap():
    with pytest.raises(ValueError):
        check_operator_identities(0)


def test_equivalence_l2():
    fam = [
        HermiteExpansion.single(0),
        HermiteExpansion.single(3),
        HermiteExpansion(n=1, d=1, K=5, coeffs={(0,): [1.0], (5,): [2.0]}),
    ]
    r = equivalence_suite("L2", fam, B1)
    assert r.passed, r.computed
    assert r.computed["min_ratio"] == pytest.approx(0.5, abs=1e-3)
    assert r.computed["max_ratio"] == pytest.approx(0.5, abs=1e-3)


def test_equivalence_h1_atoms():
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    times = TimeGrid(1e-3, 20.0, 16)
    rng = np.random.default_rng(77)
    fam = [make_random_atom(rng, grid, "cancel", center_range=2.0) for _ in range(4)]
    r = equivalence_suite("H1", fam, B1, grid=grid, times=times)
    assert r.passed, r.details
    assert r.computed["max_ratio"] / r.computed["min_ratio"] <= 25.0


def test_equivalence_bmo():
    grid = SpatialGrid(R=12.0, h=0.02, n=1)
    ones = np.ones(grid.size)
    clipped = np.clip(grid.points, -1.0, 1.0)
    h0 = np.asarray(hermite_eval(0, grid.points))
    r = equivalence_suite("BMO", [ones, h0, clipped], B1, grid=grid)
    assert r.passed, r.details
    assert r.computed["max_ratio"] / r.computed["min_ratio"] <= 25.0


def test_equivalence_analyzes_every_column():
    # only column 0 went into the square function while every column went
    # into the norm: two equal columns of exp(-x^2) read 0.35355 =
    # 0.5/sqrt(2) and failed, where one column reads 0.49999936
    x = verify.DEFAULT_GRID.points
    f = np.exp(-x * x)
    one = equivalence_suite("L2", [f], B1)
    two = equivalence_suite("L2", [np.stack([f, f], 1)], BanachModel(2, 2.0))
    assert two.passed, two.computed
    assert two.computed["min_ratio"] == pytest.approx(one.computed["min_ratio"], rel=1e-12)
    mixed = equivalence_suite("L2", [np.stack([f, x * f, -2.0 * f], 1)], BanachModel(3, 2.0))
    assert mixed.passed, mixed.computed
    # an H1 ratio does not change when a column is repeated
    times = TimeGrid(1e-3, 20.0, 16)
    one = equivalence_suite("H1", [f], B1, times=times)
    two = equivalence_suite("H1", [np.stack([f, f], 1)], BanachModel(2, 2.0), times=times)
    assert two.computed["min_ratio"] == pytest.approx(one.computed["min_ratio"], rel=1e-12)


def test_equivalence_rejects_empty_family():
    with pytest.raises(ValueError):
        equivalence_suite("L2", [], B1)
    with pytest.raises(ValueError):
        equivalence_suite("Lp", [HermiteExpansion.single(0)], B1)


def test_report_row_shape():
    r = check_eigen_ladder(1)
    row = r.row()
    assert set(row) == {"name", "computed", "expected", "tolerance", "passed"}
    assert isinstance(r, CheckReport)


@pytest.mark.parametrize("check", [check_eigen_ladder, check_operator_identities])
def test_checks_reject_a_non_integer_cap(check):
    # both used to fail inside numpy or range() with a TypeError
    with pytest.raises(ValueError, match="degree cap K=2.5 must be an integer"):
        check(2.5)


def test_envelope_rejects_an_unknown_kind():
    xs, ts = np.linspace(-4.0, 4.0, 9), np.geomspace(0.1, 2.0, 6)
    with pytest.raises(ValueError, match="unknown envelope kind 'wave'"):
        kernel_bound_ratio("wave", xs, ts)
    with pytest.raises(ValueError, match="unknown envelope kind 'wave'"):
        verify._envelope_reports(["g", "wave"], xs, ts)
