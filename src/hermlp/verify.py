"""Executable verification suites: every exact identity and envelope
bound of the operator calculus is bound to a pass/fail CheckReport.

Numeric checks compare two computations at a stated tolerance; envelope
checks for bounds with unnamed constants report the empirical sup of
|kernel| / envelope and pass when it is finite and grows by at most 10%
over the value on a 2x-coarser lattice.

Every check runs on the line (n = 1), and every one but the shift list
of `check_kernel_vs_spectral` uses the unshifted operator L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    HermiteExpansion,
    SpatialGrid,
    _expansion,
    _integer,
    _table,
    analyze,
    synthesize_grid,
)
from .gamma import BanachModel, TimeGrid
from .kernels import ShiftedOperator, _pair_family, heat_kernel
from .semigroups import gfunction, inv_sqrt, ladder_transform, riesz
from .spaces import BallSpec, _grid_samples, bmo_norm, h1_norm

__all__ = [
    "CheckReport",
    "check_eigen_ladder",
    "check_kernel_vs_spectral",
    "kernel_bound_ratio",
    "check_polarization",
    "check_operator_identities",
    "equivalence_suite",
]

DEFAULT_GRID = SpatialGrid(R=12.0, h=0.02, n=1)
DEFAULT_TIMES = TimeGrid(1e-3, 20.0, 32)
# the lattice and times on which `check_operator_identities` samples its fields
_IDENTITY_GRID = SpatialGrid(R=6.0, h=0.25, n=1)
_IDENTITY_TIMES = TimeGrid(0.1, 5.0, 12)
# the truncated polarization variant integrates over t in [1/N, N]
_N_TRUNC = 1000.0


@dataclass
class CheckReport:
    """Outcome of one verification: computed vs expected at a tolerance,
    or an empirical constant with a stability predicate."""

    name: str
    computed: object
    expected: object
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def row(self):
        return {
            "name": self.name,
            "computed": self.computed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_eigen_ladder(K: int) -> CheckReport:
    """Eigenrelation and ladder identities up to degree K on |x| <= 6.

    Second derivatives come from two ladder steps; ladder actions are
    cross-checked against central finite differences.  Every row comes
    from one Hermite table up to degree K + 2 and two shifted tables.
    """
    K = _integer(K, "degree cap K", 0)
    xs = np.linspace(-6.0, 6.0, 41)
    step = 1e-5
    H = _table(K + 2, xs)
    zero = np.zeros((1, xs.size))  # the row of degree -1
    m = np.arange(K + 2)[:, None]
    # (d/dx +/- x) h_m for m = 0..K+1: sqrt(2m) h_{m-1} and -sqrt(2m+2) h_{m+1}
    plus = np.sqrt(2.0 * m) * np.concatenate([zero, H[:K + 1]])
    minus = -np.sqrt(2.0 * m + 2.0) * H[1:]
    deriv = 0.5 * (plus + minus)
    k, hk = m[:K + 1], H[:K + 1]
    up = np.sqrt(2.0 * k) * np.concatenate([zero, deriv[:K]])
    down = -np.sqrt(2.0 * k + 2.0) * deriv[1:]
    d2 = 0.5 * (up + down)
    eigen = -d2 + xs * xs * hk - (2 * k + 1) * hk
    worst = float(np.max(np.abs(eigen)))
    # ladder identities vs finite differences of h_k' +/- x h_k
    fd = (_table(K, xs + step) - _table(K, xs - step)) / (2 * step)
    for sign, ladder in ((+1, plus[:K + 1]), (-1, minus[:K + 1])):
        worst = max(worst, float(np.max(np.abs(fd + sign * xs * hk - ladder))))
    tol = 1e-8 if K == 0 else 1e-6
    return CheckReport(
        name=f"eigen-ladder(K={K})",
        computed=worst,
        expected=0.0,
        tolerance=tol,
        passed=worst <= tol,
    )


def check_kernel_vs_spectral(t_list, alpha_list) -> CheckReport:
    """Kernel-quadrature vs spectral action on the modes h_0..h_10.

    Poisson kernels act by dense trapezoid quadrature in y (spectrally
    accurate for Gaussian-decaying integrands); the heat branch compares
    the closed form against the truncated spectral sum.  Comparisons
    switch to absolute tolerance once both sides fall below 1e-8.  The
    heat branch checks only the times t >= 0.1, listed in
    details["heat_times"]; with none of them it reports NaN.  The check
    passes only if the whole comparison is within 1e-6 and the heat
    branch within 1e-8.
    """
    if not len(t_list) or not len(alpha_list):
        raise ValueError("t_list and alpha_list must be nonempty")
    kmax = 10
    grid = DEFAULT_GRID
    ys = grid.points
    wy = grid.weights
    xs = np.linspace(-4.0, 4.0, 5)
    times = np.asarray(t_list, dtype=float)
    modes = (wy * _table(kmax, ys)).T  # (len(ys), modes): quadrature in y
    hx = _table(kmax, xs).T  # (5, modes)
    eigen = 2.0 * np.arange(kmax + 1) + 1.0
    worst = 0.0
    ops = [ShiftedOperator(alpha, 1) for alpha in alpha_list]
    # one subordination grid for every shift and time; each kernel has
    # shape (T, 5, len(ys))
    family = _pair_family(xs[:, None], ys[None, :], [("poisson", times, op) for op in ops])
    for op, kernel in zip(ops, family):
        got = kernel @ modes
        want = np.exp(-times[:, None, None] * np.sqrt(eigen + op.alpha)) * hx
        scale = np.abs(want)
        err = np.abs(got - want) / np.where(scale > 1e-8, scale, 1.0)
        worst = max(worst, float(np.max(err)))
    # heat branch: closed form vs truncated spectral sum
    heat_times = [float(t) for t in t_list if t >= 0.1]
    heat_worst = 0.0 if heat_times else math.nan
    Ksum = 200
    T = _table(Ksum, xs)
    for t in heat_times:
        lamf = np.exp(-t * (2 * np.arange(Ksum + 1) + 1))
        ssum = (T * lamf[:, None]).T @ T
        W = heat_kernel(xs[:, None], xs[None, :], t)
        heat_worst = max(heat_worst, float(np.max(np.abs(W - ssum))))
    worst = max(worst, heat_worst)
    tol = 1e-6
    heat_tol = 1e-8
    return CheckReport(
        name="kernel-vs-spectral",
        computed=worst,
        expected=0.0,
        tolerance=tol,
        passed=worst <= tol and heat_worst <= heat_tol,
        details={"heat_branch": heat_worst, "heat_tolerance": heat_tol,
                 "heat_times": heat_times},
    )


def _gaussian(D, Z):
    """The Gaussian factor e^{-(D^2 + |Z| D)/16} of the envelopes."""
    return np.exp(-(1.0 / 16.0) * (D * D + np.abs(Z) * D))


# envelope kind -> (the `_pair_family` member kind of its kernel, None for
# the closed-form heat kernel; the ratio of the kernel v to its envelope
# at the pairs (X, Y) at distance D, with a leading axis for the times t
# (`_times`)).  The heat and Poisson kernels are positive, so their ratios
# take no absolute value
_ENVELOPES = {
    "heat": (None, lambda v, t, D, X, Y: v / (t ** -0.5 * np.exp(-D * D / (8.0 * t)))),
    "poisson": ("poisson", lambda v, t, D, X, Y: v / (t / (t + D) ** 2 * _gaussian(D, X))),
    "g": ("g", lambda v, t, D, X, Y: np.abs(v) / (t / (t + D) ** 2)),
    # the H-norm over the time grid t of t d/dt P_t vs a singular envelope
    "gH": ("g", lambda v, t, D, X, Y: np.sqrt(np.tensordot(t.weights, v ** 2, axes=1))[None]
           / (_gaussian(D, Y) / np.where(D > 0, D, 1.0))),
    "ladder": (("ladder", 1, +1),  # the raising kernel along x_1
               lambda v, t, D, X, Y: np.abs(v) / (t * t / (t + D) ** 3 * _gaussian(D, Y))),
    "gradient": ("g_dx", lambda v, t, D, X, Y: np.abs(v) / (t / (t + D) ** 3)),
}


def _times(kind, ts):
    """The times of the envelope kind at ts: those of its kernel, and those
    its ratio reads.  "gH" takes a time grid from the least to the largest
    of ts in at least 16 nodes, and its ratio the grid itself; every other
    kind takes ts, and its ratio a column of ts."""
    if kind not in _ENVELOPES:
        raise ValueError(f"unknown envelope kind {kind!r}")
    if kind != "gH":
        return ts, ts.reshape(-1, 1, 1)
    if np.min(ts) == np.max(ts):
        raise ValueError("kind 'gH' needs two distinct times")
    grid = TimeGrid(min(ts), max(ts), max(len(ts), 16))
    return grid.nodes, grid


def _envelope_reports(kinds, xs, ts) -> list:
    """`kernel_bound_ratio` for each kind in `kinds`, in order: the sups of
    |kernel| / envelope (`_ENVELOPES`) over the off-diagonal pairs of xs
    and all times, on the lattice xs and on its 2x-coarser sublattice
    xs[::2], whose pairs are the [::2, ::2] block of the same ratios.  The
    subordinated kernels of the unshifted one-dimensional operator come
    from one pass over the Mehler blocks (`kernels._pair_family`), one
    kernel at a time."""
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if xs.ndim != 1 or ts.ndim > 1:
        raise ValueError("xs must be a 1-D lattice and ts a scalar or a 1-D array")
    if xs.size < 2 or ts.size < 1:
        raise ValueError("empty region")
    if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
        raise ValueError("points xs and times ts must be finite")
    times = [_times(kind, ts) for kind in kinds]
    op, X, Y = ShiftedOperator(), xs[:, None], xs[None, :]
    members = [(_ENVELOPES[kind][0], t, op) for kind, (t, _) in zip(kinds, times)
               if _ENVELOPES[kind][0]]
    family = _pair_family(X, Y, members) if members else iter(())
    D = np.abs(X - Y)
    reports = []
    for kind, (_, t) in zip(kinds, times):
        member, ratio = _ENVELOPES[kind]
        v = next(family) if member else heat_kernel(X, Y, t)
        sup = np.max(np.where(D > 0, ratio(v, t, D, X, Y), 0.0), axis=0)
        del v  # each kernel is freed before the next is built
        fine, coarse = float(np.max(sup)), float(np.max(sup[::2, ::2]))
        reports.append(CheckReport(
            name=f"envelope({kind})",
            computed=fine,
            expected="finite/stable",
            tolerance=0.1,
            passed=bool(np.isfinite(fine) and fine <= 1.1 * coarse),
            details={"coarse": coarse},
        ))
    return reports


def kernel_bound_ratio(kind: str, xs, ts) -> CheckReport:
    """Empirical sup of |kernel| / envelope over an off-diagonal lattice
    of the line; passes when finite and at most 1.1x the sup on a
    2x-coarser lattice.  The "gH" kind integrates over a time grid
    spanning ts, so it needs two distinct times."""
    (report,) = _envelope_reports([kind], xs, ts)
    return report


def _tail_factor(lam: float, T: float) -> float:
    """int_0^T (t sqrt(lam) e^{-t sqrt(lam)})^2 dt/t; tends to 1/4."""
    r = math.sqrt(lam)
    return 0.25 - (r * T / 2.0 + 0.25) * math.exp(-2.0 * r * T)


def check_polarization(a: HermiteExpansion, f: HermiteExpansion) -> CheckReport:
    """Polarization identity int int (Ga)(Gf) dx dt/t = 1/4 int a f dx
    for the unshifted operator on the line.

    The left side is computed by quadrature on DEFAULT_GRID x
    DEFAULT_TIMES, the right side spectrally.  The truncated variant over
    t in [1/N, N], N = _N_TRUNC, is compared against its closed-form
    per-mode tail bound.  a and f must have the same number of
    components d.
    """
    a, f = _expansion(a, "a"), _expansion(f, "f")
    if a.d != f.d:
        raise ValueError(f"a has d={a.d} components but f has d={f.d}")
    grid, times = DEFAULT_GRID, DEFAULT_TIMES
    ga = gfunction(a, 0.0, grid, times)
    gf = gfunction(f, 0.0, grid, times)
    lhs = float(
        np.einsum("xtc,xtc,x,t->", ga.values, gf.values, grid.weights, times.weights)
    )
    # per common mode: the pairing a_k . f_k and the tails at N and 1/N
    ca, cf = a.coeffs, f.coeffs
    common = [
        (float(ca[k] @ cf[k]),
         _tail_factor(a.eigenvalue(k), _N_TRUNC),
         _tail_factor(a.eigenvalue(k), 1.0 / _N_TRUNC))
        for k in ca
        if k in cf
    ]
    pairing = sum(p for p, _, _ in common)
    rhs = 0.25 * pairing
    err = abs(lhs - rhs)
    # truncated-interval variant, spectral closed form
    truncated = sum(p * (big - small) for p, big, small in common)
    tail_bound = sum(abs(p) * (0.25 - big + small) for p, big, small in common)
    trunc_ok = abs(truncated - rhs) <= tail_bound + 1e-14
    tol = 1e-4 * max(1.0, abs(rhs) * 4.0)
    passed = err <= tol and trunc_ok
    return CheckReport(
        name="polarization",
        computed=lhs,
        expected=rhs,
        tolerance=tol,
        passed=passed,
        details={"truncated": truncated, "tail_bound": tail_bound},
    )


def check_operator_identities(K: int, seed: int = 0) -> CheckReport:
    """Sampled-value discrepancies of the transform identities on the
    line, for random coefficients on the modes 0..K:

    (a) t (d/dx + x) P_t  =  -(t d/dt P_t^{L+2}) R_+,
    (b) the lowering analogue with shift -2 (valid modewise here),
    (c) R_+/- = ladder amplitude applied after L^{-1/2} (coefficients).

    The fields of (a) and (b) are sampled on _IDENTITY_GRID x
    _IDENTITY_TIMES, and each Riesz transform serves both its identity
    and (c).  The coefficients are one draw of K + 1 normals from `seed`.
    (c) reads R_+/- e at its target modes k -/+ 1 and compares it with
    sqrt(2k) resp. -sqrt(2k + 2) times L^{-1/2} e at k.
    """
    K = _integer(K, "degree cap K", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    k = np.arange(K + 1)
    e = HermiteExpansion._from_rows(1, 1, k[:, None], rng.normal(size=(K + 1, 1)), K)
    half = inv_sqrt(e, 0.0).C[:, 0]
    worst_ab = worst_c = 0.0
    for sign, shift in ((+1, 2.0), (-1, -2.0)):
        r = riesz(e, 1, sign)
        lhs = ladder_transform(e, 1, sign, _IDENTITY_GRID, _IDENTITY_TIMES)
        rhs = gfunction(r, shift, _IDENTITY_GRID, _IDENTITY_TIMES)
        worst_ab = max(worst_ab, float(np.max(np.abs(lhs.values + rhs.values))))
        # (c): coefficient-level factorization through the negative power
        src = k[k > 0] if sign == +1 else k
        amp = sign * np.sqrt(2.0 * src + (1 - sign))
        at = np.zeros(K + 2)
        at[r.modes[:, 0]] = r.C[:, 0]
        worst_c = max(worst_c, float(np.max(np.abs(at[src - sign] - amp * half[src]))))
    worst = max(worst_ab, worst_c)
    tol = 1e-10
    return CheckReport(
        name=f"operator-identities(K={K})",
        computed=worst,
        expected=0.0,
        tolerance=tol,
        passed=worst <= tol,
        details={"sampled": worst_ab, "coefficient": worst_c},
    )


def equivalence_suite(
    space: str,
    family,
    B: BanachModel,
    grid: SpatialGrid = DEFAULT_GRID,
    times: TimeGrid = DEFAULT_TIMES,
) -> CheckReport:
    """Two-sided norm comparison ||G f|| / ||f|| over a test family, for
    the unshifted operator.

    For each member the square function, of every component, is reduced
    to the scalar field x -> H-norm of G f(x, .), and the requested space
    norm is taken of that field in BanachModel(1, B.q) and of f in B (BMO
    over the balls of `BallSpec()`).  L2 ratios must equal 1/2 up to 1e-3;
    H1/BMO families pass when max/min ratio <= 25.
    """
    if space not in ("L2", "H1", "BMO"):
        raise ValueError(f"unknown space {space!r}")
    family = list(family)
    if not family:
        raise ValueError("test family must be nonempty")
    balls, scalar = BallSpec(), BanachModel(1, B.q)
    ratios = []
    for f in family:
        if isinstance(f, HermiteExpansion):
            e, fsamp = f, synthesize_grid(f, grid)
        else:
            fsamp = _grid_samples(f, grid)
            e = analyze(fsamp.reshape(grid.shape + fsamp.shape[1:]), grid, K=30)
        # x -> H-norm of (t d/dt P_t e)(x, .), shape (size, 1)
        g = gfunction(e, 0.0, grid, times).values
        gnorm = np.sqrt(np.einsum("xtc,t->x", g ** 2, times.weights))[:, None]
        if space == "L2":
            num = math.sqrt(float(grid.weights @ (gnorm[:, 0] ** 2)))
            den = math.sqrt(float(grid.weights @ np.sum(fsamp ** 2, axis=1)))
        elif space == "H1":
            num = h1_norm(gnorm, scalar, grid, times)
            den = h1_norm(fsamp, B, grid, times)
        else:
            num = bmo_norm(gnorm, scalar, grid, balls)
            den = bmo_norm(fsamp, B, grid, balls)
        ratios.append(num / den)
    lo, hi = min(ratios), max(ratios)
    if space == "L2":
        passed = all(abs(r - 0.5) <= 1e-3 for r in ratios)
        expected, tol = 0.5, 1e-3
    else:
        passed = hi / lo <= 25.0
        expected, tol = "spread <= 25", 25.0
    return CheckReport(
        name=f"equivalence({space})",
        computed={"min_ratio": lo, "max_ratio": hi},
        expected=expected,
        tolerance=tol,
        passed=passed,
        details={"ratios": ratios},
    )
