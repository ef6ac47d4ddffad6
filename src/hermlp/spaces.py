"""Critical radius, Hardy-space atoms, and desk-scale estimators of the
maximal H^1 norm, the BMO norm adapted to the oscillator, the area
integral over cones, and the Carleson box functional.

The local geometry is governed by the critical radius rho(x), which is
1/2 near the origin and 1/(1+|x|) far out.  Atoms are supported in
balls B(x0, r0) with r0 <= rho(x0), bounded by the reciprocal ball
volume, and mean-zero exactly when r0 <= rho(x0)/2.  All averages are
deterministic lattice averages normalized by the quadrature mass of the
interior points: each average is a weighted sum divided by the sum of
the same weights, so the BMO estimate of the function 1 is exactly 1.
The BMO and Carleson sweeps take their balls as arrays and each ball's
interior as an index interval of the one-dimensional lattice, and sum
over those intervals in place, one np.add.reduceat per sum
(`_interval_sums`), from one read-only plan per (grid, BallSpec) pair,
kept for the last 8 pairs (`_ball_plan`); a grid is a value, so equal
grids share their plans.  Only the oscillation balls' interiors are
copied.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (
    HermiteExpansion, SpatialGrid, _expansion, _integer, _point, _points, _read_only, _real,
    _resolution,
)
from .gamma import BanachModel, TimeGrid
from .kernels import _heat_maximal
from .semigroups import _KINDS, _maximal_function, gfunction

__all__ = [
    "critical_radius",
    "Atom",
    "BallSpec",
    "validate_atom",
    "make_random_atom",
    "h1_norm",
    "bmo_norm",
    "area_integral",
    "carleson_functional",
]


def critical_radius(x) -> np.ndarray:
    """rho(x) = 1/2 for |x| < 1 and 1/(1+|x|) for |x| >= 1.

    A scalar or 1-D array is one-dimensional points: [3, 4] gives
    [0.25, 0.2].  An array of higher rank holds coordinates on its last
    axis: [[3, 4]] is one point in n = 2 and gives [1/6].  Non-finite
    points are rejected."""
    x = _points(x, 1, "x")
    r = np.abs(x) if x.ndim <= 1 or x.shape[-1] == 1 else np.linalg.norm(x, axis=-1)
    return np.where(r < 1.0, 0.5, 1.0 / (1.0 + r))


def _ball_volume(r: float, n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * r ** n


def _distances(grid: SpatialGrid, center) -> np.ndarray:
    """|x - center| at every grid point x, for a checked single point
    `center` (`basis._point`)."""
    diff = grid.points - center
    return np.abs(diff) if grid.n == 1 else np.linalg.norm(diff, axis=-1)


@dataclass
class Atom:
    """Hardy-space atom sampled on a spatial grid.

    kind "cancel" atoms (r0 <= rho(x0)/2) carry the mean-zero condition;
    kind "local" atoms do not.
    """

    center: object  # a single point of R^n, kept as given
    radius: float
    kind: str
    grid: SpatialGrid
    samples: np.ndarray  # (grid.size, d); (grid.size,) is taken as d = 1

    def __post_init__(self):
        if self.kind not in ("cancel", "local"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        _point(self.center, self.grid.n, "atom center")
        if not math.isfinite(self.radius):
            raise ValueError("atom radius must be finite")
        if self.radius <= 0:
            raise ValueError("atom radius must be positive")
        self.samples = _grid_samples(self.samples, self.grid)

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def validate_atom(a: Atom):
    """Check the atom clauses; returns (ok, list of violated clauses)."""
    violations = []
    center = _point(a.center, a.grid.n, "atom center")
    outside = _distances(a.grid, center) >= a.radius
    if np.any(np.abs(a.samples[outside]) > 1e-12):
        violations.append("support exceeds B(x0, r0)")
    rho = critical_radius(center[None]).item()
    if a.radius > rho * (1 + 1e-12):
        violations.append("radius exceeds critical radius")
    bound = 1.0 / _ball_volume(a.radius, a.grid.n)
    if np.max(np.abs(a.samples)) > bound * (1 + 1e-12):
        violations.append("sup-norm bound violated")
    if a.radius <= rho / 2:
        w = a.grid.weights
        means = w @ a.samples
        if np.max(np.abs(means)) > 1e-10:
            violations.append("mean-zero violated")
    return (not violations), violations


def make_random_atom(
    rng: np.random.Generator,
    grid: SpatialGrid,
    kind: str = "cancel",
    d: int = 1,
    center_range: float = 4.0,
) -> Atom:
    """Random polynomial-times-bump atom meeting every clause of its kind,
    centred in [-center_range, center_range]; ValueError if its ball holds
    no lattice point."""
    if kind not in ("cancel", "local"):
        raise ValueError(f"unknown atom kind {kind!r}")
    if grid.n != 1:
        raise ValueError("random atoms are generated on one-dimensional grids")
    d = _integer(d, "dimension d", 1)
    if not 0 < 2 * center_range < math.inf:  # the width that rng.uniform draws over
        raise ValueError(f"center_range={center_range!r} must be positive, 2 center_range finite")
    x0 = float(rng.uniform(-center_range, center_range))
    rho = float(critical_radius(x0))
    r0 = rho * float(rng.uniform(0.25, 0.5)) if kind == "cancel" else rho
    dist = _distances(grid, x0)
    inside = dist < r0
    if not inside.any():
        raise ValueError(f"the atom ball B({x0}, {r0}) holds no point of the grid")
    bump = np.where(inside, (1.0 - (dist / r0) ** 2) ** 2, 0.0)
    u = (grid.points - x0) / r0
    samples = np.zeros((grid.size, d))
    for c in range(d):
        poly = np.polynomial.polynomial.polyval(u, rng.normal(size=4))
        samples[:, c] = poly * bump
    if kind == "cancel":
        w = grid.weights
        bump_mass = float(w @ bump)
        samples -= bump[:, None] * ((w @ samples) / bump_mass)[None, :]
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples *= 0.99 / (_ball_volume(r0, grid.n) * peak)
    return Atom(x0, r0, kind, grid, samples)


def _grid_samples(f, grid: SpatialGrid, d: int | None = None) -> np.ndarray:
    """The samples of an Atom on this grid (an equal one), or an array in
    the sample layout of `basis` ((grid.size,) or (grid.size, d)) as
    (grid.size, d) floats; ValueError unless they cover the grid, are
    finite and, when `d` is given, have d components."""
    if isinstance(f, Atom) and f.grid != grid:
        raise ValueError("an atom is read only on the grid it was sampled on")
    samples = f.samples if isinstance(f, Atom) else np.asarray(f, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2 or samples.shape[0] != grid.size:
        raise ValueError(f"samples must cover the grid: shape {samples.shape}, not "
                         f"({grid.size},) or ({grid.size}, d)")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if d is not None and samples.shape[1] != d:
        raise ValueError(f"Banach model dimension must match the samples (d = {samples.shape[1]})")
    return samples


def h1_norm(
    f,
    B: BanachModel,
    grid: SpatialGrid,
    times: TimeGrid,
    kind: str = "heat",
    alpha: float = 0.0,
) -> float:
    """L^1 norm in x of sup_t ||semigroup(t) f(x)||_B, with the t -> 0+
    candidate ||f(x)||_B included.

    f may be a HermiteExpansion (spectral path: each mode decays by its
    own eigenvalue; the integrand is the maximal function of
    `semigroups.maximal_norm` at every grid point, with the same input
    checks) or an Atom / raw finite samples of shape (grid.size, d)
    (sampled path, heat only: the integrand is the sampled heat maximal
    function of the trapezoid-weighted samples, whose owner is
    `kernels._heat_maximal`; each time's norms are divided by theta(t)^n
    below t = h^2, where the lattice no longer resolves W_t, so the
    sampled operator tends to the identity as t -> 0+, and from h^2 up
    the value is that of `heat_apply` at every node).  The samples are
    checked once per call.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    if isinstance(f, HermiteExpansion):
        if f.n != grid.n:
            raise ValueError(f"expansion has n={f.n} but the grid has n={grid.n}")
        if grid.h > _resolution(f.K, f.n)[0]:
            raise ValueError("grid too coarse for the expansion degree")
        sup = _maximal_function(f, grid.points, kind, alpha, B, times)
        return float(np.sum(grid.weights * sup))
    samples = _grid_samples(f, grid, B.d)
    if kind != "heat":
        raise ValueError("sampled inputs support the heat maximal function only")
    if _real(alpha, "shift alpha") != 0.0:
        raise ValueError("sampled inputs support alpha = 0 only")
    w = grid.weights
    wf = (w[:, None] * samples).reshape(grid.shape + (samples.shape[1],))
    # heat_apply's values check: the samples are finite, and so are the
    # weighted ones unless a weight exceeds 1
    if grid.h > 1.0 and not np.all(np.isfinite(wf)):
        raise ValueError("values must be finite")
    heat = _heat_maximal(wf, grid.axis, times.nodes, grid.h, B.norm)
    return float(np.sum(w * np.maximum(B.norm(samples), heat)))  # with the t -> 0+ candidate


@dataclass(frozen=True)
class BallSpec:
    """Family of balls for BMO/Carleson sweeps on one-dimensional grids:
    centers on a lattice of given spacing/extent; per center, oscillation
    radii rho(a) 2^{-m} and size radii rho(a) 2^{m} for m = 0..depth."""

    spacing: float = 0.5
    extent: float = 6.0
    depth: int = 3

    def __post_init__(self):
        if not (0 < self.spacing < math.inf and 0 < self.extent < math.inf):
            raise ValueError("spacing and extent must be positive and finite")
        object.__setattr__(self, "depth", _integer(self.depth, "ladder depth", 0))

    @property
    def centers(self) -> np.ndarray:
        m = int(math.floor(self.extent / self.spacing))
        return self.spacing * np.arange(-m, m + 1)

    def balls(self):
        """(centers, radii, needs_oscillation) arrays, one entry per ball;
        the balls of a center are adjacent, oscillation and size radii
        alternating with m = 0..depth."""
        a = self.centers
        scale = 2.0 ** np.arange(self.depth + 1)
        rho = critical_radius(a)[:, None, None]
        radii = np.concatenate([rho / scale[:, None], rho * scale[:, None]], axis=2)
        oscillation = np.tile([True, False], a.size * (self.depth + 1))
        return np.repeat(a, 2 * (self.depth + 1)), radii.ravel(), oscillation


def _ball_intervals(axis, centers, radii):
    """Index intervals [lo, lo + count) of the ball interiors
    {|x - a| < r} on a sorted 1-D axis, for balls given as arrays with
    the balls of each center adjacent.  fl(x - a) is monotone in x, so
    one searchsorted per center gives exactly the points that a mask
    np.abs(axis - a) < r selects."""
    lo = np.empty(radii.size, dtype=np.intp)
    hi = np.empty(radii.size, dtype=np.intp)
    starts = np.flatnonzero(np.diff(centers, prepend=np.nan))
    for i, j in zip(starts, np.r_[starts[1:], centers.size]):
        d = axis - centers[i]
        lo[i:j] = np.searchsorted(d, -radii[i:j], side="right")
        hi[i:j] = np.searchsorted(d, radii[i:j], side="left")
    return lo, np.maximum(hi - lo, 0)


def _interval_sums(padded, bounds, axis: int = 0):
    """Sums of `padded` along `axis` (0 or 1) over the index intervals
    [lo_k, hi_k) given by the interleaved bounds lo_0, hi_0, lo_1, hi_1, ...
    with lo_k < hi_k <= L, where `padded` holds L entries and one trailing
    zero along `axis`, so that hi = L is an index.  One np.add.reduceat,
    read at its even slots (an odd slot sums the gap to the next interval,
    or reads one entry): each interval sums the same terms in the same
    order as a reduceat over a gathered copy of the intervals, so it has
    the same bits, without the copy."""
    sums = np.add.reduceat(padded, bounds, axis=axis)
    return sums[::2] if axis == 0 else sums[:, ::2]


class _BallPlan:
    """What the ball sweeps read of `balls.balls()` and their
    `_ball_intervals` on one line grid, built once per (grid, BallSpec)
    by `_ball_plan`.  Every array is read-only, because every hit hands
    out the same ones.

    - `skipped`, the number of balls without an interior lattice point;
      the others are the used balls, oscillation balls first, each group
      in family order, and `oscillating` is their number.
    - `centers` and `radii` of the used balls; `bounds`, their interiors
      as interleaved bounds lo_0, hi_0, lo_1, hi_1, ... (`_interval_sums`);
      `mass`, the quadrature mass of each interior.
    - Of the oscillation balls: `gather`, the lattice indices of their
      interiors one after the other; `starts`, where each ball begins in
      it; `count`, its number of points; `weights`, the grid weights at
      `gather`."""

    def __init__(self, grid: SpatialGrid, balls: BallSpec):
        centers, radii, oscillation = balls.balls()
        lo, count = _ball_intervals(grid.axis, centers, radii)
        used = count > 0
        self.skipped = int(count.size - np.count_nonzero(used))
        oscillating = np.flatnonzero(used & oscillation)
        order = np.concatenate([oscillating, np.flatnonzero(used & ~oscillation)])
        k = self.oscillating = oscillating.size
        lo, count = lo[order], count[order]
        self.centers, self.radii = centers[order], radii[order]
        self.bounds = np.stack([lo, lo + count], axis=1).ravel()
        w = grid.weights
        self.mass = _interval_sums(np.append(w, 0.0), self.bounds)
        self.count = count[:k]
        self.starts = np.cumsum(self.count) - self.count
        self.gather = np.repeat(lo[:k] - self.starts, self.count) + np.arange(np.sum(self.count))
        self.weights = w[self.gather]
        for a in (self.centers, self.radii, self.bounds, self.mass, self.count, self.starts,
                  self.gather, self.weights):
            _read_only(a)


# the plans of the last 8 (grid, BallSpec) pairs; both are values, so a
# grid built anew with the same (R, h, n) finds its plan
_ball_plan = functools.lru_cache(maxsize=8)(_BallPlan)


def _require_line(grid: SpatialGrid):
    if grid.n != 1:
        raise ValueError("ball sweeps run on one-dimensional grids (BallSpec centers are scalars)")


def bmo_norm(samples, B: BanachModel, grid: SpatialGrid, balls: BallSpec) -> float:
    """Max over the ball family of mean oscillation (r < rho(a)) or mean
    size (r >= rho(a)); averages over interior lattice points weighted by
    quadrature mass.  Balls without interior points are skipped (with a
    warning per call reporting how many).  Every ball interior is an index
    interval of the lattice (`_ball_plan`), and the masses, the means of
    the oscillation balls and the sizes sum w f and w ||f||_B over those
    intervals in place (`_interval_sums`); only the oscillation balls'
    interiors are gathered, for ||f - mean||_B.  Each average is a
    weighted sum divided by the same mass, so the estimate of the
    function 1 is exactly 1.  One-dimensional grids only."""
    _require_line(grid)
    samples = _grid_samples(samples, grid, B.d)
    w = grid.weights
    plan = _ball_plan(grid, balls)
    if plan.skipped:
        warnings.warn(f"skipped {plan.skipped} balls without interior lattice points")
    if not plan.mass.size:
        return 0.0
    k, bounds, mass = plan.oscillating, plan.bounds, plan.mass
    wf = np.zeros((grid.size + 1, samples.shape[1]))
    np.multiply(w[:, None], samples, out=wf[:-1])
    mean = _interval_sums(wf, bounds[:2 * k]) / mass[:k, None]
    dev = samples[plan.gather] - np.repeat(mean, plan.count, axis=0)
    oscillation = np.add.reduceat(plan.weights * B.norm(dev), plan.starts) / mass[:k]
    wn = np.zeros(grid.size + 1)
    np.multiply(w, B.norm(samples), out=wn[:-1])
    size = _interval_sums(wn, bounds[2 * k:]) / mass[k:]
    return float(np.max(np.concatenate([oscillation, size])))


def _g_squared(f, x, alpha: float, grid: SpatialGrid, times: TimeGrid, line: bool = False):
    """(x, g2) for the area and Carleson functionals: the checked single
    point x, and (t d/dt P_t f)^2 on the grid at the times, shape
    (grid.size, times.N), for a scalar expansion f.  With `line`, a grid
    that is not one-dimensional is refused after the point is checked."""
    f = _expansion(f, "f")
    if f.d != 1:
        raise ValueError(f"area/Carleson functionals take scalar-valued inputs, not d = {f.d}")
    x = _point(x, grid.n, "x")
    if line:
        _require_line(grid)
    return x, gfunction(f, alpha, grid, times).values[:, :, 0] ** 2


def area_integral(
    f: HermiteExpansion,
    x,
    alpha: float,
    grid: SpatialGrid,
    times: TimeGrid,
) -> float:
    """Square function over the cone {|x - y| < t}: the integral of
    |t d/dt P_t f(y)|^2 dy dt / t^{n+1}, square-rooted, for a scalar
    expansion f, whose g-field each call synthesizes (`gfunction`)."""
    x, g2 = _g_squared(f, x, alpha, grid, times)
    dist = _distances(grid, x)
    t = times.nodes
    cone = dist[:, None] < t[None, :]  # (size, N)
    wy = grid.weights[:, None]
    wt = (times.weights * t ** (-grid.n))[None, :]
    return math.sqrt(float(np.sum(np.where(cone, g2 * wy * wt, 0.0))))


def carleson_functional(
    f: HermiteExpansion,
    x,
    alpha: float,
    balls: BallSpec,
    grid: SpatialGrid,
    times: TimeGrid,
) -> float:
    """sup over family balls containing x of the normalized box integral
    (1/|B| int_0^{r} int_B |t d/dt P_t f(y)|^2 dy dt/t)^{1/2}, for a scalar
    expansion f, whose g-field each call synthesizes.  The box sums of all
    balls containing x are interval sums (`_interval_sums`) of the
    (times, points + 1) rows of w g^2 over the balls' cached bounds
    (`_ball_plan`), masked in t.  One-dimensional grids only."""
    x, g2 = _g_squared(f, x, alpha, grid, times, line=True)
    plan = _ball_plan(grid, balls)
    around = np.abs(x - plan.centers) < plan.radii
    radii = plan.radii[around]
    wg2 = np.zeros((times.N, grid.size + 1))
    np.multiply(grid.weights, g2.T, out=wg2[:, :-1])
    sums = _interval_sums(wg2, plan.bounds.reshape(-1, 2)[around].ravel(), axis=1)
    box = np.where(times.nodes[:, None] < radii, sums, 0.0).T @ times.weights
    return float(np.max(np.sqrt(box / plan.mass[around]), initial=0.0))
