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
interior as an index interval of the one-dimensional lattice, built once
per (axis, BallSpec) pair and kept for the last 8 pairs (`_ball_family`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (
    HermiteExpansion, SpatialGrid, _expansion, _integer, _point, _points, _read_only,
    _resolution,
)
from .gamma import BanachModel, TimeGrid
from .kernels import _lattice_mass, heat_apply
from .semigroups import _maximal_function, gfunction

# lattice values (times x grid points x d) per heat_apply call in h1_norm:
# 0.5 MB per real array, a few of which are alive during a call.  Blocks
# of twice this size ran 1.5x slower on a 121 x 121 lattice.
_HEAT_BLOCK = 2 ** 16

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
    """The samples of an Atom on this grid (same n, h and R), or an array in
    the sample layout of `basis` ((grid.size,) or (grid.size, d)) as
    (grid.size, d) floats; ValueError unless they cover the grid, are
    finite and, when `d` is given, have d components."""
    if isinstance(f, Atom) and (f.grid.n, f.grid.h, f.grid.R) != (grid.n, grid.h, grid.R):
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
    checks) or an Atom / raw finite samples of shape
    (grid.size, d) (sampled path, heat only: the trapezoid-weighted
    samples go through `heat_apply` over the whole lattice, for a block
    of time nodes at a time: at most _HEAT_BLOCK lattice values per
    block, so the 16 times of a 1201-point grid are one call and the
    times of a 241 x 241 lattice go one per call).  `heat_apply` takes
    each time by one of three routes (`kernels` module docstring): long
    times by the Mehler series cut where it is as accurate as the FFT;
    on a line, short times by a direct convolution with the Gaussian cut
    below 1e-17 of its peak when the support of the samples is small
    enough for that time, (2w + s) s <= 200 000 for s points and w lags, as
    an atom's is; and every other short time by a per-axis FFT
    convolution on a circle sized to the support, as a dense input's.
    All three are the same dense kernel matrix, to about 1e-16 of its
    Gaussian bound.  What depends on the lattice and the times only is
    one plan, built on the first call (`kernels._lattice_plan`), so every
    call after it on one grid and one TimeGrid transforms only the
    samples; a sweep of more than 16 time blocks rebuilds the plans each
    call.  README gives the plan's size and the routes' times for the
    benchmark's lattice.

    Resolution rule: the lattice resolves W_t for t >= h^2, the square of
    the grid step.  Below that the sampled kernel is narrower than the
    step, and its lattice sum per axis is theta(t), about
    h / sqrt(4 pi t) rather than 1 (`kernels._lattice_mass`), so each
    time's norms are divided by theta(t)^n: the sampled operator then
    maps 1 to about 1 at every t inside the lattice, and tends to the
    identity as t -> 0+.  For t >= h^2 theta is exactly 1.0 and nothing
    is divided, so where every time has t >= h^2 (h = 0.02 and
    t >= 1e-3, say) the value is that of the plain `heat_apply` sweep.
    """
    if kind not in ("heat", "poisson"):
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
    if alpha != 0.0:
        raise ValueError("sampled inputs support alpha = 0 only")
    w = grid.weights
    wf = (w[:, None] * samples).reshape(grid.shape + (samples.shape[1],))
    mass = None
    sup = B.norm(samples)
    step = max(1, _HEAT_BLOCK // wf.size)
    for i in range(0, times.N, step):
        heat = heat_apply(wf, grid.axis, times.nodes[i:i + step])
        norms = B.norm(heat.reshape(len(heat), grid.size, -1))
        del heat
        # after heat_apply has checked the times; theta(t) = 1.0 for t >= h^2
        if mass is None and times.nodes[0] < grid.h ** 2:
            mass = _lattice_mass(grid.h, times.nodes) ** grid.n
        if mass is not None:
            norms /= mass[i:i + step, None]
        sup = np.maximum(sup, norms.max(axis=0))
    return float(np.sum(w * sup))


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


@functools.lru_cache(maxsize=8)
def _ball_family(axis_bytes: bytes, balls: BallSpec):
    """(centers, radii, oscillation, lo, count) of `balls.balls()` and
    their `_ball_intervals` on the 1-D axis of these float64 bytes, for
    the last 8 (axis, BallSpec) pairs.  The arrays are read-only, because
    every hit hands out the same ones."""
    centers, radii, oscillation = balls.balls()
    lo, count = _ball_intervals(np.frombuffer(axis_bytes), centers, radii)
    return tuple(_read_only(a) for a in (centers, radii, oscillation, lo, count))


def _require_line(grid: SpatialGrid):
    if grid.n != 1:
        raise ValueError("ball sweeps run on one-dimensional grids (BallSpec centers are scalars)")


def bmo_norm(samples, B: BanachModel, grid: SpatialGrid, balls: BallSpec) -> float:
    """Max over the ball family of mean oscillation (r < rho(a)) or mean
    size (r >= rho(a)); averages over interior lattice points weighted by
    quadrature mass.  Balls without interior points are skipped (with a
    warning per call reporting how many).  All interiors are gathered into
    one index array and every sum is one np.add.reduceat over it; each
    average is a weighted sum divided by the same mass, so the estimate
    of the function 1 is exactly 1.  One-dimensional grids only."""
    _require_line(grid)
    samples = _grid_samples(samples, grid, B.d)
    _, _, oscillation, lo, count = _ball_family(grid.axis.tobytes(), balls)
    used = count > 0
    skipped = int(np.sum(~used))
    if skipped:
        warnings.warn(f"skipped {skipped} balls without interior lattice points")
    if not np.any(used):
        return 0.0
    lo, count, oscillation = lo[used], count[used], oscillation[used]
    starts = np.cumsum(count) - count
    idx = np.repeat(lo - starts, count) + np.arange(int(np.sum(count)))
    w, f = grid.weights[idx], samples[idx]
    mass = np.add.reduceat(w, starts)
    mean = np.add.reduceat(w[:, None] * f, starts) / mass[:, None]
    f -= np.repeat(np.where(oscillation[:, None], mean, 0.0), count, axis=0)
    return float(np.max(np.add.reduceat(w * B.norm(f), starts) / mass))


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
    f = _expansion(f, "f")
    if f.d != 1:
        raise ValueError(f"area/Carleson functionals take scalar-valued inputs, not d = {f.d}")
    x = _point(x, grid.n, "x")
    g2 = gfunction(f, alpha, grid, times).values[:, :, 0] ** 2
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
    balls containing x are one (balls x points) @ g^2 product, masked in t.
    One-dimensional grids only."""
    f = _expansion(f, "f")
    if f.d != 1:
        raise ValueError(f"area/Carleson functionals take scalar-valued inputs, not d = {f.d}")
    x = _point(x, grid.n, "x")
    _require_line(grid)
    g2 = gfunction(f, alpha, grid, times).values[:, :, 0] ** 2
    centers, radii, _, lo, count = _ball_family(grid.axis.tobytes(), balls)
    keep = (np.abs(x - centers) < radii) & (count > 0)
    lo, count, radii = lo[keep], count[keep], radii[keep]
    i = np.arange(grid.size)
    inside = (i >= lo[:, None]) & (i < (lo + count)[:, None])
    wmask = np.where(inside, grid.weights, 0.0)  # (balls, points)
    box = np.where(times.nodes < radii[:, None], wmask @ g2, 0.0) @ times.weights
    return float(np.max(np.sqrt(box / np.sum(wmask, axis=1)), initial=0.0))
