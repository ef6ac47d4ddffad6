"""Stable evaluation of multidimensional Hermite functions and the
conversion between sampled functions and spectral coefficients.

The orthonormal Hermite functions are built from the normalized three-term
recurrence

    h_0(x) = pi^{-1/4} e^{-x^2/2},   h_1(x) = sqrt(2) x h_0(x),
    h_{m+1}(x) = x sqrt(2/(m+1)) h_m(x) - sqrt(m/(m+1)) h_{m-1}(x),

never from the raw Hermite polynomials (2^k k! overflows long before
k = 100).  One generator, `_rows`, yields h_m for m = 0..K at an array of
positions and owns the rule for where each value comes from.  A position
with |x| <= _X_NEAR = sqrt(1416) = 37.63 takes the recurrence on the
exponentially scaled values h_m(x) e^{x^2/2} (`_scaled_rows`) times
e^{-x^2/2}; beyond it that Gaussian leaves the normal floats and the
scaled values may overflow, and every row there comes from `_far_rows`,
which keeps each row's binary exponent apart.  The tables are filled
from `_rows`, and `hermite_eval` is the product over coordinates of its
last rows, so the two agree bit for bit in every dimension.  Against
mpmath the relative error was at most 1.4e-12 for k <= 2000 in R, and
1.2e-13 for products of two with k_j < 120, wherever the value is a
normal float (README gives how it was measured).

Layouts shared by every module:

- A point of R^n is a bare position when n = 1 and has its n coordinates
  on the last axis otherwise; points stack along the leading axes, so
  for n = 1 an array of any shape holds positions.  `_points` checks
  this layout and finiteness and `_point` also requires one point, each
  naming the argument it rejects; `_coordinate` reads coordinate j, and
  `_ladder` checks the (j, sign) of a ladder operator for every module.
- Samples on a `SpatialGrid` follow `grid.points`: shape (grid.size,)
  for one component or (grid.size, d) for d (`spaces._grid_samples`).
  `analyze` alone takes the tensor layout grid.shape (+ (d,)).

Hermite tables are shared.  `analyze`, `synthesize_grid`,
`point_synthesis_matrix` and the checks of `verify` read one read-only
table per axis (`_table`), keyed on the exact float64 bytes and shape of
the axis.  It holds the rows m = 0..K of the largest K
asked for on that axis so far; a smaller K is a slice of it, and a
larger one rebuilds it.  The 8 most recently used axes are kept, at
(K+1) L 8 bytes each for L points: 0.3 MB for K = 30 on 1201 points.
A one-point axis is built on each call and not stored, so syntheses at
single points do not evict lattice tables.  `eval_table` returns a
writable copy.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "SpatialGrid",
    "HermiteExpansion",
    "hermite_eval",
    "hermite_ladder_eval",
    "hermite_derivative",
    "eval_table",
    "analyze",
    "synthesize",
    "synthesize_grid",
    "default_grid",
]


def as_index(k) -> tuple:
    if isinstance(k, (int, np.integer)):
        k = (int(k),)
    k = tuple(int(kj) for kj in k)
    if any(kj < 0 for kj in k):
        raise ValueError(f"multi-index must be nonnegative, got {k}")
    return k


def _integer(value, name: str, least: int) -> int:
    """value as a Python int via operator.index; ValueError when it is a
    bool or not an integer, or falls below `least`."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None
    if value < least:
        raise ValueError(f"{name}={value} must be >= {least}")
    return value


def _real(value, name: str) -> float:
    """value, a Python or numpy real scalar or a 0-d real array, as a
    Python float; ValueError naming the argument for anything else (a bool,
    a complex number, None, a string, an array of other rank) and for a
    value that is not finite."""
    value = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}={value!r} must be a real number")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name}={real!r} is not finite")
    return real


def _eigenvalue(degree, n: int, alpha):
    """2|k| + n + alpha, the eigenvalue of the shifted oscillator L + alpha
    on R^n at the modes k of degree |k| (an int or an int array)."""
    return 2.0 * degree + n + alpha


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor lattice on [-R, R]^n with trapezoid weights.

    R is snapped to an integer multiple of h so the lattice is symmetric
    about 0 and contains the origin.  A grid is a value: two grids with
    the same (R, h, n) after the snap are equal and hash alike, and
    `axis`, `axis_weights`, `points` and `weights` are read-only.
    """

    R: float
    h: float
    n: int = 1

    def __post_init__(self):
        if not (0 < self.R < math.inf and 0 < self.h < math.inf):
            raise ValueError("grid requires finite R > 0 and h > 0")
        n = _integer(self.n, "dimension n", 1)
        if not math.isfinite(self.R / self.h):
            raise ValueError(f"grid half-width over step, R/h = {self.R!r}/{self.h!r}, overflows")
        m = max(1, int(round(self.R / self.h)))
        h = float(self.h)
        w = np.full(2 * m + 1, h)
        w[[0, -1]] = 0.5 * h
        # past the frozen __setattr__; axis and axis_weights are functions of
        # (R, h, n), so they are not fields and take no part in == and hash
        self.__dict__.update(n=n, h=h, R=m * h, axis=_read_only(h * np.arange(-m, m + 1)),
                             axis_weights=_read_only(w))

    @property
    def shape(self) -> tuple:
        return (self.axis.size,) * self.n

    @property
    def size(self) -> int:
        return self.axis.size ** self.n

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Flattened lattice, shape (size,) for n=1 and (size, n) otherwise;
        built on first access and read-only."""
        if self.n == 1:
            return self.axis
        mesh = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=-1))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Flattened tensor trapezoid weights; they sum to (2R)^n.  Built
        on first access and read-only."""
        w = self.axis_weights
        for _ in range(self.n - 1):
            w = np.multiply.outer(w, self.axis_weights)
        return _read_only(w.ravel())


def _resolution(K, n: int) -> tuple:
    """(h, R): a grid resolves the Hermite modes of degree <= K in R^n when
    its step is at most h = 0.25 / sqrt(2K+n), which follows the
    oscillation of the highest mode, and its half-width is at least
    R = sqrt(2K+n) + 4, which holds that mode's Gaussian envelope.  Each
    bound carries a rounding slack (1e-12 on h, 1e-9 on R).  ValueError
    unless K is an integer >= 0."""
    root = math.sqrt(2 * _integer(K, "degree cap K", 0) + n)
    return 0.25 / root + 1e-12, root + 4.0 - 1e-9


def default_grid(n: int = 1, K: int | None = None) -> SpatialGrid:
    """Grid sized so `analyze` resolves Hermite oscillation up to degree K.

    The half-width that `analyze` requires (`_resolution`) is snapped up,
    not to the nearest multiple of h, so the grid always covers it.
    """
    if K is None:
        K = 60 if n == 1 else 20
    h = 0.005 if n == 1 else 0.03
    return SpatialGrid(math.ceil(_resolution(K, n)[1] / h) * h, h, n)


# the scaled recurrence holds where |x| <= _X_NEAR: e^{-x^2/2} >= e^{-708}
# is a normal float, and |h_m(x) e^{x^2/2}| <= pi^{-1/4} e^{708} is well
# inside the float range (|h_m| <= pi^{-1/4}, Indritz).  `_far_rows` mends
# the points beyond it, and clamps them to _X_FAR, where every row of
# degree below 10^10 underflows to a zero of the sign of h_m(x)
_X_NEAR = math.sqrt(1416.0)
_X_FAR = 2.0 ** 20
_LN2 = math.log(2.0)


def _scaled_rows(kmax: int, x):
    """Yield h_m(x) e^{x^2/2} for m = 0..kmax by the normalized recurrence,
    at a float array or numpy float x; finite within _X_NEAR."""
    prev = math.pi ** -0.25 * np.ones_like(x)
    yield prev
    if kmax == 0:
        return
    cur = math.sqrt(2.0) * x * prev
    yield cur
    for i in range(1, kmax):
        a = math.sqrt(2.0 / (i + 1))
        b = math.sqrt(i / (i + 1.0))
        prev, cur = cur, a * x * cur - b * prev
        yield cur


def _far_rows(kmax: int, x, first: int = 0):
    """Yield h_m(x) for m = first..kmax at a float array or numpy float x of
    any finite points, those beyond _X_NEAR included; the rows below
    `first` are run through but not formed.  The recurrence runs on
    mantissas: after every row, np.frexp moves the binary exponent of
    h_m(x) e^{x^2/2} into an integer per point, and the row before is
    scaled by the same power of two, which is exact.  The Gaussian is
    G 2^{-F}, with the integer F nearest x^2/(2 ln 2) and G =
    e^{F ln 2 - x^2/2} in [2^-1/2, 2^1/2], both chosen once per point, so
    a row is ldexp(mantissa G, exponent - F): no factor leaves the float
    range, and ldexp rounds a subnormal row once and keeps the sign of a
    row that underflows."""
    x = np.clip(x, -_X_FAR, _X_FAR)
    u = 0.5 * x * x
    F = np.round(u / _LN2)
    G = np.exp(F * _LN2 - u)
    F = F.astype(np.int64)
    E = np.zeros_like(F)
    prev, cur = np.zeros_like(x), math.pi ** -0.25 * np.ones_like(x)
    if first == 0:
        yield np.ldexp(cur * G, -F)
    for i in range(kmax):
        a = math.sqrt(2.0 / (i + 1))
        b = math.sqrt(i / (i + 1.0))
        prev, (cur, e) = cur, np.frexp(a * x * cur - b * prev)
        prev = np.ldexp(prev, -e)
        E = E + e
        if i + 1 >= first:
            yield np.ldexp(cur * G, E - F)


def _rows(kmax: int, x, first: int = 0):
    """Yield h_m(x) for m = first..kmax at the float array x: at a point
    with |x| <= _X_NEAR the scaled recurrence times e^{-x^2/2}, at any
    other the row of `_far_rows`.  The rows below `first` are run through
    but not multiplied by the Gaussian."""
    far = np.abs(x) > _X_NEAR
    if not far.any():
        gauss = np.exp(-0.5 * x * x)
        for scaled in islice(_scaled_rows(kmax, x), first, None):
            yield scaled * gauss
        return
    near = ~far
    xn = x[near]
    gauss = np.exp(-0.5 * xn * xn)
    for scaled, values in zip(islice(_scaled_rows(kmax, xn), first, None),
                              _far_rows(kmax, x[far], first)):
        row = np.empty(x.shape)
        row[near] = scaled * gauss
        row[far] = values
        yield row


# (axis shape, axis float64 bytes) -> read-only table of the most
# rows built so far on that axis, least recently used first; the lock makes
# each look-up, rebuild and eviction one step
_TABLES: OrderedDict = OrderedDict()
_TABLES_LOCK = threading.Lock()
_TABLE_AXES = 8


def _table(kmax: int, axis) -> np.ndarray:
    """Rows m = 0..kmax of the shared read-only table of this axis (module
    docstring).  Row m does not depend on kmax, so a slice of a longer
    table is exact.  A one-point axis (a synthesis at a single point) is
    not stored, where it would evict a lattice table: within _X_NEAR its
    recurrence runs on numpy scalars, several times faster than on a
    one-entry array."""
    axis = np.asarray(axis, dtype=float)
    if axis.size == 1:
        x = axis.reshape(-1)[0]
        if abs(x) > _X_NEAR:
            return _build(kmax, axis)
        rows = np.fromiter(_scaled_rows(kmax, x), float, kmax + 1)
        return (rows * np.exp(-0.5 * x * x)).reshape((kmax + 1,) + axis.shape)
    key = (axis.shape, axis.tobytes())
    with _TABLES_LOCK:
        table = _TABLES.pop(key, None)
        if table is None or len(table) <= kmax:
            table = _read_only(_build(kmax, axis))
        _TABLES[key] = table
        if len(_TABLES) > _TABLE_AXES:
            _TABLES.popitem(last=False)
    return table[:kmax + 1]


def _build(kmax: int, axis: np.ndarray) -> np.ndarray:
    """h_m on the float array axis for m = 0..kmax, shape (kmax+1,) +
    axis.shape, filled from `_rows`."""
    return np.fromiter(_rows(kmax, axis), np.dtype((float, axis.shape)), kmax + 1)


def eval_table(kmax: int, axis: np.ndarray) -> np.ndarray:
    """h_m on a 1-D axis for m = 0..kmax, shape (kmax+1, len(axis)), as a
    fresh writable copy of the shared table.

    Row m is bit-identical to `hermite_eval(m, axis)`."""
    return _table(_integer(kmax, "degree cap kmax", 0), axis).copy()


def _points(x, n: int, what: str) -> np.ndarray:
    """x as a float array of points of R^n in the layout of the module
    docstring, not copied when it already is one; ValueError naming the
    argument `what` when the last axis is not n long (n > 1) or an entry
    is not finite."""
    x = np.asarray(x, dtype=float)
    if n > 1 and x.shape[-1:] != (n,):
        raise ValueError(f"{what}: points must have last axis {n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what}: points must be finite")
    return x


def _point(x, n: int, what: str) -> np.ndarray:
    """A single point of R^n as a float array of shape (n,); ValueError as
    in `_points`, and when x holds more than one point."""
    x = _points(x, n, what)
    if x.size != n:
        raise ValueError(f"{what}: expected a single point of R^{n}, got shape {x.shape}")
    return x.reshape(n)


def _coordinate(x: np.ndarray, n: int, j: int) -> np.ndarray:
    """Coordinate j (1-based, in 1..n) of the checked points x of R^n."""
    return x if n == 1 else x[..., j - 1]


def _ladder(j, sign, n: int) -> tuple:
    """(j, sign) of the ladder operator d/dx_j + sign x_j on R^n, as Python
    ints; ValueError unless sign is +1 or -1 and j is in 1..n.  Both must
    be integers: numpy integers pass, bools and floats do not."""
    if not (_is_integer(sign) and sign in (+1, -1)):
        raise ValueError("sign must be +1 or -1")
    if not (_is_integer(j) and 1 <= j <= n):
        raise ValueError(f"coordinate j={j} out of range for n={n}")
    return int(j), int(sign)


def hermite_eval(k, x) -> np.ndarray:
    """h_k(x) = prod_j h_{k_j}(x_j) at the points x of R^n, n = len(k): the
    product, in coordinate order, of the last row of `_rows` per
    coordinate, as `point_synthesis_matrix` takes it from the tables."""
    k = as_index(k)
    n = len(k)
    x = _points(x, n, "x")
    out = 1.0
    for j, kj in enumerate(k, 1):
        # only the last row is formed: O(|x|) working memory
        out = out * next(_rows(kj, _coordinate(x, n, j), kj))
    return out


def hermite_ladder_eval(k, x, j: int, sign: int) -> np.ndarray:
    """(d/dx_j + sign * x_j) h_k(x) in closed index form.

    sign=+1 gives sqrt(2 k_j) h_{k-e_j}(x)  (0 when k_j = 0),
    sign=-1 gives -sqrt(2 k_j + 2) h_{k+e_j}(x).
    """
    k = as_index(k)
    j, sign = _ladder(j, sign, len(k))
    kj = k[j - 1]
    if sign == +1:
        if kj == 0:
            # sqrt(0) * h_{k - e_j} := 0 by convention
            return 0.0 * hermite_eval(k, x)
        step, amp = -1, math.sqrt(2.0 * kj)
    else:
        step, amp = +1, -math.sqrt(2.0 * kj + 2.0)
    return amp * hermite_eval(k[:j - 1] + (kj + step,) + k[j:], x)


def hermite_derivative(k, x, j: int = 1) -> np.ndarray:
    """d/dx_j h_k(x) as the half-sum of the two ladder actions."""
    up = hermite_ladder_eval(k, x, j, +1)
    down = hermite_ladder_eval(k, x, j, -1)
    return 0.5 * (up + down)


class HermiteExpansion:
    """Finite spectral representation: coefficient rows on multi-indices.

    `modes` (int, shape (rows, n)) holds the stored multi-indices k, each
    with |k| <= K, and row i of `C` (float, shape (rows, d)) is the
    coefficient of modes[i]; both are read-only and in storage order.  The
    constructor takes a dict {k: length-d coefficient}, `from_arrays` the
    two arrays.  The eigenvalue of the shifted oscillator on mode k is
    2|k| + n + alpha.
    """

    def __init__(self, n: int, d: int = 1, K: int = 0, coeffs: dict | None = None):
        clean = {}
        for k, c in (coeffs or {}).items():
            k = as_index(k)
            if len(k) != n:
                raise ValueError(f"index {k} has wrong dimension (n={n})")
            c = np.atleast_1d(np.asarray(c, dtype=float))
            if c.shape != (d,):
                raise ValueError(f"coefficient for {k} must have shape ({d},)")
            clean[k] = c
        self._store(n, d, K, list(clean), list(clean.values()))

    @classmethod
    def from_arrays(cls, n: int, d: int, modes, C, K: int | None = None) -> "HermiteExpansion":
        """Expansion with coefficient C[i] on mode modes[i]; K defaults to
        the largest degree among the modes.  A mode given twice is a
        ValueError: it would be stored twice."""
        e = cls._from_rows(n, d, modes, C, K)
        if len(e.modes) > 1:
            ordered = e.modes[np.lexsort(e.modes.T[::-1])]
            repeated = np.all(ordered[1:] == ordered[:-1], axis=1)
            if repeated.any():
                k = tuple(ordered[np.argmax(repeated)].tolist())
                raise ValueError(f"mode {k} is given more than once")
        return e

    @classmethod
    def _from_rows(cls, n, d, modes, C, K=None) -> "HermiteExpansion":
        """`from_arrays` for modes that are distinct by construction (an
        expansion's own modes, filtered or shifted by one e_j), without its
        test for a repeated mode."""
        modes, C = np.asarray(modes), np.asarray(C)
        if modes.ndim != 2 or modes.shape[1] != n:
            raise ValueError(f"modes of shape {modes.shape} have wrong dimension (n={n})")
        if C.shape != (len(modes), d):
            raise ValueError(f"coefficients must have shape ({len(modes)}, {d}), got {C.shape}")
        if K is None:
            K = int(modes.sum(axis=1).max(initial=0))
        e = cls.__new__(cls)
        e._store(n, d, K, modes, C)
        return e

    def _store(self, n, d, K, modes, C):
        self.n = _integer(n, "dimension n", 1)
        self.d = _integer(d, "dimension d", 1)
        self.K = _integer(K, "degree cap K", 0)
        modes = np.array(modes, dtype=int, order="C").reshape(-1, self.n)
        C = np.array(C, dtype=float, order="C").reshape(-1, self.d)
        # three whole-array tests; the per-row masks only name a bad row
        if not (modes.min(initial=0) >= 0 and modes.sum(axis=1).max(initial=0) <= self.K
                and np.isfinite(C).all()):
            for bad, message in (
                (np.any(modes < 0, axis=1), "multi-index must be nonnegative, got {k}"),
                (modes.sum(axis=1) > self.K, f"index {{k}} exceeds degree cap K={self.K}"),
                (~np.all(np.isfinite(C), axis=1), "non-finite coefficient at {k}"),
            ):
                if np.any(bad):
                    k = tuple(modes[np.argmax(bad)].tolist())
                    raise ValueError(message.format(k=k))
        self.modes, self.C = _read_only(modes), _read_only(C)

    @property
    def coeffs(self) -> dict:
        """{k: C[i]} in storage order, built on each access."""
        return dict(zip(map(tuple, self.modes.tolist()), self.C))

    @classmethod
    def single(cls, k) -> "HermiteExpansion":
        """The mode h_k with coefficient 1: n = len(k), d = 1, K = |k|."""
        k = as_index(k)
        return cls(n=len(k), d=1, K=sum(k), coeffs={k: [1.0]})

    def eigenvalue(self, k, alpha: float = 0.0) -> float:
        """lambda_alpha(k) = 2|k| + n + alpha (requires alpha > -n for positivity)."""
        return _eigenvalue(sum(k), self.n, alpha)

    def l2_norm_sq(self) -> float:
        return float(sum(float(c @ c) for c in self.C))

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())

    def scaled(self, factor: float) -> "HermiteExpansion":
        return HermiteExpansion._from_rows(self.n, self.d, self.modes, factor * self.C, self.K)


def analyze(samples, grid: SpatialGrid, K: int) -> HermiteExpansion:
    """Trapezoid projection of sampled f onto {h_k : |k| <= K}.

    The samples have shape grid.shape (d = 1) or grid.shape + (d,), the
    last axis holding the d components.

    The degree cap K is an integer >= 0, and the grid must resolve the
    oscillation of the highest mode (h <= 0.25 / sqrt(2K+n)) and contain
    its Gaussian envelope (R >= sqrt(2K+n) + 4, `_resolution`); otherwise
    the call is rejected.
    """
    n = grid.n
    K = _integer(K, "degree cap K", 0)
    most_h, least_R = _resolution(K, n)
    if grid.h > most_h:
        raise ValueError(f"grid spacing h={grid.h} too coarse for K={K}; need h <= {most_h:.4g}")
    if grid.R < least_R:
        raise ValueError(
            f"grid half-width R={grid.R} too small for K={K}; need R >= {least_R:.4g}")
    a = np.asarray(samples, dtype=float)
    if a.shape == grid.shape:
        a = a[..., np.newaxis]
    if a.ndim != n + 1 or a.shape[:n] != grid.shape:
        raise ValueError(
            f"samples have shape {np.shape(samples)}, expected {grid.shape} or {grid.shape} + (d,)"
        )
    d = a.shape[n]
    T = _table(K, grid.axis) * grid.axis_weights  # (K+1, M)
    # one component at a time, so a column's coefficients do not depend on
    # the columns beside it (BLAS may order its sums by the product's width)
    parts = [a[..., c:c + 1] for c in range(d)]
    for _ in range(n):
        parts = [np.tensordot(p, T, axes=(0, 1)) for p in parts]
    a = np.concatenate(parts)
    # a now has shape (d, K+1, ..., K+1), one trailing axis per coordinate;
    # the modes |k| <= K in lexicographic order, all-zero rows dropped
    modes = np.indices((K + 1,) * n).reshape(n, -1).T
    modes = modes[modes.sum(axis=1) <= K]
    C = a[(slice(None),) + tuple(modes.T)].T
    keep = np.any(C != 0.0, axis=1)
    return HermiteExpansion._from_rows(n, d, modes[keep], C[keep], K)


def point_synthesis_matrix(modes: np.ndarray, x) -> np.ndarray:
    """h_k(x) for every row k of `modes` (shape (rows, n)) at the points x
    of R^n, shape (rows, npts)."""
    n = modes.shape[1]
    pts = _points(x, n, "x").reshape(-1, n)
    S = np.ones((len(modes), len(pts)))
    for j in range(n):
        idx = modes[:, j]
        S *= _table(int(idx.max(initial=0)), pts[:, j])[idx]
    return S


def _expansion(e, what: str) -> HermiteExpansion:
    """e when it is a HermiteExpansion; ValueError naming the argument
    `what` otherwise (an array of samples, say)."""
    if not isinstance(e, HermiteExpansion):
        raise ValueError(f"{what}: expected a HermiteExpansion, got {type(e).__name__}")
    return e


def synthesize(e: HermiteExpansion, x) -> np.ndarray:
    """sum_k coeffs[k] h_k(x) at the points x, shape (npts, d), or (d,)
    when x is a single point (a scalar for n = 1, a length-n vector)."""
    e = _expansion(e, "e")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0 if e.n == 1 else x.ndim == 1
    out = point_synthesis_matrix(e.modes, x).T @ e.C
    return out[0] if single else out


def synthesize_grid(e: HermiteExpansion, grid: SpatialGrid) -> np.ndarray:
    """Synthesis on a full tensor grid, shape (grid.size, d): on a line
    from the stored coefficient rows alone, on a lattice of n >= 2
    through the dense (K+1)^n coefficient tensor (`_synthesize`)."""
    e = _expansion(e, "e")
    return _synthesize(e.modes, e.C, e.K, grid)


def _synthesize(modes: np.ndarray, C: np.ndarray, K: int, grid: SpatialGrid) -> np.ndarray:
    """sum_i C[i] h_{modes[i]} on the grid, shape (grid.size, d), for the
    modes (rows, n) with |k| <= K and their coefficient rows C (rows, d).

    The dimension is checked first: an n = 2 mode on a line would
    otherwise build a dense tensor before failing, and an n = 1 mode on a
    plane would fail inside numpy.  On a line the stored rows multiply
    their rows H of the axis table, as (C^T H)^T with C^T made
    contiguous: the dense route's product without its zero rows, in its
    layout, and with every mode 0..K stored in order it has the dense
    route's bits.  BLAS sums a transposed view of C, or H^T C, in another
    order, and H^T C moved the CLI's printed output.  For n >= 2 the rows
    are scattered into the (d, K+1, ..., K+1) tensor, which is contracted
    with the table once per axis; K sets that tensor's extent, and so the
    order of the sums."""
    n, d = modes.shape[1], C.shape[1]
    if n != grid.n:
        raise ValueError(f"expansion has n={n} but the grid has n={grid.n}")
    if not len(C):
        return np.zeros((grid.size, d))
    if n == 1:
        idx = modes[:, 0]
        return (np.ascontiguousarray(C.T) @ _table(int(idx.max()), grid.axis)[idx]).T
    a = np.zeros((d,) + (K + 1,) * n)
    a[(slice(None),) + tuple(modes.T)] = C.T
    T = _table(K, grid.axis)  # (K+1, M)
    for _ in range(n):
        a = np.tensordot(a, T, axes=(1, 0))
    # (d, M, ..., M) -> (size, d)
    return np.moveaxis(a, 0, -1).reshape(grid.size, d)

