"""Closed-form and quadrature evaluation of the heat, Poisson, g-function
and ladder kernels of the shifted harmonic-oscillator operator.

The heat kernel has the exact Gaussian closed form; the Poisson family is
obtained by subordination,

    P_t = t/sqrt(4 pi) * int_0^inf s^{-3/2} e^{-t^2/(4s) - alpha s} W_s ds,

evaluated by trapezoid quadrature in log s.  The integrand decays
double-exponentially in log s at both ends (e^{-t^2/4s} below, the
e^{-(n+alpha)s} heat decay above), so a fixed node count is uniformly
accurate over many decades of t: with Q = 64 the spectral action error
is below 1e-10 for t in [0.05, 10].  A plain generalized Gauss-Laguerre
rule in u = t^2/4s is *not* usable here: e^{-c/u} factors are far from
polynomial near u = 0 and stall at ~1e-2 relative error for small t.

Each subordinated integrand factors as a scalar weight f(s, t) times a
t-free block K(s), and every block is a function of point invariants:
e^{ns} W_s depends on the points only through |x - y|^2 and |x + y|^2
(`_mehler_block`), and e^{(alpha+n)s} d/ds e^{-alpha s} W_s(1), the
block of g_of_one, only through |x|^2.  The Poisson and g kernels use
e^{ns} W_s as it is.  The ladder kernel (d_j +/- x_j) W_s is affine in
u = x_j - y_j and v = x_j + y_j, a(s) u + b(s) v times the same block,
with node factors free of cancellation (`_ladder_coefficients`).  The
weights carry the whole large-s decay e^{-(alpha+n)s}, so for a negative
shift neither factor overflows or underflows at the top of the window
(e^{-alpha s} alone overflows there while W_s underflows, and inf * 0
would spread NaN to every time).  All of them run through one quadrature
loop, `_subordinate_family`, which writes the weight t/sqrt(4 pi) s^{-3/2}
e^{-t^2/4s - (n+alpha)s} once, over members (t, decay, factor, affine)
that share the block: times (a scalar t or a 1-D array of T times, which
gives a leading time axis), decay n + alpha, a factor of the weight and
an optional affine factor; a public kernel is a family of one.  The loop
takes `_distinct` of the point invariants once and one log-s grid over
the union of every member's (t, decay) windows, in blocks of at most
Q nodes; each block is evaluated once per node and distinct value of the
invariants, each member's (T x nodes) weight matrix f(s, t) sums it by a
matmul, and one inverse index scatters a member's sums back to the points
when it is yielded.  Six times in [0.1, 2] need 113 nodes instead of
6 * 64 = 384, and the 65 x 65 lattice of `verify envelopes` has 1089
distinct pairs in its 4225 points, so a kernel there evaluates 113 *
1089 Mehler entries instead of 384 * 4225.  That suite's five
subordinated kernels (Poisson, g, gH on 16 times, ladder and gradient)
are one family (`_pair_family`) on those 113 nodes, not 5 * 113, and
`verify kernel`'s shifts 0 and 2 one family on 173 nodes, not 146 + 160.
On a 2-core host, in one process, `hermlp verify envelopes` went from
9.98 to 5.16 ms and `check_kernel_vs_spectral` from 5.83 to 3.78 ms (the
least of 100 interleaved rounds, `bench/layers.py verify`,
`BENCH_family.json`).
`SubordinationRule` describes the grid and its node-count bound.

`heat_apply` applies W_t, for one time or a 1-D array of times, to
samples on a uniform tensor lattice without forming the kernel matrix,
by one of three routes per time.  Expanding the exponent,

    W_t(x, y) = c_t e^{-B|x|^2/2} e^{-(A-B)|x-y|^2/4} e^{-B|y|^2/2},

with A = coth t and B = tanh t; the middle factor is the Gaussian
e^{-pi c1 (h k)^2} of the lag k, Toeplitz on the lattice, and it splits
per axis (the structure behind the fast Gauss transform).  Long times
take Mehler's series per axis,

    W_t(x, y) = sum_k e^{-(2k+1)t} h_k(x) h_k(y),

the same dense matrix on the lattice, whose terms fall like e^{-2kt}:
project the values onto the Hermite table over their support, scale
row k by e^{-(2k+1)t}, and synthesize.  A time takes the series when it
is within the FFT's own error scale after K(t) <= _SERIES_CAP = 64
terms on every input on the lattice (`_series_order`); on
SpatialGrid(12, 0.02) the times of TimeGrid(1e-3, 20, 16) from 0.74 up
do.  The short times convolve with the Gaussian, one of two ways.  On a
line, the Gaussian cut at the lag w(t) where it falls below 1e-17 is a
stencil of 2w + 1 points, and a support of s points takes it directly,
one np.convolve, when (2w + s) s <= _STENCIL_WORK (the near field of the
fast Gauss transform: it costs about s (2w + 1) multiply-adds).  Every
other short time, and every short time for n >= 2, takes an FFT on a
circle sized to the support: outputs on L points from values in
[lo, hi) need the lags |k| <= m = max(hi - 1, L - 1 - lo), so the circle
has about 2m + 1 points, not 2L - 1, and T times make one batched FFT
per axis over a (T, ...) stack.  The Gaussian on the circle is real and
even, so its spectrum is real, and the product is complex times real.
On SpatialGrid(12, 0.02) the 10 short hardy times have w = 19 to 404, so
an atom (at most about 50 points) takes the stencil at each of them,
and a dense input (1201 points) the FFT at each.

Everything that depends on the axis, the times and n alone is one
read-only plan per (axis, times, n), the last 16 kept (`_lattice_plan`):
the axis checks and the step, each time's route between the series and
the rest, the series' decays and Hermite table, the edge scalings,
c1^{n/2}, the stencils, and the spectra per circle length, built on
first use.  So a sweep over many inputs on one lattice and one time grid
transforms only the values, and pays one plan lookup per call.

Every entry point rejects non-finite times, and points that are not
finite or not in the layout of `basis`, with ValueError; the subordinated
kernels also reject times outside [_t_min(n), 1e150], where the lower
bound is 1e-60 for n <= 3 and rises with the dimension n (1e-48 for
n = 4, 1e-34 for n = 6), so that their quadrature sums stay finite.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .basis import _coordinate, _integer, _points, _read_only, _table

__all__ = [
    "ShiftedOperator",
    "SubordinationRule",
    "heat_kernel",
    "heat_kernel_one",
    "heat_apply",
    "heat_one_dt",
    "poisson_kernel",
    "g_kernel",
    "ladder_kernel",
    "g_of_one",
]

_SQRT4PI = math.sqrt(4.0 * math.pi)
# how far, in units of the exponents, a subordination window reaches into
# both tails of its integrand (`SubordinationRule._window`)
_CUT = 45.0
# the times of the subordination rule (`SubordinationRule._window`): at
# 1/4-decade steps its window fails above 1e154, where t * t overflows.
# The kernels take t >= _t_min(n), which is _T_MIN for n <= 3
_T_MIN, _T_MAX = 1e-60, 1e150
# e^x is subnormal or 0 below this, about -708.40 (`_mehler_block`)
_LOG_TINY = math.log(np.finfo(float).tiny)
# the most entries (nodes x distinct values) of a block evaluated at once:
# its temporaries of 1 MiB each stay in a core's L2 cache (`_subordinate_family`)
_BLOCK_ENTRIES = 1 << 17
# the rounding of heat_apply's FFT route, relative to its Gaussian bound;
# a time takes the Mehler series when a series of at most _SERIES_CAP + 1
# terms is that close on every input (`_series_order`)
_HEAT_EPS = 1e-16
_SERIES_CAP = 64
# the other times of heat_apply on a line take the Gaussian cut where it
# falls below _STENCIL_EPS (of its peak, 1) as one direct convolution, of
# about (2w + 1) s multiply-adds for w lags and a support of s points,
# when (2w + s) s <= _STENCIL_WORK, and the FFT otherwise (`_stencil_rows`).
# The constant sits at the crossover on SpatialGrid(12, 0.02): the 10
# short hardy times took 194 us by stencil and 213 us by FFT for a support
# of 200 points, 250 and 218 us for 300 points (one core)
_STENCIL_EPS = 1e-17
_STENCIL_WORK = 200_000


@dataclass(frozen=True)
class ShiftedOperator:
    """The operator L + alpha with L = -Laplacian + |x|^2 on R^n."""

    alpha: float = 0.0
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "dimension n", 1))
        if not math.isfinite(self.alpha):
            raise ValueError(f"shift alpha={self.alpha} is not finite")
        if self.alpha <= -self.n:
            raise ValueError(f"shift alpha={self.alpha} must exceed -n={-self.n}")


@dataclass
class SubordinationRule:
    """Quadrature for the half-line subordination integrals.

    For one time t, `s_nodes` is a Q-point log-domain trapezoid rule whose
    truncation window adapts to the integrand peak at s = t/(2 sqrt(D));
    the module constant `_CUT` sets how far into both exponential tails
    the window reaches.

    A list of times, each with its decay rate, shares one grid
    (`_node_blocks`): the union of the per-t windows at the finest per-t
    step, so every time sees a window at least as wide and a step at
    least as fine as its own Q-point rule.
    The trapezoid rule converges geometrically in the step for these
    double-exponentially decaying integrands, so the shared grid is at
    least as accurate: over t in [1e-3, 20] it matches a Q = 1024 per-t
    reference to about 1e-13 of the kernel's maximum, where the per-t
    Q = 64 rule misses it by up to 1e-9 at small t.  When the shared grid
    would need more than T * Q nodes (times spread over many decades,
    e.g. {1e-3, 40} needs 512), the nodes are the T per-t grids instead,
    so a call never evaluates more than T * Q nodes.  For a single time
    the shared grid is exactly the Q nodes of `s_nodes`.  The rule holds
    no precomputed nodes, so constructing one costs nothing.
    """

    Q: int = 64

    def __post_init__(self):
        self.Q = _integer(self.Q, "subordination node count Q", 2)

    def _window(self, t: float, decay: float):
        """The log-s interval (lo, hi) of the rule for time t."""
        if t <= 0:
            raise ValueError("time must be positive")
        if not _T_MIN <= t <= _T_MAX:
            raise ValueError(_outside(t, 1))
        if decay <= 0:
            raise ValueError("large-s decay rate must be positive")
        rt = t * math.sqrt(decay) + _CUT
        return math.log(t * t / (4.0 * rt)), math.log(rt / decay)

    def s_nodes(self, t: float, decay: float):
        """Nodes/weights for int_0^inf F(s) ds with F ~ e^{-t^2/4s} at 0
        and F ~ e^{-decay*s} at infinity; weights include the ds = s dtheta
        Jacobian of the log substitution."""
        return _log_trapezoid(*self._window(t, decay), self.Q)

    def _node_blocks(self, ts, decays):
        """Yield (s, w) blocks of at most Q nodes covering the grid shared
        by the times `ts`, where ts[i] decays at the rate decays[i] for
        large s; w holds the node weights per time, shape (T, len(s)) or
        (len(s),) when every time uses them all."""
        windows = [self._window(float(t), d) for t, d in zip(ts, decays)]
        los, his = zip(*windows)
        lo, hi = min(los), max(his)
        step = min(map(operator.sub, his, los)) / (self.Q - 1)
        size = math.ceil((hi - lo) / step - 1e-9) + 1
        if size <= len(windows) * self.Q:
            s, w = _log_trapezoid(lo, hi, size)
            for i in range(0, size, self.Q):
                yield s[i:i + self.Q], w[i:i + self.Q]
            return
        for j, window in enumerate(windows):
            s, w = _log_trapezoid(*window, self.Q)
            rows = np.zeros((len(windows), self.Q))
            rows[j] = w
            yield s, rows


@functools.cache
def _t_min(n: int) -> float:
    """The smallest time the subordinated kernels take in n dimensions:
    1e-60 for n <= 3, and 10^-(240 // (n + 1)) above (1e-48 for n = 4,
    1e-34 for n = 6).  The kernels grow like t^{-n} as t -> 0, and the
    largest terms of their quadrature sums like t^{-(n+2)} (the lowering
    ladder kernel on the diagonal), so for larger n these overflow at
    larger t: at 1/4-decade steps the n = 4 ladder kernel failed below
    1e-51.25 and the n = 6 Poisson kernel below 1e-44.  The bound keeps
    t^{-(n+1)} <= 1e240, which leaves every kernel finite at every
    1/4-decade step for n <= 8."""
    return float(f"1e-{min(60, 240 // (n + 1))}")


def _outside(t: float, n: int) -> str:
    """The error for a time outside the subordinated kernels' range."""
    return (f"time t={t!r} is outside [{_t_min(n):g}, {_T_MAX:g}], the range of the "
            f"subordinated kernels" + (f" for n={n}" if n > 3 else ""))


def _log_trapezoid(lo: float, hi: float, size: int):
    """Trapezoid nodes s = e^theta on [lo, hi] in theta, with weights
    including the ds = s dtheta Jacobian."""
    theta = np.arange(size) * ((hi - lo) / (size - 1)) + lo  # np.linspace, bit for bit
    theta[-1] = hi
    w = np.full(size, theta[1] - theta[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    s = np.exp(theta)
    return s, w * s


_DEFAULT_RULE = SubordinationRule()


def _split(x, n):
    """Squared Euclidean norm of the float array x along its point axis."""
    if n == 1:
        return x * x
    return np.sum(x * x, axis=-1)


def _check_time(t, ndim=None):
    """t as a float array whose entries are finite and positive; with
    ndim=1 it must also be a scalar or a nonempty 1-D array.  ValueError
    otherwise."""
    t = np.asarray(t, dtype=float)
    if ndim is not None and (t.ndim > ndim or t.size == 0):
        raise ValueError("times must be a scalar or a nonempty 1-D array")
    # time lists are short, and Python floats check them faster than
    # numpy's reductions, whose fixed cost is several microseconds
    values = t.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("time t must be finite")
    if not min(values, default=1.0) > 0:
        raise ValueError("time t must be positive")
    return t


def _mehler(t):
    """Mehler coefficients (A, B, c1): A = coth t, B = tanh t and the
    one-dimensional prefactor c1 = e^{-2t} / (pi (1 - e^{-4t})), from
    cancellation-safe expm1 terms."""
    em2t = np.exp(-2.0 * t)
    m2 = -np.expm1(-2.0 * t)      # 1 - e^{-2t}
    m4 = -np.expm1(-4.0 * t)      # 1 - e^{-4t}
    return (1.0 + em2t) / m2, m2 / (1.0 + em2t), em2t / (math.pi * m4)


def _half_power(c, n: int):
    """c^{n/2} from sqrt and products, which round the same way for a
    scalar c and inside an array; numpy's vectorized power does not, so
    c ** (n/2) could change the last bit with the batch a time is in."""
    out = np.sqrt(c) if n % 2 else 1.0
    for _ in range(n // 2):
        out = out * c
    return out


def _heat_prefactor(t, n: int):
    """(A, B, c1^{n/2}) of `_mehler` at the times t, or a ValueError naming
    the least t and n where coth t, c1 or c1^{n/2} is not finite: coth t
    overflows below t = 5.6e-309, and c1^{3/2} below 2.5e-207."""
    with np.errstate(over="ignore", divide="ignore"):
        A, B, c1 = _mehler(t)
        scale = _half_power(c1, n)
    if not (np.isfinite(A).all() and np.isfinite(scale).all()):
        raise ValueError(f"time t={float(np.min(t))!r} is too small for the closed-form heat "
                         f"kernel in n={n} dimensions: coth t, c1 or c1^(n/2) is not finite")
    return A, B, scale


def heat_kernel(x, y, t, n: int = 1):
    """Gaussian closed form of the oscillator heat kernel W_t(x, y).

    Symmetric in (x, y) and strictly positive; t may broadcast against
    the points.  Too small a time raises ValueError (`_heat_prefactor`).
    """
    d2, s2 = _pair_keys(_points(x, n, "x"), _points(y, n, "y"), n)
    A, B, scale = _heat_prefactor(_check_time(t), n)
    return scale * np.exp(-0.25 * (A * d2 + B * s2))


def _pair_keys(x, y, n: int):
    """|x - y|^2 and |x + y|^2 for float points x, y: the Mehler kernel
    depends on the points through these two invariants only."""
    return _split(x - y, n), _split(x + y, n)


def _fft_length(m: int) -> int:
    """Smallest of 2^a, 3 2^a and 5 2^a that is >= m: a fast FFT length,
    at most 25 % above m."""
    p = 1 << (m - 1).bit_length()  # the smallest power of two >= m
    return min(c for c in (p, 3 * p // 4, 5 * p // 8) if c >= m)


def _lattice_mass(h: float, t):
    """theta(t) = h sqrt(c1) sum_k e^{-pi c1 (h k)^2} over all integers k:
    the mass of the Gaussian factor of W_t sampled with step h, per axis.
    By Poisson summation it is also sum_m e^{-pi m^2 / (c1 h^2)}; the sum
    whose terms fall faster is taken, to six terms on each side: the
    first term left out is below e^{-49 pi}.  For t >= h^2,
    c1 h^2 <= 1/(4 pi) (c1 is 1/(4 pi t) times 2t / sinh 2t), so
    2 e^{-pi/(c1 h^2)} < 2^-53 and theta is exactly 1.0; once t << h^2 it
    grows like h / sqrt(4 pi t)."""
    _, _, c1 = _mehler(np.asarray(t, dtype=float))
    a = c1 * (h * h)
    fine = a < 1.0
    k = np.arange(6, 0, -1).reshape((-1,) + (1,) * a.ndim)
    # b = inf where a is 0 or subnormal (large t): its terms are 0, theta 1
    with np.errstate(divide="ignore", over="ignore"):
        b = np.where(fine, 1.0 / a, a)
        theta = 1.0 + 2.0 * np.sum(np.exp(-math.pi * b * (k * k)), axis=0)
    return np.where(fine, theta, h * np.sqrt(c1) * theta)


def _series_order(t: float, R: float, n: int):
    """The least K whose Mehler series W_t = sum_k e^{-(2k+1)t} h_k h_k,
    cut after k = K, misses the one-dimensional kernel on an axis within
    [-R, R] by at most _HEAT_EPS / n of the Gaussian bound; None when that
    K exceeds _SERIES_CAP.  Indritz's |h_k| <= pi^{-1/4} bounds the
    remainder kernel by pi^{-1/2} e^{-(2K+3)t} / (1 - e^{-2t}), and the
    bound of `heat_apply` weighs each value at least by
    c1^{1/2} e^{-B R^2/2}: their ratio is
    sqrt(coth t) e^{B R^2/2 - (2K+2)t}, finite wherever coth t is."""
    gap = math.log(n / _HEAT_EPS) + 0.5 * math.tanh(t) * R * R
    gap += 0.5 * math.log(1.0 / math.tanh(t))
    return None if gap > (2 * _SERIES_CAP + 2) * t else max(0, math.ceil(gap / (2.0 * t)) - 1)


class _HeatPlan:
    """What `heat_apply` needs of the lattice axis, the times and n alone,
    built once per (axis, times, n) by `_lattice_plan`, after the checks
    that depend on the axis only: every point finite, then the steps
    uniform (a failing axis raises ValueError, and no plan is built).
    Every array is read-only, because every hit hands out the same ones.

    - `h`, the step; `series` and `short`, the indices of the times that
      take the Mehler series and of the rest; `decays`, per series time
      e^{-(2k+1)t} for k = 0..K(t) (`_series_order`); `table`, the axis's
      shared Hermite table of _SERIES_CAP + 1 rows (None without series
      times).
    - `fault`, the error of a time too small for the closed form, raised
      by `heat_apply` after its values check (None when there is none);
      `peak`, the binary exponent of the largest c1^{n/2} of the times.
    - Per short time: `edge`, (T_short, L), the scalings e^{-B x^2/2};
      `scale`, (T_short, 1), c1^{n/2}; `weights`, their product, the
      stencil rows' output scaling; `gauss`, (T_short, L), the Gaussian
      e^{-pi c1 (h k)^2} at the lags k = 0..L-1; `widths`, the largest lag
      w where it is at least _STENCIL_EPS (at most L - 1); `stencils`, the
      Gaussian at the lags -w..w.
    - `spectra`, the Gaussians' real spectra by circle length, built by
      `spectrum` on first use."""

    def __init__(self, axis_bytes: bytes, times_bytes: bytes, n: int):
        axis, times = np.frombuffer(axis_bytes), np.frombuffer(times_bytes)
        if not np.all(np.isfinite(axis)):
            raise ValueError("axis must be finite")
        L, R = axis.size, float(np.max(np.abs(axis)))
        self.h = (axis[-1] - axis[0]) / (L - 1) if L > 1 else 0.0
        if L > 2 and np.max(np.abs(np.diff(axis) - self.h)) > 1e-9 * abs(self.h):
            raise ValueError("heat_apply needs a uniform axis")
        orders = [_series_order(t, R, n) for t in times.tolist()]
        self.series = [i for i, K in enumerate(orders) if K is not None]
        self.short = np.array([i for i, K in enumerate(orders) if K is None], dtype=np.intp)
        self.decays = [_read_only(np.exp(-(2.0 * np.arange(orders[i] + 1) + 1.0) * times[i]))
                       for i in self.series]
        self.table = _table(_SERIES_CAP, axis) if self.decays else None
        self.spectra, self.fault = {}, None
        try:
            _, B, scale = _heat_prefactor(times.reshape(-1, 1), n)
        except ValueError as err:
            self.fault = str(err)
            return
        self.peak = math.frexp(float(np.max(scale)))[1]
        self.edge = _read_only(np.exp(-0.5 * B[self.short] * axis * axis))
        self.scale = _read_only(scale[self.short])
        self.weights = _read_only(self.edge * self.scale)
        k = self.h * np.arange(L)
        # A - B = 4 e^{-2t} / (1 - e^{-4t}) = 4 pi c1, free of cancellation
        # at large t.  e^x rounds to 0 below x = -745.2, and numpy's exp is
        # several times slower on such arguments than on the rest, so they
        # are skipped, and so are those that overflow to -inf at tiny times.
        with np.errstate(over="ignore"):
            arg = -math.pi * _mehler(times[self.short].reshape(-1, 1))[2] * k * k
        self.gauss = _read_only(np.exp(arg, out=np.zeros_like(arg), where=arg > -746.0))
        self.widths = np.count_nonzero(self.gauss >= _STENCIL_EPS, axis=1) - 1  # g falls with k
        self.stencils = [_read_only(np.concatenate([g[w:0:-1], g[:w + 1]]))
                         for g, w in zip(self.gauss, self.widths.tolist())]

    def spectrum(self, size: int):
        """The rfft, shape (T_short, size/2 + 1), of the short times'
        Gaussians on a circle of `size` points, g[j] = `gauss` at the lag
        k = min(j, size - j), and g[j] = 0 where k > L - 1.  g is real and
        even, so its spectrum is real: only the real part is kept, half the
        bytes of the complex one."""
        if size not in self.spectra:
            L, lag = self.gauss.shape[1], np.minimum(np.arange(size), size - np.arange(size))
            g = np.where(lag < L, np.take(self.gauss, lag, axis=1, mode="clip"), 0.0)
            self.spectra[size] = _read_only(np.fft.rfft(g, axis=1).real.copy())
        return self.spectra[size]


# the plan of `heat_apply` for the exact float64 bytes of a lattice axis
# and of the times, and n; the last 16 are kept, and none for an axis that
# fails its checks
_lattice_plan = functools.lru_cache(maxsize=16)(_HeatPlan)


def heat_apply(values, axis, t):
    """sum_y W_t(x, y) values(y) over the tensor lattice axis^n.

    `axis` is a uniform 1-D grid of L points and `values` has shape
    (L,)*n + (d,); the result has the same shape.  `t` is a scalar or a
    1-D array of T times; an array puts the times on a new leading axis,
    shape (T,) + values.shape, equal bit for bit to stacking the scalar
    calls.  Values must be finite: the FFT would spread a NaN over the
    lattice.  Quadrature weights are the caller's (multiply them into
    `values`).  Too small a time raises ValueError (`_heat_prefactor`),
    and so does an output beyond the float range; the caller bounds
    T L^n, since a few arrays of that size are alive at once.

    Each time takes one of three routes (module docstring).  Whether it
    takes the series depends on the axis, the times and n only; a short
    time's choice between the stencil and the FFT reads the support of
    `values` too, and each time's choice reads that time alone, never the
    others of the call:

    - Series rows.  Per lattice axis, Mehler's series cut after k = K(t):
      the coefficients sum_y h_k(y) values(y) over the support, times
      e^{-(2k+1)t}, synthesized on all L points from the shared Hermite
      table (`basis._table`).  A time takes it when K(t) <= _SERIES_CAP
      (64), where K(t) is the least K whose remainder is below 1e-16 / n
      of the bound below on every input on the lattice, by Indritz's
      |h_k| <= pi^{-1/4} (`_series_order`): the times from 0.57 up on
      SpatialGrid(12, 0.02) and from 0.34 up on SpatialGrid(6, 0.1, 2).
    - Stencil rows (n = 1 only).  The Gaussian e^{-pi c1 (h k)^2} at the
      lags |k| <= w(t), the largest lag where it is at least 1e-17 (at
      most L - 1), convolved directly with the edge-scaled values on
      their support [lo, hi) of s points, and written on
      [lo - w, hi + w) within the lattice.  A time takes it when
      (2w + s) s <= _STENCIL_WORK (200 000), a constant measured where
      the stencil and the FFT cost the same.
    - FFT rows: every other time.  Each lattice axis is one (T, L)
      diagonal scaling, one FFT convolution with the Gaussians, |k| < L,
      and the same scaling again: O(T L^n log L) rather than the
      O(T L^{2n}) of dense kernel matrices.  The circle is as short as
      the support of `values` allows.  If the nonzero values, over every
      other axis and component, lie in [lo, hi) along a lattice axis,
      outputs on all L points need the lags |k| <= m =
      max(hi - 1, L - 1 - lo), so the convolution runs on the smallest
      of 2^a, 3 2^a and 5 2^a points that is at least 2m + 1.  The
      supports are taken once from `values`, because an operator along
      one axis leaves the support along the others as it is.

    All-zero values give zeros with no route.  Values whose largest
    magnitude is beyond 2^+-512 go through the routes divided by the
    power of two at it, and the outputs come back multiplied by it: that
    is exact, and no route overflows on finite values (below 2^512 none
    can), so only an output that is itself beyond the float range
    raises.

    W_t is the continuum kernel sampled on the lattice: all three routes
    are the dense kernel matrix, applied fast.  It resolves W_t only for
    t >= h^2.  Below that the Gaussian is narrower than the step h, and
    the lattice sum of the kernel per axis is theta(t) (`_lattice_mass`),
    about h / sqrt(4 pi t), not 1: on SpatialGrid(12, 0.02) the weights
    of the lattice give 1.78 at the centre for t = 1e-5, where W_t(1) is
    about 1.  `spaces.h1_norm` divides by theta^n.

    The FFT's error is absolute: about 1e-16 of the Gaussian bound
    c1^{n/2} sum_y e^{-B |y|^2 / 2} |values(y)| (`_mehler`), however
    small the output.  A stencil row leaves out lags whose Gaussian is
    below 1e-17, so below 1e-17 of the same bound, and rounds like the
    FFT: on SpatialGrid(12, 0.02), over supports of 1 to 200 points at
    both edges and inside, the two routes differed by at most 4.7e-16 of
    the bound at the 10 short hardy times.  A series row's remainder is
    below 1e-16 of the same bound, and its rounding is relative to
    sum_k e^{-(2k+1)t} |h_k(x) h_k(y)| <= sqrt(W_t(x, x) W_t(y, y)), which
    is below the bound too and far below it at the lattice's edges.  An
    output far below the bound may be relatively inaccurate: 8 points of
    support at the left edge of SpatialGrid(12, 0.02) give outputs of
    about 6e-20 at t = 0.37, where the stencil is off the dense
    `heat_kernel` matrix by 1.4e-10 of max|out| (the lags it leaves out
    carry outputs of that size; the FFT was off by 3.6e-8), and at t = 1
    the series by 1.9e-14.  Check against the matrix with an absolute
    tolerance, not a relative one.

    The plan (`_HeatPlan`) holds, per short time, three arrays of L
    floats (the edge scalings, their product with c1^{1/2} and the
    Gaussian), a stencil of 2w + 1 floats, and a spectrum of P/2 + 1
    floats per circle length P the calls have used (at most four per
    lattice); per series time K(t) + 1 decays; and the axis's Hermite
    table of 65 rows, which `basis` shares.  Plans are keyed on the
    exact bytes of the axis and the times, and the last 16 are kept, so
    repeated calls on one lattice and one time list do only the
    convolutions and the series' matmuls.  A plan gives the same bits
    whether it is built or reused; the axis checks (finite, uniform) run
    once per plan, and no plan is kept for an axis that fails them;
    every other input check runs on every call, and the result never
    shares memory with a plan.
    """
    times = _check_time(t, ndim=1)
    axis, values = np.asarray(axis, dtype=float), np.asarray(values, dtype=float)
    L, n = axis.size, values.ndim - 1
    if axis.ndim != 1 or L == 0 or n < 1 or values.shape[:-1] != (L,) * n:
        raise ValueError("values must have shape (L,)*n + (d,) for an axis of L points")
    plan = _lattice_plan(axis.tobytes(), times.tobytes(), n)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if plan.fault:
        raise ValueError(plan.fault)
    nonzero = values != 0
    if not nonzero.any():
        return np.zeros(times.shape + values.shape)
    supports = []
    for j in range(n):
        occupied = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(n + 1) if a != j)))
        supports.append((int(occupied[0]), int(occupied[-1]) + 1))
    # values beyond 2^+-512 go through the routes over the power of two at
    # their largest magnitude, and the outputs come back times it: exact,
    # and then no route overflows on finite values (below 2^512 none can)
    box = values[tuple(slice(lo, hi) for lo, hi in supports)]
    e = math.frexp(max(float(box.max()), -float(box.min())))[1]
    shift = e if abs(e) > 512 else 0
    if shift:
        values = np.ldexp(values, -shift)
    s = supports[0][1] - supports[0][0]
    # per time, never per batch: (2w + s) s <= _STENCIL_WORK, for integers w
    near = plan.widths <= ((_STENCIL_WORK // s - s) // 2 if n == 1 else -1)
    if near.any() or plan.series:
        out = np.empty((times.size,) + values.shape)
        if near.any():
            _stencil_rows(values, plan, np.flatnonzero(near), *supports[0], out)
        if not near.all():
            far = np.flatnonzero(~near) if near.any() else slice(None)
            out[plan.short[far]] = _fft_rows(values, plan, far, supports)
        _series_rows(values, plan, supports, out)
    else:  # FFT rows only: their array is the result, without a copy
        out = _fft_rows(values, plan, slice(None), supports)
    if shift:
        with np.errstate(over="ignore"):  # an output beyond the float range raises below
            np.ldexp(out, shift, out=out)
    # no output exceeds the largest c1^{n/2} times the sum of |values|
    if plan.peak + box.size.bit_length() + e > 1022 and not np.all(np.isfinite(out)):
        raise ValueError("heat_apply's output exceeds the float range")
    return out if times.ndim else out[0]


def _stencil_rows(values, plan, rows, lo, hi, out):
    """Write W_t values on a line (n = 1) for the short times `rows` of
    the plan into their rows of `out`, shape (T,) + values.shape: per
    time, the edge scaling of the support [lo, hi), one convolution with
    the truncated stencil per component, kept on [lo - w, hi + w) within
    the lattice, the edge scaling times c1^{1/2} there, and zeros
    elsewhere."""
    out[plan.short[rows]] = 0.0
    v = values[lo:hi] * plan.edge[rows, lo:hi, None]
    for r, i in enumerate(rows.tolist()):
        stencil, w = plan.stencils[i], len(plan.stencils[i]) // 2
        a, b = max(lo - w, 0), min(hi + w, len(values))
        for c in range(values.shape[1]):
            np.multiply(np.convolve(v[r, :, c], stencil)[a - lo + w:b - lo + w],
                        plan.weights[i, a:b], out=out[plan.short[i], a:b, c])


def _fft_rows(values, plan, rows, supports):
    """W_t values for the short times `rows` (an index array or a slice of
    the plan's), shape (T_rows,) + values.shape: per lattice axis, the
    edge scaling, a convolution on the circle that the support [lo, hi)
    allows, and the scaling again."""
    L, n = plan.edge.shape[1], values.ndim - 1
    column = (plan.scale[rows].size, -1) + (1,) * n  # broadcast along the lattice axis 1
    edge = plan.edge[rows].reshape(column)
    out = values[None]
    for j, (lo, hi) in enumerate(supports, start=1):
        size = _fft_length(2 * max(hi - 1, L - 1 - lo) + 1)
        gauss = plan.spectrum(size)[rows].reshape(column)
        v = out.swapaxes(j, 1) * edge
        spec = np.fft.rfft(v, size, axis=1)
        del v
        spec *= gauss
        conv = np.fft.irfft(spec, size, axis=1)
        del spec
        out = (conv[:, :L] * edge).swapaxes(1, j)
        del conv
    return plan.scale[rows].reshape((-1,) + (1,) * (n + 1)) * out


def _series_rows(values, plan, supports, out):
    """Write W_t values for each series time of the plan into `out`, shape
    (T,) + values.shape: per lattice axis, the Hermite coefficients of the
    values over their support [lo, hi), row k times e^{-(2k+1)t} for
    k <= K(t), and the synthesis on the whole axis, each one matmul over
    every other axis at once.  The first axis's coefficients are one
    projection onto every row of the plan's table, shared by the times;
    the rest is one chain of K(t) + 1 row matmuls per time.  No matmul's
    shape depends on the other times of the call, so a row gives the same
    bits alone and in a batch (BLAS sums a row differently with the
    number of rows beside it)."""
    lo, hi = supports[0]
    first = plan.table[:, lo:hi] @ values[lo:hi].reshape(hi - lo, -1) if plan.series else None
    for i, decay in zip(plan.series, plan.decays):
        rows, decay = plan.table[:len(decay)], decay[:, None]
        row = (rows.T @ (decay * first[:len(rows)])).reshape(values.shape)
        for j, (lo, hi) in enumerate(supports[1:], start=1):
            moved = row.swapaxes(0, j)
            coefficients = rows[:, lo:hi] @ moved[lo:hi].reshape(hi - lo, -1)
            row = (rows.T @ (decay * coefficients)).reshape(moved.shape).swapaxes(0, j)
        out[i] = row


def heat_kernel_one(x, t, n: int = 1):
    """W_t(1)(x): the heat semigroup applied to the constant function 1.

    Closed form from Gaussian integration of the heat kernel over y:

        (2 e^{-2t} / (1 + e^{-4t}))^{n/2}
            * exp(-(1 - e^{-4t}) / (2 (1 + e^{-4t})) |x|^2).

    Tends to 1 as t -> 0+ and is nonincreasing in |x|.
    """
    x = _points(x, n, "x")
    t = _check_time(t)
    em2t = np.exp(-2.0 * t)
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    pref = _half_power(2.0 * em2t / (1.0 + em4t), n)
    return pref * np.exp(-0.5 * m4 / (1.0 + em4t) * _split(x, n))


def heat_one_dt(x, t, op: ShiftedOperator):
    """d/dt of e^{-alpha t} W_t(1)(x), in closed form."""
    x = _points(x, op.n, "x")
    t = _check_time(t)
    r2 = _split(x, op.n)
    return np.exp(-(op.alpha + op.n) * t) * _heat_one_dt_rescaled(r2, t, op)


def _heat_one_dt_rescaled(r2, t, op: ShiftedOperator):
    """e^{(alpha+n)t} d/dt e^{-alpha t} W_t(1)(x) at |x|^2 = r2: the time
    derivative with its large-t decay taken out, finite at every t > 0."""
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    onep = 1.0 + em4t
    bracket = op.alpha + op.n * m4 / onep + r2 * 4.0 * em4t / (onep * onep)
    return -bracket * _half_power(2.0 / onep, op.n) * np.exp(-0.5 * m4 / onep * r2)


def _distinct(*keys):
    """The distinct tuples of the equally long 1-D float arrays `keys`,
    matched by exact equality and sorted by the first key, then the next,
    as one array per key; and the index that maps each position to its
    tuple.  For one key this is np.unique with return_inverse, at a
    fraction of its fixed cost."""
    size = keys[0].size
    if size == 1:
        return keys, np.zeros(1, dtype=np.intp)
    order = np.lexsort(keys[::-1])
    ordered = [k[order] for k in keys]
    first = np.empty(size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[0][1:], ordered[0][:-1], out=first[1:])
    for k in ordered[1:]:
        first[1:] |= k[1:] != k[:-1]
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return [k[first] for k in ordered], inverse


def _subordinate_family(members, rule, block, keys, n=1):
    """Yield, for each member (t, decay, factor, affine) in turn,
    t/sqrt(4 pi) sum_i w_i s_i^{-3/2} factor(s_i, t) e^{-t^2/4s_i - decay s_i}
    block(s_i) over the log-s nodes s_i and weights w_i of `rule`; factor
    broadcasts nodes against a column of times.  The members share the
    block, and each node's block is evaluated once for all of them.

    The block depends on the points only through the invariants `keys`,
    float arrays of the point shape (|x - y|^2 and |x + y|^2, or |x|^2).
    `block(s, *values)` gets the nodes on a column and the distinct tuples
    of the invariants (`_distinct`), one array per invariant, and returns
    one row per node and one column per tuple, for at most _BLOCK_ENTRIES
    entries at a time.  The nodes are the grid shared by the (t, decay)
    windows of every member (`SubordinationRule._node_blocks`), so each
    member sees a grid at least as fine as its own.  Each member's rows
    of weights sum the columns by a 2-D matmul of their own into compact
    sums (rows x distinct tuples): stacked into one matmul, BLAS would
    round a row by where it falls in the stack, and a member would not
    equal its one-member call bit for bit.  A member's sums are scattered
    back to the points by one inverse index only when it is yielded, so
    a caller that drops each kernel holds one at a time.  With
    `affine = (coefficients, u, v)` the integrand is (a(s) u + b(s) v)
    block(s), where coefficients(s) returns the node factors (a, b) and
    u, v are arrays of the point shape: a and b double the member's rows
    of weights, and u, v apply after the scatter.

    `t` is a scalar or a 1-D array of T times; an array puts the times on
    a new leading axis in front of the point shape.  Repeated times of a
    member are computed once.  Times outside [_t_min(n), _T_MAX], for a
    block in n dimensions, are rejected before any block is evaluated.
    """
    rule = rule or _DEFAULT_RULE
    least = _t_min(n)
    sets, grid_ts, grid_decays = [], [], []
    for t, decay, factor, affine in members:
        times = _check_time(t, ndim=1)
        (ts,), back = _distinct(times.ravel())
        distinct = ts.tolist()
        for end in (distinct[0], distinct[-1]):
            if not least <= end <= _T_MAX:
                raise ValueError(_outside(end, n))
        sets.append((times, ts, back, decay, factor, affine))
        grid_ts += distinct
        grid_decays += [decay] * len(distinct)
    shape = np.shape(keys[0])
    values, inverse = _distinct(*(np.ravel(k) for k in keys))
    rows = _BLOCK_ENTRIES // max(1, values[0].size) or 1
    totals = [0.0] * len(sets)
    for s, w in rule._node_blocks(grid_ts, grid_decays):
        weights, first = [], 0  # per member; `first` is its first time's row of w
        for _, ts, _, decay, factor, affine in sets:
            t = ts[:, None]
            wm = (w if w.ndim == 1 else w[first:first + ts.size]) * (
                s ** -1.5 * factor(s, t) * np.exp(-t * t / (4.0 * s) - decay * s))
            first += ts.size
            if affine is not None:
                a, b = affine[0](s)
                wm = np.concatenate([wm * a, wm * b])
            weights.append(wm)
        for i in range(0, s.size, rows):
            part = block(s[i:i + rows, None], *values)
            totals = [total + wm[:, i:i + rows] @ part for total, wm in zip(totals, weights)]
            del part  # the block is a temporary: it is freed before the next is built
    for (times, ts, back, _, _, affine), total in zip(sets, totals):
        total = total[:, inverse].reshape(total.shape[:1] + shape)
        if affine is not None:
            total = affine[1] * total[:ts.size] + affine[2] * total[ts.size:]
        total = (ts / _SQRT4PI).reshape((-1,) + (1,) * len(shape)) * total
        out = total[back].reshape(times.shape + shape)[()]  # a scalar for 0-d
        del total
        yield out
        del out  # a caller that dropped the kernel frees it before the next is built


def _mehler_block(s, d2, s2, n: int):
    """e^{ns} W_s at the pairs with |x - y|^2 = d2 and |x + y|^2 = s2, as
    (pi (1 - e^{-4s}))^{-n/2} e^{-(A d2 + B s2)/4}; nodes s on a column.
    Finite at every s > 0, where W_s itself underflows to 0 once ns
    exceeds about 745.  At small s most exponents are far below
    log(tiny), where numpy's exp returns a subnormal or 0 many times
    slower than elsewhere (and products with subnormals are slow too), so
    they become exact zeros without calling exp."""
    em2s = np.exp(-2.0 * s)
    m2 = -np.expm1(-2.0 * s)  # 1 - e^{-2s}
    A, B = (1.0 + em2s) / m2, m2 / (1.0 + em2s)  # as in `_mehler`
    # -(A d2 + B s2)/4 with the exact factor 1/4 on the node column
    arg = (-0.25 * A) * d2
    arg += (-0.25 * B) * s2
    gauss = np.exp(arg, out=np.zeros_like(arg), where=arg >= _LOG_TINY)
    gauss *= (math.pi * -np.expm1(-4.0 * s)) ** (-n / 2.0)
    return gauss


def _pair_family(x, y, members, rule=None):
    """Yield, for each member (kind, t, op) in turn, the Poisson-family
    kernel of op = L + alpha at the times t and the points x, y of R^n,
    from one pass over the Mehler blocks; the members share the dimension
    n.  The kinds are those of the public kernels: "poisson"
    (`poisson_kernel`), "g" (`g_kernel`), ("ladder", j, sign)
    (`ladder_kernel`, whose op is L), and "g_dx", d/dx_1 of `g_kernel`
    (`_gradient_coefficients`).  Each is
    t/sqrt(4 pi) int s^{-3/2} factor(s, t) e^{-t^2/(4s) - alpha s} W_s ds
    with the kind's weight factor, and for "g_dx" and the ladder kernels
    W_s is multiplied by a(s) u + b(s) v, with the kind's node factors
    (a, b), u = x_j - y_j and v = x_j + y_j: the member (t, n + alpha,
    factor, affine) of `_subordinate_family` on the block e^{ns} W_s."""
    n = members[0][2].n
    x, y = _points(x, n, "x"), _points(y, n, "y")
    subs = []
    for kind, t, op in members:
        factor, coefficients, j = _g_factor, None, 1
        if kind == "poisson":
            factor = _unit_factor
        elif kind == "g_dx":
            coefficients = _gradient_coefficients
        elif kind != "g":
            _, j, sign = kind
            factor, coefficients = _ladder_factor, functools.partial(_ladder_coefficients, sign=sign)
        affine = None
        if coefficients is not None:
            xj, yj = _coordinate(x, n, j), _coordinate(y, n, j)
            affine = (coefficients, xj - yj, xj + yj)
        subs.append((t, n + op.alpha, factor, affine))
    return _subordinate_family(subs, rule, lambda s, d2, s2: _mehler_block(s, d2, s2, n),
                               _pair_keys(x, y, n), n)


def _pair_kernel(x, y, member, rule=None):
    """The one-member call of `_pair_family`."""
    (out,) = _pair_family(x, y, [member], rule)
    return out


def _unit_factor(s, t):
    """The weight factor of the Poisson kernel: 1."""
    return 1.0


def poisson_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """Subordinated Poisson kernel of L + alpha; strictly positive.

    A 1-D array of times gives a leading time axis (see `_subordinate_family`)."""
    return _pair_kernel(x, y, ("poisson", t, op), rule)


def _g_factor(s, t):
    """t d/dt of the Poisson weight, over that weight: 1 - t^2/(2s)."""
    return 1.0 - t * t / (2.0 * s)


def g_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt of the Poisson kernel of L + alpha (g-function kernel)."""
    return _pair_kernel(x, y, ("g", t, op), rule)


def _gradient_coefficients(s):
    """-(coth s)/2 and -(tanh s)/2, the node factors of "g_dx" in
    `_pair_family`, d/dx_1 of `g_kernel`: d/dx_1 of the Mehler exponent
    -(A u^2 + B v^2)/4, with u = x_1 - y_1 and v = x_1 + y_1, is -A u/2 -
    B v/2, so one subordination pass carries both terms."""
    A, B, _ = _mehler(s)
    return -0.5 * A, -0.5 * B


def _ladder_coefficients(s, sign: int):
    """(sign - coth s)/2 and (sign - tanh s)/2, the factors of x_j - y_j
    and x_j + y_j in sign x_j - (coth s)(x_j - y_j)/2 - (tanh s)(x_j +
    y_j)/2, written without cancellation: with e = e^{-2s} they are
    -e/(1 - e) and e/(1 + e) for sign +1, -1/(1 - e) and -1/(1 + e) for
    sign -1."""
    e = np.exp(-2.0 * s)
    m2 = -np.expm1(-2.0 * s)  # 1 - e^{-2s}
    if sign > 0:
        return -e / m2, e / (1.0 + e)
    return -1.0 / m2, -1.0 / (1.0 + e)


def _ladder_factor(s, t):
    """The weight factor of the ladder kernels, the Poisson kernel of L
    with the factor t: t times t/sqrt(4 pi)."""
    return t


def ladder_kernel(
    x, y, t, j: int, sign: int, n: int = 1, rule: SubordinationRule | None = None
):
    """Kernel of t (d/dx_j +/- x_j) P_t, by subordination of the
    analytically differentiated heat kernel.

    (d/dx_j + sign x_j) W_s = (a(s) u + b(s) v) W_s with u = x_j - y_j,
    v = x_j + y_j and the node factors of `_ladder_coefficients`, so the
    kernel is u times one subordinated sum plus v times another, both
    over the Mehler blocks of `poisson_kernel`.

    The raising kernel (sign +1) annihilates the ground mode, so at large
    t it nearly cancels.  The factor sign x_j - (coth s) u/2 - (tanh s)
    v/2 as written subtracts nearly equal terms at large s (1 - coth s is
    -2e^{-2s}/(1 - e^{-2s}), but coth s rounds to 1 beyond about s = 19),
    which cost 3.0e-11 of the kernel's maximum at t = 20; a(s) and b(s)
    are free of that cancellation.  For n = 1 on the 9 x 9 lattice of
    (x, y) in [-2, 2]^2, against a Q = 4096 per-time rule, the default
    rule is off by 7.4e-15 of the kernel's maximum at t = 20 (Q = 1024
    by 3.8e-15) and by 1.2e-13 at t = 5; the lowering kernel (sign -1)
    by 8.2e-15 at t = 20 and 1.2e-13 at t = 5.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return _pair_kernel(x, y, (("ladder", j, sign), t, ShiftedOperator(0.0, n)), rule)


def g_of_one(x, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt P_t^{L+alpha}(1)(x), subordinating the exact time derivative
    of the heat action on 1; its block depends on |x|^2 alone."""
    x = _points(x, op.n, "x")
    # t/sqrt(pi) s^{-1/2} is the Poisson weight's t/sqrt(4 pi) s^{-3/2} times 2s
    (out,) = _subordinate_family(
        [(t, op.n + op.alpha, lambda s, t: 2.0 * s, None)], rule,
        lambda s, r2: _heat_one_dt_rescaled(r2, s, op), (_split(x, op.n),), op.n)
    return out
