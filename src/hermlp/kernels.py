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
invariants, written in place, strip by strip, into one reused buffer
(`block(s, *values, out)`), each member's (T x nodes) weight matrix
f(s, t) sums it by a matmul, and one inverse index scatters a member's
sums back to the points when it is yielded.  Six times in [0.1, 2] need 113 nodes instead of
6 * 64 = 384, and the 65 x 65 lattice of `verify envelopes` has 1089
distinct pairs in its 4225 points, so a kernel there evaluates 113 *
1089 Mehler entries instead of 384 * 4225.  That suite's five
subordinated kernels (Poisson, g, gH on 16 times, ladder and gradient)
are one family (`_pair_family`) on those 113 nodes, not 5 * 113, and
`verify kernel`'s shifts 0 and 2 one family on 173 nodes, not 146 + 160.
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
transforms only the values, and pays one plan lookup per call; sampled
`spaces.h1_norm` looks up one plan for all of its time nodes, however
many blocks it takes them in.

Every entry point rejects non-finite times, and points that are not
finite or not in the layout of `basis`, with ValueError; the subordinated
kernels also reject times outside [_t_min(n), 1e150], where the lower
bound is 1e-60 for n <= 3 and rises with the dimension n (1e-48 for
n = 4, 1e-34 for n = 6), so that their quadrature sums stay finite.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .basis import _LN2, _coordinate, _integer, _ladder, _points, _read_only, _table

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
# the most entries (nodes x distinct values) of a block summed by one matmul
# per member (`_subordinate_family`).  It sets every summation order, and so
# the kernels' bits: at 1 << 15 the golden `verify envelopes` rows changed.
# A chunk of 1 << 17 entries is 1 MiB, and built whole it kept 2.1 MiB alive
# at its peak (the exponent, its exp mask and a zeroed output), more than a
# core's 2 MiB of L2 on a Xeon with AVX-512, so
_BLOCK_ENTRIES = 1 << 17
# every block writes its chunk in place, in strips of about this many entries
# (256 KiB of whole nodes), whose temporaries are strip-sized too:
# `_mehler_block` keeps one (the second term of its exponent) and a mask
_STRIP_ENTRIES = 1 << 15
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


@dataclass(frozen=True)
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
    no precomputed nodes, so constructing one costs nothing; it is a
    read-only value, so Q stays the checked integer, and equal rules hash
    alike.
    """

    Q: int = 64

    def __post_init__(self):
        object.__setattr__(self, "Q", _integer(self.Q, "subordination node count Q", 2))

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
    the points.  Too small a time raises ValueError (`_heat_prefactor`),
    and so does a dimension n that is not an integer >= 1.
    """
    n = _integer(n, "dimension n", 1)
    x, y = _points(x, n, "x"), _points(y, n, "y")
    A, B, scale = _heat_prefactor(_check_time(t), n)
    # a pair key or exponent beyond the float range is inf, and e^{-inf} = 0
    # is the kernel's limit there at every t; a cap on the points would not
    # be (at t = 1e-300 the kernel is e^{-10.7} c1^{1/2} at x = y = 2^500)
    with np.errstate(over="ignore"):
        d2, s2 = _pair_keys(x, y, n)
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
      take the Mehler series and of the rest (`short_rows`, the same as
      Python ints); `decays`, per series time e^{-(2k+1)t} for
      k = 0..K(t) (`_series_order`); `table`, the axis's shared Hermite
      table of _SERIES_CAP + 1 rows (None without series times); per
      series time, `synthesis`, the table's first K(t) + 1 rows
      transposed, and `decay_columns`, the decays as a column (views).
    - `fault`, the error of a time too small for the closed form, raised
      by `heat_apply` after its values check (None when there is none);
      `peak`, the binary exponent of the largest c1^{n/2} of the times.
    - Per short time: `edge`, (T_short, L), the scalings e^{-B x^2/2};
      `scale`, (T_short, 1), c1^{n/2}; `weights`, their product, the
      stencil rows' output scaling; `gauss`, (T_short, L), the Gaussian
      e^{-pi c1 (h k)^2} at the lags k = 0..L-1; `widths`, the largest lag
      w where it is at least _STENCIL_EPS (at most L - 1), and
      `width_list`, the same as Python ints; `stencils`, the Gaussian at
      the lags -w..w; `stencil_rows`, per short time its stencil, its row
      of `weights` and w, what a stencil row reads.
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
        self.short_rows = [i for i, K in enumerate(orders) if K is None]
        self.short = np.array(self.short_rows, dtype=np.intp)
        self.decays = [_read_only(np.exp(-(2.0 * np.arange(orders[i] + 1) + 1.0) * times[i]))
                       for i in self.series]
        self.table = _table(_SERIES_CAP, axis) if self.decays else None
        self.synthesis = [self.table[:len(decay)].T for decay in self.decays]
        self.decay_columns = [decay[:, None] for decay in self.decays]
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
        self.width_list = self.widths.tolist()
        self.stencils = [_read_only(np.concatenate([g[w:0:-1], g[:w + 1]]))
                         for g, w in zip(self.gauss, self.width_list)]
        self.stencil_rows = list(zip(self.stencils, self.weights, self.width_list))

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
      the stencil and the FFT cost the same.  Below about h^2 / 156
      (2.6e-6 on SpatialGrid(12, 0.02)) the Gaussian is below 1e-17 one
      step out, w = 0 and the stencil is [1.0]; np.convolve sums from
      0.0, so it gives v + 0.0, and all the rows of width 0 in a call are
      one product, (v + 0.0) times the output scaling, with the bits of
      the convolution (-0.0 comes out +0.0).
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
    table of 65 rows, which `basis` shares, with each time's route
    bookkeeping as Python ints.  Plans are keyed on the exact bytes of
    the axis and the times, and the last 16 are kept, so repeated calls
    on one lattice and one time list do only the convolutions and the
    series' matmuls.  A plan gives the same bits whether it is built or
    reused, and a row the same bits in a plan of any time list, since
    the plan's arrays are computed time by time; the axis checks
    (finite, uniform) run once per plan, and no plan is kept for an axis
    that fails them; every other input check runs on every call, and the
    result never shares memory with a plan.  The work after the checks
    is `_heat_rows`, for a range of the plan's times: sampled
    `spaces.h1_norm` checks its samples once, looks up one plan for all
    the nodes of its TimeGrid, and calls it once per block of times.
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
    out = _heat_rows(values, plan, 0, times.size)
    return out if times.ndim else out[0]


def _heat_rows(values, plan, start, stop):
    """W_t values for the times start..stop - 1 of `plan`, shape
    (stop - start,) + values.shape: the work of `heat_apply` after its
    checks, which the caller has made (the layout and finiteness of the
    values, and `plan.fault`).  Each time takes its route by its own
    width and order alone, so a row has the same bits whatever range it
    is computed in."""
    n = values.ndim - 1
    shape = (stop - start,) + values.shape
    # one scan for the support, as booleans (numpy counts those faster)
    nonzero = values[..., 0] != 0 if values.shape[-1] == 1 else values.any(axis=-1)
    supports = []
    for j in range(n):
        occupied = np.flatnonzero(nonzero if n == 1 else
                                  nonzero.any(axis=tuple(a for a in range(n) if a != j)))
        if not occupied.size:
            return np.zeros(shape)
        supports.append((int(occupied[0]), int(occupied[-1]) + 1))
    # values beyond 2^+-512 go through the routes over the power of two at
    # their largest magnitude, and the outputs come back times it: exact,
    # and then no route overflows on finite values (below 2^512 none can)
    box = values[tuple(slice(lo, hi) for lo, hi in supports)]
    e = math.frexp(max(float(box.max()), -float(box.min())))[1]
    shift = e if abs(e) > 512 else 0
    if shift:
        values = np.ldexp(values, -shift)
    lo, hi = supports[0]
    # per time, never per range: (2w + s) s <= _STENCIL_WORK, for integers w
    limit = (_STENCIL_WORK // (hi - lo) - (hi - lo)) // 2 if n == 1 else -1
    first = bisect.bisect_left(plan.short_rows, start)
    last = bisect.bisect_left(plan.short_rows, stop)
    zero, wide, far = [], [], []
    for j in range(first, last):
        w = plan.width_list[j]
        (far if w > limit else wide if w else zero).append(j)
    series = range(bisect.bisect_left(plan.series, start), bisect.bisect_left(plan.series, stop))
    if zero or wide or series:
        out = np.empty(shape)
        if zero or wide:
            _stencil_rows(values, plan, zero, wide, start, lo, hi, out)
        if far:
            out[_run([plan.short_rows[j] - start for j in far])] = _fft_rows(
                values, plan, _run(far), supports)
        if series:
            _series_rows(values, plan, series, start, supports, out)
    else:  # FFT rows only: their array is the result, without a copy
        out = _fft_rows(values, plan, slice(first, last), supports)
    if shift:
        with np.errstate(over="ignore"):  # an output beyond the float range raises below
            np.ldexp(out, shift, out=out)
    # no output exceeds the largest c1^{n/2} times the sum of |values|
    if plan.peak + box.size.bit_length() + e > 1022 and not np.all(np.isfinite(out)):
        raise ValueError("heat_apply's output exceeds the float range")
    return out


def _run(indices):
    """A nonempty list of ints as a slice when they are consecutive, so
    that indexing with it takes a view, and as it is otherwise."""
    first = indices[0]
    consecutive = indices == list(range(first, first + len(indices)))
    return slice(first, first + len(indices)) if consecutive else indices


def _stencil_rows(values, plan, zero, wide, start, lo, hi, out):
    """Write W_t values on a line (n = 1) for the short times `zero` and
    `wide` (lists of the plan's short positions, of stencil width 0 and
    above) into their rows of `out`, shape (stop - start,) + values.shape:
    per time, the edge scaling of the support [lo, hi), one convolution
    with the truncated stencil per component, kept on [lo - w, hi + w)
    within the lattice, the edge scaling times c1^{1/2} there, and zeros
    elsewhere.  A stencil of width 0 is [1.0], and np.convolve sums from
    0.0, so it gives v + 0.0 (-0.0 becomes +0.0): the rows of width 0 are
    one product, (v + 0.0) times the output scaling, with the same bits."""
    rows = zero + wide
    at = [plan.short_rows[j] - start for j in rows]
    out[_run(at)] = 0.0
    v = values[lo:hi].T * plan.edge[_run(rows), None, lo:hi]  # (rows, d, s)
    if zero:
        z = v[:len(zero)] + 0.0
        z *= plan.weights[_run(zero), None, lo:hi]
        out[_run(at[:len(zero)]), lo:hi] = z.transpose(0, 2, 1)
    # per time and component, one convolution and one product into the output
    for c in range(values.shape[1]):
        targets = out[:, :, c]
        for j, k, vj in zip(wide, at[len(zero):], v[len(zero):, c]):
            stencil, weight, w = plan.stencil_rows[j]
            a, b = max(lo - w, 0), min(hi + w, len(weight))
            np.multiply(np.convolve(vj, stencil)[a - lo + w:b - lo + w], weight[a:b],
                        out=targets[k, a:b])


def _fft_rows(values, plan, rows, supports):
    """W_t values for the short times `rows` (a list or a slice of the
    plan's short positions), shape (T_rows,) + values.shape: per lattice axis, the
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


def _series_rows(values, plan, series, start, supports, out):
    """Write W_t values for the series times `series` (a range of the
    plan's series positions) into their rows of `out`, shape
    (stop - start,) + values.shape: per lattice axis, the Hermite
    coefficients of the values over their support [lo, hi), row k times
    e^{-(2k+1)t} for k <= K(t), and the synthesis on the whole axis, each
    one matmul over every other axis at once.  The first axis's
    coefficients are one projection onto every row of the plan's table,
    shared by the times; the rest is one chain of K(t) + 1 row matmuls per
    time, and on a line the synthesis writes straight into the time's
    row.  No matmul's shape depends on the other times of the call, so a
    row gives the same bits alone and in a batch (BLAS sums a row
    differently with the number of rows beside it)."""
    lo, hi = supports[0]
    first = plan.table[:, lo:hi] @ values[lo:hi].reshape(hi - lo, -1)
    for k in series:
        synthesis, decay = plan.synthesis[k], plan.decay_columns[k]
        coefficients = decay * first[:len(decay)]
        if len(supports) == 1:
            np.matmul(synthesis, coefficients, out=out[plan.series[k] - start])
            continue
        row = (synthesis @ coefficients).reshape(values.shape)
        for j, (lo, hi) in enumerate(supports[1:], start=1):
            moved = row.swapaxes(0, j)
            coefficients = synthesis.T[:, lo:hi] @ moved[lo:hi].reshape(hi - lo, -1)
            row = (synthesis @ (decay * coefficients)).reshape(moved.shape).swapaxes(0, j)
        out[plan.series[k] - start] = row


def heat_kernel_one(x, t, n: int = 1):
    """W_t(1)(x): the heat semigroup applied to the constant function 1.

    Closed form from Gaussian integration of the heat kernel over y:

        (2 e^{-2t} / (1 + e^{-4t}))^{n/2}
            * exp(-(1 - e^{-4t}) / (2 (1 + e^{-4t})) |x|^2).

    Tends to 1 as t -> 0+ and is nonincreasing in |x|; it is 0 where it
    underflows, large t (`_long_time`) included.  The exponent c |x|^2 is
    formed from |x|^2 = m 4^e (`_radius2`), never from |x|^2 itself, so it
    is exact where |x|^2 is beyond the float range and t small: the value
    of heat_kernel_one(1e155, 5e-324) is 1 - 4.9e-14, not 0.  Where |x|^2
    is a float it has the bits of c |x|^2.  n must be an integer >= 1.
    """
    n = _integer(n, "dimension n", 1)
    (m, e), t = _radius2(x, n), _long_time(t)
    em2t = np.exp(-2.0 * t)
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    pref = _half_power(2.0 * em2t / (1.0 + em4t), n)
    # -c 2^e (2^e m) rounds once, as -c |x|^2 did, also where 4^e alone
    # overflows and c is small; beyond the float range it is -inf, and
    # e^{-inf} = 0 its limit
    with np.errstate(over="ignore"):
        half = np.ldexp(1.0, e)
        return pref * np.exp(-0.5 * m4 / (1.0 + em4t) * half * (half * m))


def _capped(x):
    """The float points x with each coordinate clamped to [-2^500, 2^500],
    where |x -+ y|^2 stays finite; coordinates within it keep their bits.
    Beyond the cap every Mehler block of `_pair_family` is 0 at every
    subordination node (s >= 5.6e-123 for t >= _T_MIN), as it is at the
    cap."""
    return np.minimum(np.maximum(x, -2.0 ** 500), 2.0 ** 500)


def _radius2(x, n: int):
    """(m, e) with |x|^2 = m 4^e exactly, at the points x of R^n, checked
    here: e >= 0 is the binary exponent of the largest coordinate of a
    point (0 below 1/2), and m is |x 2^{-e}|^2, in [1/4, n) or below 1/4
    for e = 0, so neither overflows.  Scaling by 2^{-e} is exact, so
    where |x|^2 is a normal float m 4^e is its bits, and c 4^e m rounds
    as c |x|^2 did for every normal c 4^e."""
    x = _points(x, n, "x")
    e = np.maximum(np.frexp(x if n == 1 else np.max(np.abs(x), axis=-1))[1], 0)
    return _split(np.ldexp(x, -e if n == 1 else -e[..., None]), n), e


def _long_time(t):
    """The checked times t capped at 2^1000, so that no exponent c t
    overflows: beyond the cap every factor e^{-c t} with c >= 2^-53 of the
    closed forms of W_t(1) is 0 as it is at the cap."""
    return np.minimum(_check_time(t), 2.0 ** 1000)


def heat_one_dt(x, t, op: ShiftedOperator):
    """d/dt of e^{-alpha t} W_t(1)(x), in closed form; -0.0 where it
    underflows (`_long_time`), and a ValueError where it is beyond the
    float range: heat_one_dt(1e155, 5e-324) is about -1.0e310.  It never
    forms |x|^2, so it stays right where |x|^2 overflows
    (`_heat_one_dt_rescaled`)."""
    r2, t = _radius2(x, op.n), _long_time(t)
    # (alpha + n) t beyond the float range is inf, and e^{-inf} = 0 its limit
    with np.errstate(over="ignore"):
        decay = np.exp(-(op.alpha + op.n) * t)
    out = decay * _heat_one_dt_rescaled(r2, t, op)
    if not np.all(np.isfinite(out)):
        raise ValueError("heat_one_dt's value exceeds the float range")
    return out


def _heat_one_dt_rescaled(r2, t, op: ShiftedOperator, out=None):
    """e^{(alpha+n)t} d/dt e^{-alpha t} W_t(1)(x) at |x|^2 = m 4^e, for
    r2 = (m, e) of `_radius2`, written into `out` when it is given (a strip
    of `_subordinate_family`), else into a new array: the time derivative
    with its large-t decay taken out, -(alpha + n (1 - e^{-4t})/(1 +
    e^{-4t}) + |x|^2 4 e^{-4t} / (1 + e^{-4t})^2) (2/(1 + e^{-4t}))^{n/2}
    e^{-q}, q = c |x|^2.  Where |x|^2 is a float and every q <= 700 of the
    call, so that e^{-q} is a normal float, that is how it is computed.
    Elsewhere the bracket is formed over 4^e, and 4^e e^{-q} = e^{F ln 2 -
    q} 2^{2e - F} with the least F >= 0 that keeps e^{F ln 2 - q} >=
    e^{-700}, so |x|^2 is never formed and a value above the normal floats
    is never read from a subnormal Gaussian; one ldexp puts 2^{2e - F}
    back, and gives inf beyond the float range.  Where the first formula
    applies, F = 0 and the two differ only by exact powers of two, so they
    give the same bits, and the choice, made per call (per strip of
    `g_of_one`), changes none.  Finite wherever the value is: at every
    t >= 5.6e-123, say."""
    m, e = r2
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    onep = 1.0 + em4t
    shift, factor = op.alpha + op.n * m4 / onep, -_half_power(2.0 / onep, op.n)
    with np.errstate(over="ignore"):  # 4^e or c 4^e beyond the float range is inf
        half = np.ldexp(1.0, e)
        hm = half * m
        r2 = half * hm  # |x|^2, inf where it overflows
        nq = -0.5 * m4 / onep * half * hm  # -q, rounded once as in `heat_kernel_one`
        if nq.min(initial=0.0) >= -700.0 and np.isfinite(r2).all():  # no points: no minimum
            return np.multiply((shift + r2 * 4.0 * em4t / (onep * onep)) * factor, np.exp(nq),
                               out=out)
        F = np.minimum(np.ceil(np.maximum(-700.0 - nq, 0.0) / _LN2), 4096.0)
        bracket = shift / (half * half) + m * 4.0 * em4t / (onep * onep)
        return np.ldexp(bracket * factor * np.exp(F * _LN2 + nq), 2 * e - F.astype(int), out=out)


def _distinct(*keys):
    """The distinct tuples of one or two equally long 1-D arrays `keys`
    (floats, or exact integers in float range), matched by exact equality
    and sorted by the first key, then the second, as one array per key in
    its own dtype; and the index that maps each position to its tuple.
    Two keys sort as one complex array, whose real part is the first: a
    stable sort of it is np.lexsort's order, at a fraction of its cost.
    For one key this is np.unique with return_inverse, at a fraction of
    its fixed cost."""
    size = keys[0].size
    if size == 1:
        return keys, np.zeros(1, dtype=np.intp)
    packed = keys[0]
    if len(keys) == 2:
        packed = np.empty((size, 2))
        packed[:, 0], packed[:, 1] = keys
        packed = packed.view(complex)[:, 0]
    order = np.argsort(packed, kind="stable")
    packed = packed[order]
    first = np.empty(size, dtype=bool)
    first[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    kept = order[first]
    return [k[kept] for k in keys], inverse


def _subordinate_family(members, rule, block, keys, n=1):
    """Yield, for each member (t, decay, factor, affine) in turn,
    t/sqrt(4 pi) sum_i w_i s_i^{-3/2} factor(s_i, t) e^{-t^2/4s_i - decay s_i}
    block(s_i) over the log-s nodes s_i and weights w_i of `rule`; factor
    broadcasts nodes against a column of times.  The members share the
    block, and each node's block is evaluated once for all of them.

    The block depends on the points only through the invariants `keys`,
    float arrays of the point shape (|x - y|^2 and |x + y|^2, or |x|^2).
    `block(s, *values, out)` gets the nodes on a column and the distinct
    tuples of the invariants (`_distinct`), one array per invariant, and
    writes one row per node and one column per tuple into `out`.  The
    nodes come in chunks of _BLOCK_ENTRIES // (distinct tuples) nodes (at
    least one), and each member sums a chunk by one matmul, so the chunk
    fixes the bits.  One reused chunk buffer is filled in strips of
    _STRIP_ENTRIES // (distinct tuples) nodes (at least one), `out` being
    the strip, so that the block's temporaries stay in cache.  The strip
    does not change the bits, as a block must be elementwise in (node,
    tuple): one that picks a formula per strip, as `_heat_one_dt_rescaled`
    does, must pick formulas that agree bit for bit where both apply.
    The nodes are the grid shared by the (t, decay) windows of every
    member (`SubordinationRule._node_blocks`), so each member sees a grid
    at least as fine as its own.  Each member's rows of weights sum the
    columns by a 2-D matmul of their own into compact sums (rows x
    distinct tuples): stacked into one matmul, BLAS would round a row by
    where it falls in the stack, and a member would not equal its
    one-member call bit for bit.  A member's sums are scattered back to
    the points by one inverse index, into a C-ordered kernel, only when
    it is yielded, so a caller that drops each kernel holds one at a
    time.  With
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
    size = max(1, values[0].size)
    rows, strip = _BLOCK_ENTRIES // size or 1, _STRIP_ENTRIES // size or 1
    chunk = np.empty((min(rows, rule.Q), values[0].size))
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
            nodes = s[i:i + rows, None]
            part = chunk[:nodes.size]
            for j in range(0, nodes.size, strip):
                block(nodes[j:j + strip], *values, part[j:j + strip])
            totals = [total + wm[:, i:i + rows] @ part for total, wm in zip(totals, weights)]
    for (times, ts, back, _, _, affine), total in zip(sets, totals):
        # each step below is elementwise in (time, point), so the rows can go
        # to the times (`back`) first, on the compact sums; `take` then
        # writes the points in C order (a fancy index a[:, inverse] writes
        # them transposed, and a gather of rows out of that is slow)
        scale = (ts / _SQRT4PI)[back]
        if affine is None:
            total = (scale[:, None] * total[back]).take(inverse, axis=1)
        else:
            a, b = (half[back].take(inverse, axis=1).reshape(back.shape + shape)
                    for half in (total[:ts.size], total[ts.size:]))
            total = scale.reshape((-1,) + (1,) * len(shape)) * (affine[1] * a + affine[2] * b)
            del a, b
        out = total.reshape(times.shape + shape)[()]  # a scalar for 0-d
        del total
        yield out
        del out  # a caller that dropped the kernel frees it before the next is built


def _mehler_block(s, d2, s2, n: int, out=None):
    """e^{ns} W_s at the pairs with |x - y|^2 = d2 and |x + y|^2 = s2, as
    (pi (1 - e^{-4s}))^{-n/2} e^{-(A d2 + B s2)/4}; nodes s on a column.
    The exponent and then its exp are written in place, into `out` when it
    is given (a strip of `_subordinate_family`), else into a new array.
    Finite at every s > 0, where W_s itself underflows to 0 once ns
    exceeds about 745.  At small s most exponents are far below
    log(tiny), where numpy's exp returns a subnormal or 0 many times
    slower than elsewhere (and so does exp(-inf)), so they become exact
    zeros without calling exp; where no exponent is that low, exp runs
    unmasked."""
    e = -2.0 * s
    em2s = np.exp(e)
    m2 = -np.expm1(e)  # 1 - e^{-2s}
    onep = 1.0 + em2s
    A, B = onep / m2, m2 / onep  # as in `_mehler`
    # -(A d2 + B s2)/4 with the exact factor 1/4 on the node column; a term
    # beyond the float range is -inf, which the mask below makes an exact 0
    with np.errstate(over="ignore"):
        out = np.multiply(-0.25 * A, d2, out=out)
        out += (-0.25 * B) * s2
    if out.min(initial=0.0) >= _LOG_TINY:  # every exponent is <= 0; none for no pairs
        np.exp(out, out=out)
    else:
        kept = out >= _LOG_TINY
        np.exp(out, out=out, where=kept)
        np.copyto(out, 0.0, where=~kept)
    out *= (math.pi * -np.expm1(2.0 * e)) ** (-n / 2.0)  # 2e = -4s exactly
    return out


def _pair_family(x, y, members, rule=None):
    """Yield, for each member (kind, t, op) in turn, the Poisson-family
    kernel of op = L + alpha at the times t and the points x, y of R^n,
    from one pass over the Mehler blocks; the members share the dimension
    n.  The kinds are those of the public kernels: "poisson"
    (`poisson_kernel`), "g" (`g_kernel`), ("ladder", j, sign)
    (`ladder_kernel`, whose op is L; checked by the caller), and "g_dx",
    d/dx_1 of `g_kernel` (`_gradient_coefficients`).  Each is
    t/sqrt(4 pi) int s^{-3/2} factor(s, t) e^{-t^2/(4s) - alpha s} W_s ds
    with the kind's factor of `_MEMBERS`, and where the kind has node
    factors (a, b), W_s is multiplied by a(s) u + b(s) v with
    u = x_j - y_j and v = x_j + y_j: the member (t, n + alpha, factor,
    affine) of `_subordinate_family` on the block e^{ns} W_s.  The points
    are capped (`_capped`), so that neither the pair keys nor u and v
    overflow."""
    n = members[0][2].n
    x, y = _capped(_points(x, n, "x")), _capped(_points(y, n, "y"))
    subs = []
    for kind, t, op in members:
        j = 1
        if isinstance(kind, tuple):  # a ladder kind is looked up by its sign
            _, j, kind = kind
        factor, coefficients = _MEMBERS[kind]
        affine = None
        if coefficients is not None:
            xj, yj = _coordinate(x, n, j), _coordinate(y, n, j)
            affine = (coefficients, xj - yj, xj + yj)
        subs.append((t, n + op.alpha, factor, affine))
    return _subordinate_family(subs, rule,
                               lambda s, d2, s2, out: _mehler_block(s, d2, s2, n, out),
                               _pair_keys(x, y, n), n)


def _pair_kernel(x, y, member, rule=None):
    """The one-member call of `_pair_family`."""
    (out,) = _pair_family(x, y, [member], rule)
    return out


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


# `_pair_family`'s member kind -> (its factor of the Poisson weight, its
# node factors (a, b) of the affine term, or None without one).  The
# ladder kinds ("ladder", j, sign) are the kernels of t (d/dx_j + sign x_j)
# P_t^L, keyed by their sign: their factor t is the t of t d/dx P_t
_MEMBERS = {
    "poisson": (lambda s, t: 1.0, None),
    "g": (_g_factor, None),
    "g_dx": (_g_factor, _gradient_coefficients),
    +1: (lambda s, t: t, lambda s: _ladder_coefficients(s, +1)),
    -1: (lambda s, t: t, lambda s: _ladder_coefficients(s, -1)),
}


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
    op = ShiftedOperator(0.0, n)
    return _pair_kernel(x, y, (("ladder", *_ladder(j, sign, op.n)), t, op), rule)


def g_of_one(x, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt P_t^{L+alpha}(1)(x), subordinating the exact time derivative
    of the heat action on 1; its block depends on |x|^2 = m 4^e alone
    (`_radius2`), keyed (e, m), which on a line orders the keys as |x|^2."""
    # t/sqrt(pi) s^{-1/2} is the Poisson weight's t/sqrt(4 pi) s^{-3/2} times 2s
    (out,) = _subordinate_family(
        [(t, op.n + op.alpha, lambda s, t: 2.0 * s, None)], rule,
        lambda s, e, m, out: _heat_one_dt_rescaled((m, e), s, op, out),
        _radius2(x, op.n)[::-1], op.n)
    return out
