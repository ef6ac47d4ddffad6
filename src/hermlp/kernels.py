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
loop, `_subordinate`, which takes a scalar t or a 1-D array of T times
(the result then gains a leading time axis).  The times share one log-s
grid, in blocks of at most Q nodes; each block is evaluated once per
node and distinct value of the invariants, the (T x nodes) weight matrix
f(s, t) sums it by one matmul, and one inverse index scatters the sums
back to the points.  Six times in [0.1, 2] need 113 nodes instead of
6 * 64 = 384, and the 65 x 65 lattice of `verify envelopes` has 1089
distinct pairs in its 4225 points, so a kernel there evaluates 113 *
1089 Mehler entries instead of 384 * 4225.
`SubordinationRule` describes the grid and its node-count bound.

`heat_apply` applies W_t, for one time or a 1-D array of times, to
samples on a uniform tensor lattice without forming the kernel matrix.
Expanding the exponent,

    W_t(x, y) = c_t e^{-B|x|^2/2} e^{-(A-B)|x-y|^2/4} e^{-B|y|^2/2},

with A = coth t and B = tanh t; the middle factor is Toeplitz on the
lattice and splits per axis, so each axis is one FFT convolution
(the structure behind the fast Gauss transform); T times make one
batched FFT per axis over a (T, ...) stack.  The cost is set by the
support of the values: outputs on L points from values in [lo, hi)
need the lags |k| <= m = max(hi - 1, L - 1 - lo), so the circle has
about 2m + 1 points, not 2L - 1; an atom on 50 of 1201 points convolves
on 1280 to 2048, by where it sits.  The Gaussian on the circle is real
and even, so its spectrum is real, and the product is complex times
real.  The edge scalings
depend on the axis and the times only, and form a read-only plan built
once per (axis, times) and kept for the last 8 pairs (`_lattice_plan`);
the spectra are built once per (step, L, times, circle length), at most
four lengths per lattice (`_gauss_spectrum`).  So a sweep over many
inputs on one lattice and one time grid transforms only the values: on
a line, two FFT batches per call.

Every entry point rejects non-finite times, and points that are not
finite or not in the layout of `basis`, with ValueError; the subordinated
kernels also reject times outside [_t_min(n), 1e150], where the lower
bound is 1e-60 for n <= 3 and rises with the dimension n (1e-48 for
n = 4, 1e-34 for n = 6), so that their quadrature sums stay finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import _coordinate, _integer, _points

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
# its temporaries of 1 MiB each stay in a core's L2 cache (`_subordinate`)
_BLOCK_ENTRIES = 1 << 17


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

    A list of times shares one grid (`_node_blocks`): the union of the
    per-t windows at the finest per-t step, so every time sees a window
    at least as wide and a step at least as fine as its own Q-point rule.
    The trapezoid rule converges geometrically in the step for these
    double-exponentially decaying integrands, so the shared grid is at
    least as accurate: over t in [1e-3, 20] it matches a Q = 1024 per-t
    reference to about 1e-13 of the kernel's maximum, where the per-t
    Q = 64 rule misses it by up to 1e-9 at small t.  When the shared grid
    would need more than T * Q nodes (times spread over many decades,
    e.g. {1e-3, 40} needs 512), the nodes are the T per-t grids instead,
    so a call never evaluates more than T * Q nodes.  For a single time the shared grid is exactly
    the Q nodes of `s_nodes`.  The rule holds no precomputed nodes, so
    constructing one costs nothing.
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

    def _node_blocks(self, ts, decay: float):
        """Yield (s, w) blocks of at most Q nodes covering the grid shared
        by the distinct times `ts`; w holds the node weights per time,
        shape (T, len(s)) or (len(s),) when every time uses them all."""
        windows = [self._window(float(t), decay) for t in ts]
        lo = min(a for a, _ in windows)
        hi = max(b for _, b in windows)
        step = min(b - a for a, b in windows) / (self.Q - 1)
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
    if not np.isfinite(t).all():
        raise ValueError("time t must be finite")
    if not (t > 0).all():
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


def heat_kernel(x, y, t, n: int = 1):
    """Gaussian closed form of the oscillator heat kernel W_t(x, y).

    Symmetric in (x, y) and strictly positive; t may broadcast against
    the points.
    """
    d2, s2 = _pair_keys(_points(x, n, "x"), _points(y, n, "y"), n)
    A, B, c1 = _mehler(_check_time(t))
    return _half_power(c1, n) * np.exp(-0.25 * (A * d2 + B * s2))


def _pair_keys(x, y, n: int):
    """|x - y|^2 and |x + y|^2 for float points x, y: the Mehler kernel
    depends on the points through these two invariants only."""
    return _split(x - y, n), _split(x + y, n)


def _fft_length(m: int) -> int:
    """Smallest of 2^a, 3 2^a and 5 2^a that is >= m: a fast FFT length,
    at most 25 % above m."""
    p = 1 << (m - 1).bit_length()  # the smallest power of two >= m
    return min(c for c in (p, 3 * p // 4, 5 * p // 8) if c >= m)


def _axis_step(axis) -> float:
    """Spacing of a uniform axis, from its end points."""
    L = axis.size
    return (axis[-1] - axis[0]) / (L - 1) if L > 1 else 0.0


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


@functools.lru_cache(maxsize=8)
def _lattice_plan(axis_bytes: bytes, times_bytes: bytes):
    """The part of `heat_apply` that depends on the lattice axis and the
    times only, built from their exact float64 bytes: the (T, L) edge
    scalings e^{-B x^2/2} and the (T, 1) prefactors c1.  The arrays are
    read-only, because every hit hands out the same ones."""
    axis = np.frombuffer(axis_bytes)
    _, B, c1 = _mehler(np.frombuffer(times_bytes).reshape(-1, 1))
    edge = np.exp(-0.5 * B * axis * axis)  # (T, L)
    for a in (edge, c1):
        a.flags.writeable = False
    return edge, c1


@functools.lru_cache(maxsize=32)
def _gauss_spectrum(h: float, L: int, times_bytes: bytes, size: int):
    """The rfft, shape (T, size/2 + 1), of the T Gaussians
    g[j] = e^{-pi c1 (h k)^2} with k = min(j, size - j) on a circle of
    `size` points, and g[j] = 0 where k > L - 1, the longest lag of the
    lattice.  g is real and even, so its spectrum is real: only the real
    part is kept, read-only, half the bytes of the complex one."""
    _, _, c1 = _mehler(np.frombuffer(times_bytes).reshape(-1, 1))
    K = min(L - 1, size // 2)
    k = h * np.arange(K + 1)
    # A - B = 4 e^{-2t} / (1 - e^{-4t}) = 4 pi c1, free of cancellation at
    # large t.  e^x rounds to 0 below x = -745.2, and numpy's exp is
    # several times slower on such arguments than on the rest, so they
    # are skipped.
    arg = -math.pi * c1 * k * k
    half = np.exp(arg, out=np.zeros_like(arg), where=arg > -746.0)
    g = np.zeros((len(c1), size))
    g[:, :K + 1] = half
    g[:, size - K:] = half[:, K:0:-1]
    spectrum = np.fft.rfft(g, axis=1).real.copy()
    spectrum.flags.writeable = False
    return spectrum


def heat_apply(values, axis, t):
    """sum_y W_t(x, y) values(y) over the tensor lattice axis^n.

    `axis` is a uniform 1-D grid of L points and `values` has shape
    (L,)*n + (d,); the result has the same shape.  `t` is a scalar or a
    1-D array of T times; an array puts the times on a new leading axis,
    shape (T,) + values.shape, equal bit for bit to stacking the scalar
    calls.  Each lattice axis is one (T, L) diagonal scaling, one FFT
    convolution with the T Gaussians e^{-(A-B)(h k)^2/4}, |k| < L, and
    the same scaling again, so the cost is O(T L^n log L) rather than the
    O(T L^{2n}) of dense kernel matrices; the caller bounds T L^n, since
    a few arrays of that size are alive at once.  Values must be finite:
    the FFT would spread a NaN over the lattice.  Quadrature weights are
    the caller's (multiply them into `values`).

    The circle of each convolution is as short as the support of
    `values` allows.  If the nonzero values, over every other axis and
    component, lie in [lo, hi) along a lattice axis, outputs on all L
    points need the lags |k| <= m = max(hi - 1, L - 1 - lo), so the
    convolution runs on the smallest of 2^a, 3 2^a and 5 2^a points that
    is at least 2m + 1: an atom on 50 of 1201 points uses 1280 to 2048
    points, by where it sits, and a dense input 2560.  The supports are
    taken once from `values`, because a convolution along one axis leaves
    the support along the others as it is, and so the length depends on
    `values` only.  All-zero values give zeros without an FFT.

    W_t is the continuum kernel sampled on the lattice: this is the dense
    kernel matrix, applied fast.  It resolves W_t only for t >= h^2.
    Below that the Gaussian is narrower than the step h, and the lattice
    sum of the kernel per axis is theta(t) (`_lattice_mass`), about
    h / sqrt(4 pi t), not 1: on SpatialGrid(12, 0.02) the weights of the
    lattice give 1.78 at the centre for t = 1e-5, where W_t(1) is about
    1.  `spaces.h1_norm` divides by theta^n.

    The scalings depend on the axis and the times, and the Gaussians'
    spectra on the step, L, the times and the circle's length.  They are
    built once, keyed on exact values, and read-only: the last 8 scalings
    and the last 32 spectra are kept.  For 16 times on 1201 points a
    plan is 0.15 MB, and its at most four spectra (1280, 1536, 2048 and
    2560 points) are 0.48 MB together: 8 L T bytes for the plan and
    4 P T for the spectrum of a circle of P points.  So repeated calls on one lattice and
    one time list do only the FFT of the values, the product with a real
    spectrum and the inverse FFT.  A plan gives the same bits whether it
    is built or reused; every input check runs on every call, and the
    result never shares memory with the plan.
    """
    times = _check_time(t, ndim=1)
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    L = axis.size
    n = values.ndim - 1
    if axis.ndim != 1 or L == 0 or n < 1 or values.shape[:-1] != (L,) * n:
        raise ValueError("values must have shape (L,)*n + (d,) for an axis of L points")
    if not np.all(np.isfinite(axis)):
        raise ValueError("axis must be finite")
    h = _axis_step(axis)
    if L > 2 and np.max(np.abs(np.diff(axis) - h)) > 1e-9 * abs(h):
        raise ValueError("heat_apply needs a uniform axis")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    nonzero = values != 0
    if not nonzero.any():
        return np.zeros(times.shape + values.shape)
    sizes = []
    for j in range(n):
        occupied = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(n + 1) if a != j)))
        sizes.append(_fft_length(2 * int(max(occupied[-1], L - 1 - occupied[0])) + 1))
    times_bytes = times.tobytes()
    edge, c1 = _lattice_plan(axis.tobytes(), times_bytes)
    column = (len(c1), -1) + (1,) * n  # broadcast along the lattice axis 1
    edge = edge.reshape(column)
    out = values[None]
    for j, size in enumerate(sizes, start=1):
        gauss = _gauss_spectrum(h, L, times_bytes, size).reshape(column)
        v = np.moveaxis(out, j, 1) * edge
        spec = np.fft.rfft(v, size, axis=1)
        del v
        spec *= gauss
        conv = np.fft.irfft(spec, size, axis=1)
        del spec
        out = np.moveaxis(conv[:, :L] * edge, 1, j)
        del conv
    out = _half_power(c1, n).reshape((-1,) + (1,) * (n + 1)) * out
    return out if times.ndim else out[0]


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


def _subordinate(t, decay: float, rule, scale, weight, block, keys, affine=None, n=1):
    """scale(t) * sum_i weight(s_i, t) block(s_i) over the log-s nodes of
    `rule` for a kernel decaying like e^{-decay s}.

    The block depends on the points only through the invariants `keys`,
    float arrays of the point shape (|x - y|^2 and |x + y|^2, or |x|^2).
    `block(s, *values)` gets the nodes on a column and the distinct tuples
    of the invariants (`_distinct`), one array per invariant, and returns
    one row per node and one column per tuple, for at most _BLOCK_ENTRIES
    entries at a time.  The rows of weights sum the columns by a 2-D
    matmul, and one inverse index scatters the sums back to the points.
    With `affine = (coefficients, u, v)` the integrand is (a(s) u + b(s)
    v) block(s), where coefficients(s) returns the node factors (a, b)
    and u, v are arrays of the point shape: a and b double the weight
    rows of the same matmul, and u, v apply after the scatter.

    `t` is a scalar or a 1-D array of T times; an array puts the times on
    a new leading axis in front of the point shape.  `weight(s, t)`
    broadcasts nodes against a column of times.  Repeated times are
    computed once.  Times outside [_t_min(n), _T_MAX], for a block in n
    dimensions, are rejected.
    """
    times = _check_time(t, ndim=1)
    (ts,), back = _distinct(times.ravel())
    for end in (ts[0], ts[-1]):
        if not _t_min(n) <= end <= _T_MAX:
            raise ValueError(_outside(float(end), n))
    shape = np.shape(keys[0])
    values, inverse = _distinct(*(np.ravel(k) for k in keys))
    rows = _BLOCK_ENTRIES // max(1, values[0].size) or 1
    total = 0.0
    for s, w in (rule or _DEFAULT_RULE)._node_blocks(ts, decay):
        weights = w * weight(s, ts[:, None])
        if affine is not None:
            a, b = affine[0](s)
            weights = np.concatenate([weights * a, weights * b])
        for i in range(0, s.size, rows):
            # the block is a temporary: it is freed before the next is built
            total = total + weights[:, i:i + rows] @ block(s[i:i + rows, None], *values)
    total = total[:, inverse].reshape(total.shape[:1] + shape)
    if affine is not None:
        total = affine[1] * total[:len(ts)] + affine[2] * total[len(ts):]
    total = scale(ts).reshape((-1,) + (1,) * len(shape)) * total
    return total[back].reshape(times.shape + shape)[()]  # a scalar for 0-d


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


def _subordinate_pairs(x, y, t, op: ShiftedOperator, rule, factor, coefficients=None, j=1):
    """The Poisson-family kernel t/sqrt(4 pi) int s^{-3/2} factor(s, t)
    e^{-t^2/(4s) - alpha s} W_s(x, y) ds at the points x, y of R^n.  With
    `coefficients` W_s is multiplied by a(s) u + b(s) v, where
    coefficients(s) returns (a, b), u = x_j - y_j and v = x_j + y_j (the
    affine node factor of `_subordinate`)."""
    x, y = _points(x, op.n, "x"), _points(y, op.n, "y")
    affine = None
    if coefficients is not None:
        xj, yj = _coordinate(x, op.n, j), _coordinate(y, op.n, j)
        affine = (coefficients, xj - yj, xj + yj)
    decay = op.n + op.alpha
    return _subordinate(
        t, decay, rule, lambda t: t / _SQRT4PI,
        lambda s, t: s ** -1.5 * factor(s, t) * np.exp(-t * t / (4.0 * s) - decay * s),
        lambda s, d2, s2: _mehler_block(s, d2, s2, op.n), _pair_keys(x, y, op.n), affine, op.n,
    )


def poisson_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """Subordinated Poisson kernel of L + alpha; strictly positive.

    A 1-D array of times gives a leading time axis (see `_subordinate`)."""
    return _subordinate_pairs(x, y, t, op, rule, lambda s, t: 1.0)


def _g_factor(s, t):
    """t d/dt of the Poisson weight, over that weight: 1 - t^2/(2s)."""
    return 1.0 - t * t / (2.0 * s)


def g_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt of the Poisson kernel of L + alpha (g-function kernel)."""
    return _subordinate_pairs(x, y, t, op, rule, _g_factor)


def _g_kernel_dx(x, y, t, op: ShiftedOperator):
    """d/dx_1 of `g_kernel`, differentiated analytically: d/dx_1 of the
    Mehler exponent -(A u^2 + B v^2)/4, with u = x_1 - y_1 and v = x_1 +
    y_1, is -A u/2 - B v/2, so one subordination pass carries both terms."""
    return _subordinate_pairs(x, y, t, op, None, _g_factor, _gradient_coefficients)


def _gradient_coefficients(s):
    """-(coth s)/2 and -(tanh s)/2, the node factors of `_g_kernel_dx`."""
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
    # the Poisson kernel of L with the weight factor t: t times t/sqrt(4 pi)
    return _subordinate_pairs(
        x, y, t, ShiftedOperator(0.0, n), rule, lambda s, t: t,
        lambda s: _ladder_coefficients(s, sign), j,
    )


def g_of_one(x, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt P_t^{L+alpha}(1)(x), subordinating the exact time derivative
    of the heat action on 1; its block depends on |x|^2 alone."""
    x = _points(x, op.n, "x")
    decay = op.n + op.alpha
    return _subordinate(
        t, decay, rule, lambda t: t / math.sqrt(math.pi),
        lambda s, t: s ** -0.5 * np.exp(-t * t / (4.0 * s) - decay * s),
        lambda s, r2: _heat_one_dt_rescaled(r2, s, op), (_split(x, op.n),), n=op.n,
    )
