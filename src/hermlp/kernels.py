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
t-free block K(s): e^{ns} W_s for the Poisson and g kernels,
(d_j +/- x_j) W_s for the ladder kernel and e^{(alpha+n)s} d/ds
e^{-alpha s} W_s(1) for g_of_one.  The weights carry the whole large-s
decay e^{-(alpha+n)s}, so for a negative shift neither factor overflows
or underflows at the top of the window (e^{-alpha s} alone overflows
there while W_s underflows, and inf * 0 would spread NaN to every time).
All four run through one quadrature loop, `_subordinate`, which takes a
scalar t or a 1-D array of T times (the result then gains a leading time
axis).  The times share one log-s grid: K(s) is evaluated once per node,
in blocks of at most Q nodes, and the (T x nodes) weight matrix f(s, t)
is applied by one tensordot per block.  Six times in [0.1, 2] need 113
heat evaluations per point instead of 6 * 64 = 384.
`SubordinationRule` describes the grid and its node-count bound.

`heat_apply` applies W_t, for one time or a 1-D array of times, to
samples on a uniform tensor lattice without forming the kernel matrix.
Expanding the exponent,

    W_t(x, y) = c_t e^{-B|x|^2/2} e^{-(A-B)|x-y|^2/4} e^{-B|y|^2/2},

with A = coth t and B = tanh t; the middle factor is Toeplitz on the
lattice and splits per axis, so each axis is one FFT convolution
(the structure behind the fast Gauss transform); T times make one
batched FFT per axis over a (T, ...) stack.  The scalings and the
Gaussians' spectra depend on the axis and the times only; they form a
read-only plan built once per (axis, times) and kept for the last 8
pairs (`_lattice_plan`), so a sweep over many inputs on one lattice and
one time grid transforms only the values: on a line, two FFT batches per
call instead of three.

Every entry point rejects non-finite points and times with ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import _integer

__all__ = [
    "ShiftedOperator",
    "SubordinationRule",
    "heat_kernel",
    "heat_kernel_one",
    "heat_apply",
    "heat_one_dt",
    "poisson_kernel",
    "classical_poisson",
    "g_kernel",
    "ladder_kernel",
    "g_of_one",
]

_SQRT4PI = math.sqrt(4.0 * math.pi)
# how far, in units of the exponents, a subordination window reaches into
# both tails of its integrand (`SubordinationRule._window`)
_CUT = 45.0


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
    Q = 64 rule misses it by up to 1e-9 at small t.  (The raising ladder
    kernel nearly cancels at large t and is less accurate there; see
    `ladder_kernel`.)  When the shared grid would need more than T * Q
    nodes (times spread over many decades, e.g. {1e-3, 40} needs 512),
    the nodes are the T per-t grids instead, so a call never evaluates
    more than T * Q nodes.  For a single time the shared grid is exactly
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


def _log_trapezoid(lo: float, hi: float, size: int):
    """Trapezoid nodes s = e^theta on [lo, hi] in theta, with weights
    including the ds = s dtheta Jacobian."""
    theta = np.linspace(lo, hi, size)
    w = np.full(size, theta[1] - theta[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    s = np.exp(theta)
    return s, w * s


_DEFAULT_RULE = SubordinationRule()


def _split(x, n):
    """|x - y|^2-style helper: squared Euclidean norm along the point axis."""
    x = np.asarray(x, dtype=float)
    if n == 1:
        return x * x
    return np.sum(x * x, axis=-1)


def _check_points(*points):
    """Reject NaN and infinite points, where the kernels return NaN or a
    meaningless 0.  Each entry point checks once per call."""
    for p in points:
        if not np.isfinite(p).all():
            raise ValueError("points must be finite")


def _check_time(t, ndim=None):
    """t as a float array whose entries are finite and positive; with
    ndim=1 it must also be a scalar or a nonempty 1-D array.  ValueError
    otherwise."""
    t = np.asarray(t, dtype=float)
    if ndim is not None and (t.ndim > ndim or t.size == 0):
        raise ValueError("times must be a scalar or a nonempty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("time t must be finite")
    if np.any(t <= 0):
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

    Symmetric in (x, y) and strictly positive.  For n > 1 the last axis
    of x, y holds coordinates; t may broadcast against the points.
    """
    _check_points(x, y)
    A, B, c1 = _mehler(_check_time(t))
    return _half_power(c1, n) * _mehler_gauss(x, y, A, B, n)


def _mehler_gauss(x, y, A, B, n):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-0.25 * (A * _split(x - y, n) + B * _split(x + y, n)))


def _heat_rescaled(x, y, s, n):
    """e^{ns} W_s(x, y) = (pi (1 - e^{-4s}))^{-n/2} e^{-(A|x-y|^2 + B|x+y|^2)/4}:
    finite at every s > 0, where W_s itself underflows to 0 once ns exceeds
    about 745."""
    A, B, _ = _mehler(s)
    return (math.pi * -np.expm1(-4.0 * s)) ** (-n / 2.0) * _mehler_gauss(x, y, A, B, n)


def _fft_size(m: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= m: a fast FFT length."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _axis_step(axis) -> float:
    """Spacing of a uniform axis, from its end points."""
    L = axis.size
    return (axis[-1] - axis[0]) / (L - 1) if L > 1 else 0.0


@functools.lru_cache(maxsize=8)
def _lattice_plan(axis_bytes: bytes, times_bytes: bytes):
    """The part of `heat_apply` that depends on the lattice axis and the
    times only, built from their exact float64 bytes: the (T, L) edge
    scalings e^{-B x^2/2}, the rfft of the T Gaussians e^{-pi c1 (h k)^2}
    of length `size`, and the (T, 1) prefactors c1.  The arrays are
    read-only, because every hit hands out the same ones."""
    axis = np.frombuffer(axis_bytes)
    times = np.frombuffer(times_bytes)
    L = axis.size
    _, B, c1 = _mehler(times.reshape(-1, 1))
    edge = np.exp(-0.5 * B * axis * axis)  # (T, L)
    k = _axis_step(axis) * np.arange(L)
    size = _fft_size(2 * L - 1)  # >= 2L - 1: nothing wraps into the window
    # A - B = 4 e^{-2t} / (1 - e^{-4t}) = 4 pi c1, free of cancellation at
    # large t.  The Gaussian is even in k, so half of it is evaluated; e^x
    # rounds to 0 below x = -745.2, and numpy's exp is several times slower
    # on such arguments than on the rest, so they are skipped.
    arg = -math.pi * c1 * k * k
    half = np.exp(arg, out=np.zeros_like(arg), where=arg > -746.0)
    gauss = np.fft.rfft(np.concatenate([half[:, :0:-1], half], axis=1), size)
    for a in (edge, gauss, c1):
        a.flags.writeable = False
    return edge, gauss, c1, size


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

    The scalings and the Gaussians' spectra depend on the axis and the
    times only.  They are built once per (axis, times), keyed on the
    exact bytes of both, and the last 8 such plans are kept (about
    0.47 MB for 16 times on 1201 points, about 24 L T bytes in general), so
    repeated calls on one lattice and one time list do only the FFT of
    the values, the product and the inverse FFT.  A plan gives the same
    bits whether it is built or reused; every input check runs on every
    call, and the result never shares memory with the plan.
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
    edge, gauss, c1, size = _lattice_plan(axis.tobytes(), times.tobytes())
    column = (len(c1), -1) + (1,) * n  # broadcast along the lattice axis 1
    edge, gauss = edge.reshape(column), gauss.reshape(column)
    out = values[None]
    for j in range(1, n + 1):
        v = np.moveaxis(out, j, 1) * edge
        spec = np.fft.rfft(v, size, axis=1)
        del v
        spec *= gauss
        conv = np.fft.irfft(spec, size, axis=1)
        del spec
        out = np.moveaxis(conv[:, L - 1:2 * L - 1] * edge, 1, j)
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
    _check_points(x)
    t = _check_time(t)
    em2t = np.exp(-2.0 * t)
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    pref = _half_power(2.0 * em2t / (1.0 + em4t), n)
    return pref * np.exp(-0.5 * m4 / (1.0 + em4t) * _split(np.asarray(x, float), n))


def heat_one_dt(x, t, op: ShiftedOperator):
    """d/dt of e^{-alpha t} W_t(1)(x), in closed form."""
    _check_points(x)
    t = _check_time(t)
    return np.exp(-(op.alpha + op.n) * t) * _heat_one_dt_rescaled(x, t, op)


def _heat_one_dt_rescaled(x, t, op: ShiftedOperator):
    """e^{(alpha+n)t} d/dt e^{-alpha t} W_t(1)(x): the time derivative with
    its large-t decay taken out, finite at every t > 0."""
    em4t = np.exp(-4.0 * t)
    m4 = -np.expm1(-4.0 * t)
    onep = 1.0 + em4t
    r2 = _split(np.asarray(x, float), op.n)
    bracket = op.alpha + op.n * m4 / onep + r2 * 4.0 * em4t / (onep * onep)
    return -bracket * _half_power(2.0 / onep, op.n) * np.exp(-0.5 * m4 / onep * r2)


def _subordinate(t, decay: float, points, n: int, rule, scale, weight, block):
    """scale(t) * sum_i weight(s_i, t) block(s_i) over the log-s nodes of
    `rule` for a kernel decaying like e^{-decay s}.

    `t` is a scalar or a 1-D array of T times; an array puts the times on
    a new leading axis in front of the point shape of `points` (whose last
    axis holds coordinates when n > 1).  `weight(s, t)` broadcasts nodes
    against a column of times; `block(s)` gets the nodes on a leading
    axis and must not depend on t.  Repeated times are computed once.
    """
    times = _check_time(t, ndim=1)
    ts, inverse = np.unique(times, return_inverse=True)
    lead = (-1,) + (1,) * np.ndim(_split(points, n))
    total = 0.0
    for s, w in (rule or _DEFAULT_RULE)._node_blocks(ts, decay):
        weights = w * weight(s, ts[:, None])
        # the block is a temporary: it is freed before the next is built
        total = total + np.tensordot(weights, block(s.reshape(lead)), axes=1)
    return (scale(ts).reshape(lead) * total)[inverse.reshape(times.shape)]


def poisson_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """Subordinated Poisson kernel of L + alpha; strictly positive.

    A 1-D array of times gives a leading time axis (see `_subordinate`)."""
    _check_points(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    decay = op.n + op.alpha
    return _subordinate(
        t, decay, x - y, op.n, rule, lambda t: t / _SQRT4PI,
        lambda s, t: s ** -1.5 * np.exp(-t * t / (4.0 * s) - decay * s),
        lambda s: _heat_rescaled(x, y, s, op.n),
    )


def g_kernel(x, y, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt of the Poisson kernel of L + alpha (g-function kernel)."""
    _check_points(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    decay = op.n + op.alpha
    return _subordinate(
        t, decay, x - y, op.n, rule, lambda t: t / _SQRT4PI,
        lambda s, t: s ** -1.5
        * (1.0 - t * t / (2.0 * s))
        * np.exp(-t * t / (4.0 * s) - decay * s),
        lambda s: _heat_rescaled(x, y, s, op.n),
    )


def _heat_ladder(x, y, s, j: int, sign: int, n: int):
    """(d/dx_j + sign x_j) W_s(x, y), differentiated analytically; x and
    y are float arrays and s holds positive nodes."""
    A, B, c1 = _mehler(s)
    if n == 1:
        xj, yj = x, y
    else:
        xj, yj = x[..., j - 1], y[..., j - 1]
    factor = sign * xj - 0.5 * A * (xj - yj) - 0.5 * B * (xj + yj)
    return factor * (_half_power(c1, n) * _mehler_gauss(x, y, A, B, n))


def ladder_kernel(
    x, y, t, j: int, sign: int, n: int = 1, rule: SubordinationRule | None = None
):
    """Kernel of t (d/dx_j +/- x_j) P_t, by subordination of the
    analytically differentiated heat kernel.

    The raising kernel (sign +1) annihilates the ground mode, so at large
    t it nearly cancels, and the fixed `_CUT` window truncates its
    integrand relative to the bulk rather than to the result.  For n = 1
    on the 9 x 9 lattice of (x, y) in [-2, 2]^2, against a Q = 4096
    per-time rule, the default rule is off by 3.0e-11 of the kernel's
    maximum at t = 20 (Q = 1024 by 6.2e-12) and by 1.2e-13 at t = 5.
    The lowering kernel (sign -1) does not cancel: 6.5e-15 at t = 20
    (Q = 1024: 1.9e-15).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= j <= n:
        raise ValueError(f"coordinate j={j} out of range for n={n}")
    _check_points(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _subordinate(
        t, float(n), x - y, n, rule, lambda t: t * t / _SQRT4PI,
        lambda s, t: s ** -1.5 * np.exp(-t * t / (4.0 * s)),
        lambda s: _heat_ladder(x, y, s, j, sign, n),
    )


def g_of_one(x, t, op: ShiftedOperator, rule: SubordinationRule | None = None):
    """t d/dt P_t^{L+alpha}(1)(x), subordinating the exact time derivative
    of the heat action on 1."""
    _check_points(x)
    x = np.asarray(x, dtype=float)
    decay = op.n + op.alpha
    return _subordinate(
        t, decay, x, op.n, rule, lambda t: t / math.sqrt(math.pi),
        lambda s, t: s ** -0.5 * np.exp(-t * t / (4.0 * s) - decay * s),
        lambda s: _heat_one_dt_rescaled(x, s, op),
    )


def classical_poisson(x, t, n: int = 1):
    """Classical Poisson kernel P_t(x) = t^{-n} P(x/t) on R^n; unit mass."""
    _check_points(x)
    t = _check_time(t)
    c = math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)
    r2 = _split(np.asarray(x, float), n)
    return c * t ** (-n) * (1.0 + r2 / (t * t)) ** (-(n + 1) / 2.0)
