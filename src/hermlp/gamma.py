"""Discretization of the Hilbert space H = L^2((0, inf), dt/t) and gamma
norms of finite-rank operators H -> B for finite-dimensional l^q models B.

The time half-line is truncated to [t_min, t_max] and discretized with a
log-spaced trapezoid rule, so scalar H-norms are weighted sums of squares.
An operator is stored as a d x N matrix whose column i is F(t_i) sqrt(w_i)
for a represented profile F; in this weighted coordinate basis the Hilbert
(q = 2) gamma norm is exactly the Frobenius norm, and the general case is
estimated by Monte Carlo over independent standard Gaussian coefficients.

A gamma norm depends on the operator A only through the covariance A A^T
of the Gaussian vector A gamma in R^d.  The Monte Carlo route therefore
draws in the image of A, cut to its numerical rank.  With the QR
factorization A^T = Q R (R has min(d, N) rows R_i), A A^T = R^T R =
sum_i R_i^T R_i; the rows with ||R_i|| <= max(d, N) eps max_j ||R_j||
are dropped, and each dropped row removes only its own R_i^T R_i, below
(max(d, N) eps)^2 ||R||^2.  If r rows stay (F, kept in order), each row of
g @ F for a standard Gaussian g in R^r has the law N(0, F^T F), so a
sample costs r normals.  The QR does not pivot, so target entries whose
row of A is numerically zero are moved last before it (a rank-one
operator keeps one row wherever its zero entries are).  r is then the
numerical rank unless a nonzero column of A^T lies in the span of the
columns before it while a later one does not.  For r = 1, sample i of a
slice is g_i F by homogeneity of the norm, so its squared norm is
g_i^2 ||F||^2: one norm per operator and O(M) work for M samples.
Operators that keep every row draw exactly what a draw of min(d, N)
normals gave before; rank-deficient ones draw fewer normals, so for a
fixed seed their draws differ while their law is the same.

Each operator is scaled by the power of two at its largest |entry| before
it is squared, and the results are scaled back, so entries anywhere in
the double range neither overflow nor underflow; the scaling is exact.
A call's cost is mostly fixed (numpy calls on small arrays): for rank one,
d = 3, N = 128 (2-core x86_64, numpy 2.4.6) it took 97 us at M = 2, of
which the seeded draw was 11, and 211 us at M = 7500, the draw 104; before
the set-up was trimmed to fewer calls, 146 and 268 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import _integer

# Monte Carlo draws per block, summed over a stack of operators
_BLOCK = 20000
_EPS = np.finfo(float).eps

__all__ = [
    "TimeGrid",
    "BanachModel",
    "DiscreteGammaOperator",
    "h_norm",
    "rank_one",
    "gamma_norm_hilbert",
    "gamma_norm_mc",
    "gamma_norm",
    "gamma_norms",
]


@dataclass(frozen=True)
class TimeGrid:
    """Log-spaced trapezoid discretization of (0, inf) with measure dt/t."""

    t_min: float = 1e-4
    t_max: float = 40.0
    N: int = 512
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("t_min and t_max must be finite")
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        object.__setattr__(self, "N", _integer(self.N, "time grid node count N", 2))
        span = float(self.t_max) / float(self.t_min)  # inf on overflow, no warning
        if not math.isfinite(span):
            raise ValueError(f"time span t_max/t_min = {self.t_max:g}/{self.t_min:g} overflows")
        nodes = np.geomspace(self.t_min, self.t_max, self.N)
        step = math.log(span) / (self.N - 1)
        weights = np.full(self.N, step)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def refine(self) -> "TimeGrid":
        """Same span with twice as many nodes (for convergence checks)."""
        return TimeGrid(self.t_min, self.t_max, 2 * self.N)


@dataclass(frozen=True)
class BanachModel:
    """Finite-dimensional l^q target space (q = inf allowed as math.inf)."""

    d: int = 1
    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "dimension d", 1))
        if not self.q >= 1:  # NaN fails every comparison
            raise ValueError(f"exponent q={self.q} must be >= 1")

    def norm(self, v):
        """l^q norm along the last axis; |v| when that axis has one entry."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] == (1,):
            return np.abs(v[..., 0])
        if math.isinf(self.q):
            return abs(v).max(axis=-1)
        if self.q == 2.0:
            return np.sqrt((v * v).sum(axis=-1))
        # divide by the largest entry so |v|^q neither overflows nor
        # underflows; zero and non-finite vectors are left unscaled.  The
        # entries go on the leading axis, because numpy reduces a short
        # contiguous last axis several times slower.
        a = np.abs(v.transpose(-1, *range(v.ndim - 1)), order="C")
        top = a.max(axis=0)
        np.divide(a, top, out=a, where=(top > 0) & np.isfinite(top))
        # an integer q up to 64 takes squarings and products (left-to-right
        # binary powers): several times faster than np.power, within q ulp
        k = int(min(self.q, 64.0))
        if k == self.q:
            base = a.copy() if k & (k - 1) else a
            for bit in bin(k)[3:]:
                a *= a
                if bit == "1":
                    a *= base
        else:
            np.power(a, self.q, out=a)
        return top * a.sum(axis=0) ** (1.0 / self.q)


@dataclass
class DiscreteGammaOperator:
    """Finite-rank operator from the discretized H into a BanachModel.

    Column i of `matrix` is the image of the i-th weighted coordinate
    basis vector, i.e. F(t_i) sqrt(w_i).
    """

    B: BanachModel
    times: TimeGrid
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (self.B.d, self.times.N):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"(d, N) = ({self.B.d}, {self.times.N})"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("operator matrix has non-finite entries")


def h_norm(samples, grid: TimeGrid) -> float:
    """Scalar H-norm (sum_i f(t_i)^2 w_i)^{1/2} of a profile sampled on
    the grid nodes."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N,):
        raise ValueError("profile samples must match the grid nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError("profile samples must be finite")
    return float(np.sqrt(np.sum(samples * samples * grid.weights)))


def rank_one(samples, b, B: BanachModel, grid: TimeGrid) -> DiscreteGammaOperator:
    """Operator f |-> <f, profile>_H b; its gamma norm factors as
    h_norm(profile) * norm_B(b)."""
    samples = np.asarray(samples, dtype=float)
    b = np.asarray(b, dtype=float).reshape(B.d)
    matrix = b[:, None] * (samples * np.sqrt(grid.weights))[None, :]
    return DiscreteGammaOperator(B, grid, matrix)


def gamma_norm_hilbert(T: DiscreteGammaOperator) -> float:
    """Frobenius norm of the matrix: the exact gamma norm when q = 2, and
    the same value, bit for bit, as `gamma_norm(T)[0]` there."""
    return float(_frobenius(T.matrix[None])[0])


def gamma_norm_mc(T: DiscreteGammaOperator, M: int, seed: int):
    """Monte Carlo gamma-norm estimate.

    Draws M independent samples of matrix @ gamma, gamma standard Gaussian
    in R^N, forms their squared B-norms and returns (sqrt of the sample
    mean, standard error of the mean of the squared norms).  The samples
    are taken in the image of the operator, cut to its numerical rank:
    the rows R_i of the triangular factor of the QR factorization of
    matrix.T with ||R_i|| > max(d, N) eps max_j ||R_j|| are kept (r of
    them, F), and each row of g @ F for g standard Gaussian in R^r has the
    law N(0, F^T F), which differs from the law N(0, matrix @ matrix.T) of
    matrix @ gamma by less than (max(d, N) eps)^2 ||matrix||^2 in its
    covariance.  A sample costs r normals; a rank-one operator (r = 1)
    costs one normal per sample and one B-norm in all, so O(M) work.
    An operator that keeps all min(d, N) rows gets the draws and, up to
    rounding, the estimate of a full min(d, N)-column draw; a
    rank-deficient one gets other draws of the same law.  Entries may lie
    anywhere in the double range (the operator is scaled by a power of
    two); the stderr, in squared units, over- or underflows to inf or 0
    once the entries pass about 1e+-154.  Deterministic given (seed, M):
    M an integer >= 2, seed an integer >= 0, else ValueError.  Draws are
    processed in blocks of at most 20000 to cap memory.
    """
    est, err = _mc_stack(T.matrix[None], T.B, M, seed)
    return float(est[0]), float(err[0])


def _binary_scaled(A: np.ndarray):
    """A stack A (S, d, N) as (A_s 2^-e_s, e): e_s is the binary exponent of
    the largest |entry| of slice s (np.frexp; 0 for a zero slice), so each
    scaled slice has its largest |entry| in [1/2, 1) and squares neither
    overflow nor underflow.  Powers of two scale exactly."""
    e = np.frexp(abs(A).max(axis=(1, 2)))[1]
    return np.ldexp(A, -e[:, None, None]), e


def _frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norms of the slices of a stack A (S, d, N), each slice
    scaled by `_binary_scaled` and its squares summed by one dot product
    (a batched matmul, which is faster here than sum(A * A) or einsum)."""
    A, e = _binary_scaled(A)
    row = A.reshape(len(A), 1, -1)
    return np.ldexp(np.sqrt((row @ row.reshape(len(A), -1, 1)).reshape(-1)), e)


def _image_factor(A: np.ndarray):
    """Per slice of a stack A (S, d, N): a factor F with A A^T = F^T F up
    to (max(d, N) eps ||A||)^2, cut to the numerical rank.

    A row (of A, then of R) is kept when its norm is above max(d, N) eps
    times its slice's largest row norm.  The QR does not pivot, so a row
    of A that is not kept (a zero target entry) ahead of one that is
    would keep a row of R: such slices are factored with those rows moved
    last, in a stable order, and the columns of F put back in target
    order.  One stacked QR of the transposes gives R (S, min(d, N), d),
    whose kept rows are taken, in order and first.  Returns (F, ranks): F
    is (S, r, d) with r the largest rank, and slice s holds zeros below
    its ranks[s] kept rows."""
    S, d, N = A.shape

    def kept(rows):
        size = np.sqrt((rows * rows).sum(axis=2))
        return size > max(d, N) * _EPS * size.max(axis=1, keepdims=True)

    keep = kept(A)
    if (keep[:, :-1] < keep[:, 1:]).any():
        order = np.argsort(~keep, axis=1, kind="stable")
        F, ranks = _image_factor(np.take_along_axis(A, order[:, :, None], axis=1))
        return np.take_along_axis(F, np.argsort(order, axis=1)[:, None, :], axis=2), ranks
    R = np.linalg.qr(A.swapaxes(1, 2), mode="r")
    keep = kept(R)
    ranks = keep.sum(axis=1)
    r = int(ranks.max())
    if keep[:, :r].all():  # every slice keeps its first r rows: F is a view of R
        return R[:, :r], ranks
    first = np.argsort(~keep, axis=1, kind="stable")[:, :r]
    F = np.take_along_axis(R, first[:, :, None], axis=1)
    F[np.arange(r) >= ranks[:, None]] = 0.0
    return F, ranks


def _mc_stack(A: np.ndarray, B: BanachModel, M: int, seed: int):
    """Monte Carlo gamma norms of a stack A (S, d, N) of operator matrices
    into B from one seed: arrays (estimates, stderrs) of length S, each
    slice estimated as in `gamma_norm_mc`.

    Each slice is scaled by a power of two (`_binary_scaled`); the
    estimates are scaled back by 2^e and the stderrs by 4^e.  All slices
    share one draw: standard normals g of shape (M, r), r the largest
    numerical rank over the stack (`_image_factor`), taken row by row from
    default_rng(seed) in blocks of at most 20000 draws summed over the
    stack (20000 // S samples of every slice per block).  Slice s reads
    the first ranks[s] columns of g, so a slice of full rank r gets the
    draws of a standalone call and one of lower rank gets other draws of
    the same law.  For r = 1 sample i of slice s is g_i F_s, so a block
    adds ||F_s||^2 sum g^2 and ||F_s||^4 sum g^4: one B-norm per slice.
    Otherwise the values of a block are formed entries first, (d, S, m):
    `BanachModel.norm` of their transpose reduces contiguous rows."""
    M = _integer(M, "Monte Carlo sample count M", 2)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    S, d, _ = A.shape
    A, e = _binary_scaled(A)
    F, _ = _image_factor(A)
    r = F.shape[1]
    if r == 1:
        unit = B.norm(F[:, 0]) ** 2
        unit_sq = unit * unit
    else:
        Ft = np.ascontiguousarray(F.transpose(2, 0, 1)).reshape(d * S, r)
    batch = max(1, _BLOCK // S)
    total = np.zeros(S)
    total_sq = np.zeros(S)
    done = 0
    while done < M:
        m = min(batch, M - done)
        g = rng.standard_normal((m, r))
        if r == 1:
            g *= g
            total += unit * g.sum()
            g *= g
            total_sq += unit_sq * g.sum()
        else:
            norms = B.norm((Ft @ g.T).reshape(d, S * m).T).reshape(S, m)
            norms *= norms
            total += norms.sum(axis=1)
            norms *= norms
            total_sq += norms.sum(axis=1)
        done += m
    mean = total / M
    var = np.maximum(total_sq / M - mean * mean, 0.0) * M / (M - 1)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(np.sqrt(mean), e), np.ldexp(np.sqrt(var / M), 2 * e)


def gamma_norm(T: DiscreteGammaOperator, M: int = 200000, seed: int = 0):
    """Gamma norm by the route of `gamma_norms`: the Frobenius norm with
    stderr 0 for q = 2, Monte Carlo otherwise.  Returns (estimate, stderr)."""
    est, err = gamma_norms(T.matrix[None], T.B, M, seed)
    return float(est[0]), float(err[0])


def gamma_norms(A, B: BanachModel, M: int = 200000, seed: int = 0):
    """Gamma norms of a stack A (S, d, N) of operator matrices into B:
    arrays (estimates, stderrs) of length S.  For q = 2 the Frobenius norm
    of each slice with stderr 0; otherwise one Monte Carlo estimate of the
    whole stack from `seed` (one stacked QR and one shared draw, in blocks
    of at most 20000 draws summed over the stack).  A slice that keeps the
    largest rank of the stack gets what `gamma_norm_mc` gives it alone; a
    slice of lower rank reads fewer columns of the shared draw, so its
    estimate has the same law but other draws."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[0] < 1 or A.shape[1] != B.d or A.shape[2] < 1:
        raise ValueError(f"stack shape {A.shape} is not (S, d={B.d}, N)")
    if not np.all(np.isfinite(A)):
        raise ValueError("operator matrix has non-finite entries")
    if B.q == 2.0:
        return _frobenius(A), np.zeros(len(A))
    return _mc_stack(A, B, M, seed)
