"""Discretization of the Hilbert space H = L^2((0, inf), dt/t) and gamma
norms of finite-rank operators H -> B for finite-dimensional l^q models B.

The time half-line is truncated to [t_min, t_max] and discretized with a
log-spaced trapezoid rule, so scalar H-norms are weighted sums of squares.
An operator is stored as a d x N matrix whose column i is F(t_i) sqrt(w_i)
for a represented profile F; in this weighted coordinate basis the Hilbert
(q = 2) gamma norm is exactly the Frobenius norm, and the general case is
estimated by Monte Carlo over independent standard Gaussian coefficients.

A gamma norm depends on the operator A only through the covariance
C = A A^T of the Gaussian vector A gamma in R^d, so the Monte Carlo route
reads C alone.  One symmetric eigendecomposition C = V diag(w) V^T is cut
to the eigenpairs with w_i > d max(d, N) eps max_j w_j, the rounding bound
of forming C (N eps tr C <= d N eps w_max) and of eigh (about d eps w_max),
so noise is not kept.  In singular values of A the cut is
sqrt(d max(d, N) eps) sigma_max.  If r pairs stay, F = diag(sqrt w) V^T has
r rows and each row of g @ F for a standard Gaussian g in R^r has the law
N(0, F^T F), so a sample costs r normals.  For r = 1, sample i of a slice
is g_i F by homogeneity of the norm: one norm per operator, O(M) work.

Each operator is scaled by the power of two at its largest |entry| before
it is squared, and the results are scaled back, so entries anywhere in
the double range neither overflow nor underflow; the scaling is exact.
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
        # scale each vector so |v|^q neither overflows nor underflows; zero
        # and non-finite vectors stay unscaled.  The entries go on the
        # leading axis: numpy reduces a short contiguous last axis slower.
        a = np.abs(v.transpose(-1, *range(v.ndim - 1)), order="C")
        top = a.max(axis=0)
        if self.q <= 1022:
            # by the power of two at the largest entry (exact, and faster
            # than a divide): it lands in [1/2, 1), so its q-th power is normal
            e = np.frexp(top)[1]
            np.ldexp(a, -e, out=a)
        else:  # 2^-q would underflow: divide, so the largest is exactly 1
            e = None
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
        a = a.sum(axis=0) ** (1.0 / self.q)
        return top * a if e is None else np.ldexp(a, e)


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
    the grid nodes: the Frobenius norm of f sqrt(w), so samples anywhere in
    the double range neither overflow nor underflow."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N,):
        raise ValueError("profile samples must match the grid nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError("profile samples must be finite")
    return float(_frobenius((samples * np.sqrt(grid.weights))[None, None])[0])


def rank_one(samples, b, B: BanachModel, grid: TimeGrid) -> DiscreteGammaOperator:
    """Operator f |-> <f, profile>_H b; its gamma norm factors as
    h_norm(profile) * norm_B(b); b has B.d entries."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N,):
        raise ValueError("profile samples must match the grid nodes")
    b = np.asarray(b, dtype=float)
    if b.size != B.d:
        raise ValueError(f"b needs B.d={B.d} entries, got shape {b.shape}")
    matrix = b.reshape(-1, 1) * (samples * np.sqrt(grid.weights))[None, :]
    return DiscreteGammaOperator(B, grid, matrix)


def gamma_norm_hilbert(T: DiscreteGammaOperator) -> float:
    """Frobenius norm of the matrix: the exact gamma norm when q = 2, and
    the same value, bit for bit, as `gamma_norms(T.matrix[None], T.B)`
    gives there."""
    return float(_frobenius(T.matrix[None])[0])


def gamma_norm_mc(T: DiscreteGammaOperator, M: int, seed: int):
    """Monte Carlo gamma-norm estimate.

    Draws M independent samples of matrix @ gamma, gamma standard Gaussian
    in R^N, forms their squared B-norms and returns (sqrt of the sample
    mean, standard error of the mean of the squared norms).  The samples
    are drawn in the image of the operator cut to its numerical rank r,
    the eigenpairs of C = matrix @ matrix.T with w_i > cut w_max, cut =
    d max(d, N) eps (see the module docstring): the covariance of a draw
    differs from C by less than d cut ||matrix||^2, and a sample costs r
    normals.  A rank-one operator costs one normal per sample and one
    B-norm in all, so O(M) work.  Entries may lie anywhere in the double
    range (the operator is scaled by a power of two); the stderr, in
    squared units, over- or underflows to inf or 0 once the entries pass
    about 1e+-154.  Deterministic given (seed, M): M an integer >= 2, seed
    an integer >= 0, else ValueError.  Draws go in blocks of at most 20000.
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


def _cov_factor(C: np.ndarray, cut: float):
    """Per slice of a stack C (S, d, d) of covariances: (F, ranks), where
    F (S, r, d) holds sqrt(w_i) v_i^T over the eigenpairs of the slice with
    w_i > cut w_max, largest first, so F^T F is C less the dropped pairs.
    Taken in descending order the kept pairs are a prefix, so slice s has
    ranks[s] rows and zeros below them up to the largest rank r."""
    w, V = np.linalg.eigh(C)
    w, V = w[:, ::-1], V[:, :, ::-1]
    keep = w > cut * w[:, :1]
    ranks = keep.sum(axis=1)
    r = int(ranks.max())
    return np.sqrt(w[:, :r] * keep[:, :r])[:, :, None] * V[:, :, :r].swapaxes(1, 2), ranks


def _mc_stack(A: np.ndarray, B: BanachModel, M: int, seed: int):
    """Monte Carlo gamma norms of a stack A (S, d, N) of operator matrices
    into B from one seed: arrays (estimates, stderrs) of length S, each
    slice estimated as in `gamma_norm_mc`.

    Each slice is scaled by a power of two (`_binary_scaled`); the
    estimates are scaled back by 2^e and the stderrs by 4^e.  All slices
    share one draw: standard normals g of shape (M, r), r the largest
    numerical rank over the stack (`_cov_factor` of the scaled A A^T, cut
    at d max(d, N) eps), taken row by row from default_rng(seed) in blocks
    of at most 20000 draws summed over the stack (20000 // S samples of
    every slice per block).  Slice s reads the first ranks[s] columns of
    g, so a slice of rank r gets the draws of a standalone call and one of
    lower rank gets other draws of the same law.  For r = 1 sample i of
    slice s is g_i F_s, so a block adds ||F_s||^2 sum g^2 and ||F_s||^4
    sum g^4: one B-norm per slice.  Otherwise the values of a block are
    formed entries first, (d, S, m), so `BanachModel.norm` of their
    transpose reduces contiguous rows."""
    M = _integer(M, "Monte Carlo sample count M", 2)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    S, d, N = A.shape
    A, e = _binary_scaled(A)
    F, _ = _cov_factor(A @ A.swapaxes(1, 2), d * max(d, N) * _EPS)
    r = F.shape[1]
    if r == 0:  # every slice is zero
        return np.zeros(S), np.zeros(S)
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


def gamma_norms(A, B: BanachModel, M: int = 200000, seed: int = 0):
    """Gamma norms of a stack A (S, d, N) of operator matrices into B:
    arrays (estimates, stderrs) of length S.  For q = 2 the Frobenius norm
    of each slice with stderr 0; otherwise one Monte Carlo estimate of the
    whole stack from `seed` (`_mc_stack`): a slice of the stack's largest
    rank gets what `gamma_norm_mc` gives it alone; a slice of lower rank
    reads fewer columns of the shared draw: same law, other draws."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[0] < 1 or A.shape[1] != B.d or A.shape[2] < 1:
        raise ValueError(f"stack shape {A.shape} is not (S, d={B.d}, N)")
    if not np.all(np.isfinite(A)):
        raise ValueError("operator matrix has non-finite entries")
    if B.q == 2.0:
        return _frobenius(A), np.zeros(len(A))
    return _mc_stack(A, B, M, seed)
