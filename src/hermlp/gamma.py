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
draws in the rank-min(d, N) image of A: with the QR factorization
A^T = Q R, each row of g @ R for a standard Gaussian g in R^min(d, N) has
exactly the law N(0, A A^T), so no N-dimensional draw is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "BanachModel",
    "DiscreteGammaOperator",
    "h_norm",
    "rank_one",
    "gamma_norm_hilbert",
    "gamma_norm_mc",
    "gamma_norm",
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
        if self.N < 2:
            raise ValueError("time grid needs at least two nodes")
        nodes = np.geomspace(self.t_min, self.t_max, self.N)
        step = math.log(self.t_max / self.t_min) / (self.N - 1)
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
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not self.q >= 1:  # NaN fails every comparison
            raise ValueError(f"exponent q={self.q} must be >= 1")

    def norm(self, v):
        """l^q norm along the last axis."""
        v = np.asarray(v, dtype=float)
        if math.isinf(self.q):
            return np.max(np.abs(v), axis=-1)
        if self.q == 2.0:
            return np.sqrt(np.sum(v * v, axis=-1))
        # divide by the largest entry so |v|^q neither overflows nor
        # underflows; zero and non-finite vectors are left unscaled.  The
        # entries go on the leading axis, because numpy reduces a short
        # contiguous last axis several times slower.
        a = np.abs(np.moveaxis(v, -1, 0), order="C")
        top = np.max(a, axis=0)
        a /= np.where((top > 0) & np.isfinite(top), top, 1.0)
        np.power(a, self.q, out=a)
        return top * np.sum(a, axis=0) ** (1.0 / self.q)


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
    """Frobenius norm of the matrix: the exact gamma norm when q = 2."""
    return float(np.linalg.norm(T.matrix))


def gamma_norm_mc(T: DiscreteGammaOperator, M: int, seed: int):
    """Monte Carlo gamma-norm estimate.

    Draws M independent samples of matrix @ gamma, gamma standard Gaussian
    in R^N, forms their squared B-norms and returns (sqrt of the sample
    mean, standard error of the mean of the squared norms).  The samples
    are taken in the image of the operator: with R the (k, d) triangular
    factor of the QR factorization of matrix.T, k = min(d, N), each row of
    g @ R for g standard Gaussian in R^k has the law N(0, matrix @
    matrix.T) of matrix @ gamma, exactly and for any rank.  Deterministic
    given (seed, M); draws are processed in fixed-size batches to cap
    memory.
    """
    if M < 2:
        raise ValueError("Monte Carlo estimate needs M >= 2 samples")
    rng = np.random.default_rng(seed)
    R = np.linalg.qr(T.matrix.T, mode="r")
    batch = 20000
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < M:
        m = min(batch, M - done)
        g = rng.standard_normal((m, R.shape[0]))
        norms = T.B.norm(g @ R)
        sq = norms * norms
        total += float(np.sum(sq))
        total_sq += float(np.sum(sq * sq))
        done += m
    mean = total / M
    var = max(total_sq / M - mean * mean, 0.0) * M / (M - 1)
    stderr = math.sqrt(var / M)
    return math.sqrt(mean), stderr


def gamma_norm(T: DiscreteGammaOperator, M: int = 200000, seed: int = 0):
    """Gamma norm with the cheapest exact route available: closed form for
    q = 2, Monte Carlo otherwise.  Returns (estimate, stderr)."""
    if T.B.q == 2.0:
        return gamma_norm_hilbert(T), 0.0
    return gamma_norm_mc(T, M, seed)
