"""Discretization of the Hilbert space H = L^2((0, inf), dt/t) and gamma
norms of finite-rank operators H -> B for finite-dimensional l^q models B.

The time half-line is truncated to [t_min, t_max] and discretized with a
log-spaced trapezoid rule, so scalar H-norms are weighted sums of squares.
An operator is stored as a d x N matrix whose column i is F(t_i) sqrt(w_i)
for a represented profile F; in this weighted coordinate basis the Hilbert
(q = 2) gamma norm is exactly the Frobenius norm.  `gamma_norms` takes an
exact route for every slice of a stack that has one, with stderr 0: a
slice of numerical rank <= 1 is h (x) b, whose gamma norm is
||h||_H ||b||_B for every q, and at q = 1 every slice has its exact l^1
value by the arcsine law.  Only the other slices (rank >= 2 at q not in
{1, 2}) are estimated by Monte Carlo over independent standard Gaussian
coefficients; `gamma_norm_mc` is Monte Carlo at every rank and q, the
independent route the exact ones are tested against.

A gamma norm depends on the operator A only through the covariance
C = A A^T of the Gaussian vector A gamma in R^d, so every route but the
Frobenius one reads C alone, from one factor stage (`_factor`) that owns
the rank decision.  One symmetric eigendecomposition C = V diag(w) V^T is cut
to the eigenpairs with w_i > d max(d, N) eps max_j w_j, the rounding bound
of forming C (N eps tr C <= d N eps w_max) and of eigh (about d eps w_max),
so noise is not kept.  At d = 1 the decomposition is w = C, V = 1, what
LAPACK returns for a 1 x 1 matrix, and is taken without calling eigh.
In singular values of A the cut is sqrt(d max(d, N) eps) sigma_max.  If
r pairs stay, F = diag(sqrt w) V^T has r rows and each row of g @ F for a
standard Gaussian g in R^r has the law N(0, F^T F), so a sample costs r
normals.  For r = 1, sample i of a slice is g_i F by homogeneity of the
norm: one norm per operator, O(M) work, and the exact route's value is
||F||_B itself.  The l^1 route reads sigma_i^2 = C_ii and
rho = C_ij / (sigma_i sigma_j), and sums
E|X_i||X_j| = (2/pi) sigma_i sigma_j (sqrt(1 - rho^2) + rho arcsin rho)
over i, j: O(d^2) per slice.

Draws go in blocks of at most 20000 samples over the stack, and a block
fixes the sums: its squared norms, and their squares, are summed in one
pass per slice.  For r >= 2 a block is filled in strips of at most 2^13
values (64 KiB), each with its own draw, product and norm.  Beside the
block's norms (at most 20000), every temporary of a call is then
strip-sized, and none is large enough for the allocator to map and hand
back on every call.  The generator gives the same normals cut into
strips, but the BLAS product rounds a sample's value by its place in the
call, so a rank >= 2 estimate may differ by an ulp from one whose block
is multiplied in one call.

Each operator is scaled by the power of two at its largest |entry| before
it is squared, and the results are scaled back, so entries anywhere in
the double range neither overflow nor underflow; the scaling is exact.

`gamma_norm_mc` takes one operator, and for rank <= 1 makes the sums of
a one-slice stack on Python floats: the same draws and blocks, the same
block sums unit sum g^2, and the mean, stderr and scale-back by 2^e and
4^e (math.ldexp, inf on overflow) in the same order, so it returns the
bits of the stack route `_mc_stack` without its one-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import _integer, _read_only, _real

# Monte Carlo draws per block, summed over a stack of operators
_BLOCK = 20000
# entries of one strip of a block's values at rank >= 2: 64 KiB of float64,
# half of glibc's default mmap threshold, so a strip's temporaries reuse
# heap pages instead of being mapped and trimmed on every call
_STRIP_ENTRIES = 1 << 13
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
    """Log-spaced trapezoid discretization of (0, inf) with measure dt/t.

    A grid is a value, like `SpatialGrid`: `nodes` and `weights` are
    read-only, so a grid shared as a module constant stays as built."""

    t_min: float = 1e-4
    t_max: float = 40.0
    N: int = 512
    # functions of (t_min, t_max, N), so they take no part in == and hash
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "nodes", _read_only(nodes))
        object.__setattr__(self, "weights", _read_only(weights))


@dataclass(frozen=True)
class BanachModel:
    """Finite-dimensional l^q target space (q = inf allowed as math.inf)."""

    d: int = 1
    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "dimension d", 1))
        # a real number, as every real argument is checked, or +inf
        inf = isinstance(self.q, (float, np.floating)) and self.q == math.inf
        q = math.inf if inf else _real(self.q, "exponent q")
        if not q >= 1:
            raise ValueError(f"exponent q={q} must be >= 1")
        object.__setattr__(self, "q", q)

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


@dataclass(frozen=True)
class DiscreteGammaOperator:
    """Finite-rank operator from the discretized H into a BanachModel.

    Column i of `matrix` is the image of the i-th weighted coordinate
    basis vector, i.e. F(t_i) sqrt(w_i).  An operator is a value, like
    `TimeGrid`: `matrix` is a read-only copy of the array it was given,
    so it keeps the shape and the finite entries it was checked for.
    """

    B: BanachModel
    times: TimeGrid
    matrix: np.ndarray

    def __post_init__(self):
        matrix = _float_array(self.matrix, "operator matrix")
        if matrix.shape != (self.B.d, self.times.N):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"(d, N) = ({self.B.d}, {self.times.N})"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator matrix has non-finite entries")
        object.__setattr__(self, "matrix", _read_only(matrix.copy()))


def _float_array(a, name: str) -> np.ndarray:
    """a as a float array; ValueError for complex entries, of which a cast
    would keep only the real parts."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got complex entries")
    return a.astype(float, copy=False)


def h_norm(samples, grid: TimeGrid) -> float:
    """Scalar H-norm (sum_i f(t_i)^2 w_i)^{1/2} of a profile sampled on
    the grid nodes: the Frobenius norm of f sqrt(w), so samples anywhere in
    the double range neither overflow nor underflow."""
    samples = _float_array(samples, "profile samples")
    if samples.shape != (grid.N,):
        raise ValueError("profile samples must match the grid nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError("profile samples must be finite")
    return float(_frobenius((samples * np.sqrt(grid.weights))[None, None])[0])


def rank_one(samples, b, B: BanachModel, grid: TimeGrid) -> DiscreteGammaOperator:
    """Operator f |-> <f, profile>_H b; its gamma norm factors as
    h_norm(profile) * norm_B(b); b has B.d entries."""
    samples = _float_array(samples, "profile samples")
    if samples.shape != (grid.N,):
        raise ValueError("profile samples must match the grid nodes")
    b = _float_array(b, "target vector b")
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
    M, seed = _mc_args(M, seed)
    _, F, _, e = _factor(T.matrix[None])
    if not F.shape[1]:  # the zero operator
        return 0.0, 0.0
    if F.shape[1] > 1:
        est, err = _draw(F, T.B, M, seed)
        est, err = float(est[0]), float(err[0])
    else:  # `_draw`'s rank-one sums for one slice, on Python floats
        unit = float(T.B.norm(F[:, 0])[0])
        unit *= unit
        unit_sq = unit * unit
        rng = np.random.default_rng(seed)
        total = total_sq = 0.0
        for done in range(0, M, _BLOCK):
            g = rng.standard_normal(min(_BLOCK, M - done))
            g *= g
            total += unit * float(g.sum())
            g *= g
            total_sq += unit_sq * float(g.sum())
        mean = total / M
        var = max(total_sq / M - mean * mean, 0.0) * M / (M - 1)
        est, err = math.sqrt(mean), math.sqrt(var / M)
    e = int(e[0])
    return _ldexp(est, e), _ldexp(err, 2 * e)


def _ldexp(x: float, e: int) -> float:
    """x 2^e for x >= 0, inf on overflow: what `_scaled_back` gives."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _mc_args(M, seed) -> tuple:
    """(M, seed) of a Monte Carlo estimate as Python ints; ValueError
    unless M is an integer >= 2 and seed an integer >= 0."""
    return _integer(M, "Monte Carlo sample count M", 2), _integer(seed, "seed", 0)


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
    ranks[s] rows and zeros below them up to the largest rank r.  At d = 1
    the eigenpair is (C, 1), as eigh gives it, without the call."""
    if C.shape[1] == 1:
        # dsyevd's N = 1 branch returns w = C, v = 1: eigh's answer, bit for bit
        w, V = C[:, 0], None
    else:
        w, V = np.linalg.eigh(C)
        w, V = w[:, ::-1], V[:, :, ::-1]
    keep = w > cut * w[:, :1]
    ranks = keep.sum(axis=1)
    r = int(ranks.max())
    F = np.sqrt(w[:, :r] * keep[:, :r])[:, :, None]
    return (F if V is None else F * V[:, :, :r].swapaxes(1, 2)), ranks


def _factor(A: np.ndarray):
    """The factor stage of every non-Hilbert gamma norm, and the one owner
    of the rank decision: for a stack A (S, d, N), (C, F, ranks, e), where
    e holds the binary exponents of `_binary_scaled`, C (S, d, d) the
    covariances A A^T of the scaled slices, and (F, ranks) their
    `_cov_factor`, cut at d max(d, N) eps (module docstring)."""
    _, d, N = A.shape
    A, e = _binary_scaled(A)
    C = A @ A.swapaxes(1, 2)
    F, ranks = _cov_factor(C, d * max(d, N) * _EPS)
    return C, F, ranks, e


def _draw(F: np.ndarray, B: BanachModel, M: int, seed: int):
    """The draw stage: Monte Carlo gamma norms into B of the slices of a
    factor F (S, r, d) from `_factor`, in the scaled units, from one seed:
    arrays (estimates, stderrs) of length S.

    All slices share one draw: standard normals g of shape (M, r), r the
    largest numerical rank over the stack, taken row by row from
    default_rng(seed) in blocks of at most 20000 draws summed over the
    stack (20000 // S samples of every slice per block).  Slice s reads the
    first ranks[s] columns of g, so a slice of rank r gets the draws of a
    standalone call and one of lower rank gets other draws of the same law.
    For r = 1 sample i of slice s is g_i F_s, so a block adds ||F_s||^2
    sum g^2 and ||F_s||^4 sum g^4: one B-norm per slice.  Otherwise the
    block's (S, m) norms are filled in strips of max(1, 2^13 // (d S))
    samples: a strip draws its (k, r) normals, forms their values entries
    first, (d, S, k), so `BanachModel.norm` of their transpose reduces
    contiguous rows, and writes the norms to its k columns.  The block
    still fixes how the norms are summed; the strip only bounds the memory
    of a call, and may move a rank >= 2 estimate by an ulp (module
    docstring).  M and seed are the checked ints of `_mc_args`."""
    rng = np.random.default_rng(seed)
    S, r, d = F.shape
    if r == 0:  # every slice is zero
        return np.zeros(S), np.zeros(S)
    if r == 1:
        unit = B.norm(F[:, 0]) ** 2
        unit_sq = unit * unit
    else:
        Ft = np.ascontiguousarray(F.transpose(2, 0, 1)).reshape(d * S, r)
        strip = max(1, _STRIP_ENTRIES // (d * S))
    batch = max(1, _BLOCK // S)
    total = np.zeros(S)
    total_sq = np.zeros(S)
    done = 0
    while done < M:
        m = min(batch, M - done)
        if r == 1:
            g = rng.standard_normal((m, 1))
            g *= g
            total += unit * g.sum()
            g *= g
            total_sq += unit_sq * g.sum()
        else:
            norms = np.empty((S, m))
            for j in range(0, m, strip):
                k = min(strip, m - j)
                g = rng.standard_normal((k, r))
                norms[:, j:j + k] = B.norm((Ft @ g.T).reshape(d, S * k).T).reshape(S, k)
            norms *= norms
            total += norms.sum(axis=1)
            norms *= norms
            total_sq += norms.sum(axis=1)
        done += m
    mean = total / M
    var = np.maximum(total_sq / M - mean * mean, 0.0) * M / (M - 1)
    return np.sqrt(mean), np.sqrt(var / M)


def _scaled_back(est: np.ndarray, err: np.ndarray, e: np.ndarray):
    """Estimates scaled back by 2^e and stderrs, in squared units, by 4^e;
    either may over- or underflow to inf or 0."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(est, e), np.ldexp(err, 2 * e)


def _mc_stack(A: np.ndarray, B: BanachModel, M: int, seed: int):
    """Monte Carlo gamma norms of a stack A (S, d, N) of operator matrices
    into B from one seed: arrays (estimates, stderrs) of length S, each
    slice estimated as in `gamma_norm_mc`: `_factor`, then `_draw`, then
    the estimates scaled back by 2^e and the stderrs by 4^e.  The tests
    hold `gamma_norm_mc`, which sums one operator's draws without it, to
    this route bit for bit."""
    _, F, _, e = _factor(A)
    return _scaled_back(*_draw(F, B, M, seed), e)


def _l1_squares(C: np.ndarray) -> np.ndarray:
    """E||X||_1^2 for X ~ N(0, C_s), per slice of a stack C (S, d, d) of
    covariances: the sum over i, j of E|X_i||X_j|, which by the arcsine
    law is (2/pi) sigma_i sigma_j (sqrt(1 - rho^2) + rho arcsin rho), with
    sigma_i^2 = C_ii and rho = C_ij / (sigma_i sigma_j) clipped to [-1, 1]
    against rounding; a pair with a zero sigma adds 0."""
    sigma = np.sqrt(np.diagonal(C, axis1=1, axis2=2))
    ss = sigma[:, :, None] * sigma[:, None, :]
    rho = np.divide(C, ss, out=np.zeros_like(C), where=ss > 0)
    np.clip(rho, -1.0, 1.0, out=rho)
    moment = ss * (np.sqrt(1.0 - rho * rho) + rho * np.arcsin(rho))
    return (2.0 / math.pi) * moment.sum(axis=(1, 2))


def gamma_norms(A, B: BanachModel, M: int = 200000, seed: int = 0):
    """Gamma norms of a stack A (S, d, N) of operator matrices into B:
    arrays (estimates, stderrs) of length S.  Each slice takes the first
    route that applies, and an exact route returns stderr 0:

    - q = 2: the Frobenius norm of every slice;
    - numerical rank <= 1 (`_factor`'s cut), any q: the slice is h (x) b
      and its gamma norm is ||h||_H ||b||_B, read as ||F_s||_B from the
      one row of its factor;
    - q = 1, any rank: the exact l^1 value from the slice's covariance
      by the arcsine law (`_l1_squares`);
    - otherwise Monte Carlo.  If any slice is left for it, the whole stack
      is drawn from `seed` (`_draw`), so a drawn slice gets what
      `_mc_stack` of the whole stack gives it: a slice of the stack's
      largest rank gets what `gamma_norm_mc` gives it alone, and one of
      lower rank reads fewer columns of the shared draw (same law, other
      draws).  The exact values are then written over the other slices.

    A stack with no slice left for Monte Carlo draws nothing, and an
    all-zero stack takes no B-norm.  M and seed are checked as in
    `gamma_norm_mc` for every q."""
    A = _float_array(A, "operator stack")
    if A.ndim != 3 or A.shape[0] < 1 or A.shape[1] != B.d or A.shape[2] < 1:
        raise ValueError(f"stack shape {A.shape} is not (S, d={B.d}, N)")
    if not np.all(np.isfinite(A)):
        raise ValueError("operator matrix has non-finite entries")
    M, seed = _mc_args(M, seed)
    S = len(A)
    if B.q == 2.0:
        return _frobenius(A), np.zeros(S)
    C, F, ranks, e = _factor(A)
    est, err = np.zeros(S), np.zeros(S)
    if not F.shape[1]:  # every slice is zero
        return est, err
    one = ranks <= 1
    if B.q == 1.0:
        est = np.sqrt(_l1_squares(C))
    elif not one.all():
        est, err = _draw(F, B, M, seed)
        err[one] = 0.0
    est[one] = B.norm(F[one, 0])
    return _scaled_back(est, err, e)
