"""Exact spectral calculus on Hermite expansions: heat/Poisson semigroups,
the square function t d/dt P_t, ladder and Riesz transforms, negative
powers, and maximal operators.

Everything here acts on coefficients, so these operators are the
ground truth against which the quadrature kernels are checked.  Mode k
of the shifted oscillator L + alpha has eigenvalue 2|k| + n + alpha;
shifts with alpha <= -n are accepted only when every stored mode keeps
a strictly positive eigenvalue (needed for alpha = -2 in low
dimensions), and rejected otherwise.

Every operator reads one table (`_spectral_table`): per stored mode a
target mode, a coefficient and a time profile a t^p e^{-r t}.  A
sampled field (`gfunction`, `ladder_transform`) hands its table rows,
outer(profile(t), C) on each target mode, straight to the array-level
synthesis of `basis` (`_field`); no expansion is built for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    HermiteExpansion, SpatialGrid, _eigenvalue, _expansion, _ladder, _point, _real, _synthesize,
    point_synthesis_matrix,
)
from .gamma import BanachModel, TimeGrid, _mc_args, gamma_norms
from .kernels import _TIME_BLOCK

# the semigroups of `apply_semigroup`, the maximal functions and the CLI
_KINDS = ("heat", "poisson")

__all__ = [
    "TimeField",
    "apply_semigroup",
    "gfunction",
    "gfunction_l2_sq",
    "ladder_transform",
    "riesz",
    "inv_sqrt",
    "maximal_norm",
    "composed_maximal",
]


@dataclass
class TimeField:
    """Sampled function of (x, t): values[i, m, c] at grid point i, time
    node m, component c."""

    grid: SpatialGrid
    times: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        d = self.values.shape[-1] if self.values.ndim == 3 else None
        if self.values.ndim != 3 or self.values.shape[:2] != (
            self.grid.size,
            self.times.N,
        ):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"(grid.size, times.N, d) = ({self.grid.size}, {self.times.N}, {d})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time field has non-finite values")


def _check_shift(modes: np.ndarray, alpha: float):
    """alpha > -n always works; otherwise every mode (a row of `modes`)
    must keep a positive eigenvalue (e.g. alpha = -2 with modes of
    degree >= 1), and an empty set of modes is rejected.  An alpha that
    is not a finite real number is rejected (`basis._real`)."""
    _real(alpha, "shift alpha")
    n = modes.shape[1]
    if alpha > -n:
        return
    if modes.size and np.min(_eigenvalue(modes.sum(axis=1), n, alpha)) > 0:
        return
    raise ValueError(f"shift alpha={alpha} gives non-positive eigenvalues for n={n}")


def _spectral_table(e: HermiteExpansion, alpha: float, op):
    """The operator `op` on e, one row per term: arrays (targets, C, amp,
    rate, power).  Row i sends its stored mode, with coefficient C[i], to
    mode targets[i] with the time profile amp[i] t^power e^{-t rate[i]}:
      "heat", "poisson": e^{-t lam} or e^{-t sqrt(lam)} on every stored
        mode, lam = 2|k| + n + alpha;
      "g": t d/dt P_t^{L+alpha}, amp = -sqrt(lam), power 1;
      ("ladder", j, sign): t (d/dx_j + sign x_j) P_t^L, k -> k - sign e_j,
        amp sqrt(2 k_j) (raising; modes with k_j = 0 dropped) or
        -sqrt(2 k_j + 2), power 1, rate sqrt(2|k| + n) (unshifted);
      ("riesz", j, sign): the ladder rows with amp / rate and power 0.
    The semigroup and g rows check the shift on the stored modes;
    `composed_maximal` checks it on the targets.
    """
    modes, C = e.modes, e.C
    if op in _KINDS or op == "g":
        _check_shift(modes, alpha)
        lam = _eigenvalue(modes.sum(axis=1), e.n, alpha)
        rate = lam if op == "heat" else np.sqrt(lam)
        if op == "g":
            return modes, C, -rate, rate, 1
        return modes, C, np.ones_like(rate), rate, 0
    if not (isinstance(op, tuple) and len(op) == 3 and op[0] in ("ladder", "riesz")):
        raise ValueError(f"unknown spectral operator {op!r}")
    name, j, sign = op
    j, sign = _ladder(j, sign, e.n)
    if sign == +1:
        keep = modes[:, j - 1] > 0
        modes, C = modes[keep], C[keep]
    amp = sign * np.sqrt(2.0 * modes[:, j - 1] + (1 - sign))
    rate = np.sqrt(_eigenvalue(modes.sum(axis=1), e.n, 0.0))
    targets = modes.copy()
    targets[:, j - 1] -= sign
    if name == "ladder":
        return targets, C, amp, rate, 1
    return targets, C, amp / rate, rate, 0


def _profiles(table, t: np.ndarray) -> np.ndarray:
    """amp t^power e^{-t rate} per table row at the times t: (rows, len(t))."""
    _, _, amp, rate, power = table
    return amp[:, None] * t ** power * np.exp(-t * rate[:, None])


def apply_semigroup(
    e: HermiteExpansion, kind: str, t: float, alpha: float = 0.0
) -> HermiteExpansion:
    """Multiply each coefficient by the semigroup symbol e^{-t lambda}
    (heat) or e^{-t sqrt(lambda)} (poisson), lambda = 2|k| + n + alpha."""
    e = _expansion(e, "e")
    if kind not in _KINDS:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    t = _real(t, "time t")
    if t < 0:
        raise ValueError("time must be nonnegative")
    modes, C, _, rate, _ = _spectral_table(e, alpha, kind)
    # math.exp per mode: numpy's vectorized exp can differ from it in the
    # last bit, and `hermlp semigroup` prints this factor to 17 digits.  The
    # product is taken in Python floats (`_real` gives one): a numpy scalar
    # warns where it overflows (t = 1e308), and the factor is 0.0 either way
    factor = np.array([math.exp(-t * r) for r in rate.tolist()])
    return HermiteExpansion._from_rows(e.n, e.d, modes, factor[:, None] * C, e.K)


def gfunction(
    e: HermiteExpansion, alpha: float, grid: SpatialGrid, times: TimeGrid
) -> TimeField:
    """t d/dt P_t^{L+alpha} f sampled on grid x times: mode k carries the
    profile -t sqrt(lambda) e^{-t sqrt(lambda)}."""
    e = _expansion(e, "e")
    return _field(_spectral_table(e, alpha, "g"), grid, times)


def gfunction_l2_sq(e: HermiteExpansion, alpha: float) -> float:
    """Exact squared L^2(dx; H) norm of the square function: each mode
    contributes |c_k|^2 int_0^inf (t sqrt(lam) e^{-t sqrt(lam)})^2 dt/t,
    and that integral is 1/4 for every eigenvalue."""
    e = _expansion(e, "e")
    _check_shift(e.modes, alpha)
    return 0.25 * e.l2_norm_sq()


def ladder_transform(
    e: HermiteExpansion, j: int, sign: int, grid: SpatialGrid, times: TimeGrid
) -> TimeField:
    """t (d/dx_j +/- x_j) P_t^L f sampled on grid x times, from the ladder
    rows of `_spectral_table`: mode k moves to k -/+ e_j and keeps the
    Poisson factor of its own eigenvalue 2|k| + n."""
    e = _expansion(e, "e")
    return _field(_spectral_table(e, 0.0, ("ladder", j, sign)), grid, times)


def _field(table, grid: SpatialGrid, times: TimeGrid) -> TimeField:
    """sum over the table rows of h_target(x) profile(t) C, on grid x times.

    Row i of the table is one coefficient row outer(profile_i(t), C[i])
    of N*d entries on its target mode, and `basis._synthesize` makes the
    whole field from those rows in one call; the dimension check it
    starts with runs before anything is synthesized.
    """
    targets, C = table[:2]
    d = C.shape[1]
    rows = _profiles(table, times.nodes)[:, :, None] * C[:, None, :]  # (rows, N, d)
    K = int(targets.sum(axis=1).max(initial=0))
    values = _synthesize(targets, rows.reshape(len(C), times.N * d), K, grid)
    return TimeField(grid, times, values.reshape(grid.size, times.N, d))


def riesz(e: HermiteExpansion, j: int, sign: int) -> HermiteExpansion:
    """Riesz transform: coefficient at k moves to k -/+ e_j (sign +/-)
    with the ladder amplitude over sqrt(2|k| + n), the Riesz rows of
    `_spectral_table`."""
    e = _expansion(e, "e")
    targets, C, amp, _, _ = _spectral_table(e, 0.0, ("riesz", j, sign))
    return HermiteExpansion._from_rows(e.n, e.d, targets, amp[:, None] * C)


def inv_sqrt(e: HermiteExpansion, alpha: float = 0.0) -> HermiteExpansion:
    """(L + alpha)^{-1/2}: scale coefficient at k by (2|k|+n+alpha)^{-1/2}."""
    e = _expansion(e, "e")
    modes, C, _, rate, _ = _spectral_table(e, alpha, "poisson")
    return HermiteExpansion._from_rows(e.n, e.d, modes, C / rate[:, None], e.K)


def _maximal_function(
    e: HermiteExpansion, x, kind: str, alpha: float, B: BanachModel, times: TimeGrid
) -> np.ndarray:
    """sup_t ||semigroup(t) f(x)||_B over the time grid at every point of
    x (shape (points,)), with the t -> 0+ candidate ||f(x)||_B included.

    Each time is one product (e^{-t rate} C)^T S of the semigroup rows
    of `_spectral_table` with the Hermite values S at the points; the
    products of a block of times (at most _TIME_BLOCK values) are one
    stacked matmul, so a single point takes all its times at once."""
    if kind not in _KINDS:
        raise ValueError(f"unknown semigroup kind {kind!r}")
    if B.d != e.d:
        raise ValueError("Banach model dimension must match the expansion")
    _, C, _, rate, _ = _spectral_table(e, alpha, kind)
    S = point_synthesis_matrix(e.modes, x)
    sup = B.norm(S.T @ C)
    step = max(1, _TIME_BLOCK // (e.d * S.shape[1]))
    for i in range(0, times.N, step):
        decay = np.exp(-times.nodes[i:i + step, None] * rate)  # (T, rows)
        vals = np.swapaxes(decay[:, :, None] * C, 1, 2) @ S  # (T, d, points)
        sup = np.maximum(sup, B.norm(np.swapaxes(vals, 1, 2)).max(axis=0))
    return sup


def maximal_norm(
    e: HermiteExpansion, x, kind: str, alpha: float, B: BanachModel, times: TimeGrid
) -> float:
    """sup_t ||semigroup(t) f (x)||_B over the time grid, including the
    t -> 0+ candidate ||f(x)||_B, at a single point x: the maximal
    function that `spaces.h1_norm` integrates over a grid."""
    e = _expansion(e, "e")
    return float(_maximal_function(e, _point(x, e.n, "x"), kind, alpha, B, times)[0])


def composed_maximal(
    e: HermiteExpansion, x, alpha: float, inner, B: BanachModel, times: TimeGrid,
    sgrid: TimeGrid | None = None, M: int = 20000, seed: int = 0,
) -> float:
    """sup_s ||gamma-norm of t -> P_s^{L+alpha} (inner f)(x, t)|| with the
    s -> 0+ candidate included; sup taken over sgrid (defaults to times).

    inner is "g", ("ladder", j, sign) or ("riesz", j, sign): the rows of
    `_spectral_table`, whose targets m then decay under P_s^{L+alpha}
    with rate sqrt(2|m| + n + alpha).  The operator at s is
    H diag(e^{-s rate}) P: the values h_m(x) C, the s-factors, and the
    row profiles with the square roots of the time weights folded in.
    All the s-candidates form one (s, d, N) stack, and the result is the
    largest of its `gamma_norms`.  For q = 2 that is the largest
    Frobenius norm of the slices.  Otherwise one stacked
    eigendecomposition of the slice covariances A A^T cuts each to its
    numerical rank (eigenvalues above d max(d, N) eps of the largest).  A
    slice of rank <= 1 (every slice of a one-mode f, and those at large s
    where the faster modes have decayed below the cut) takes its exact
    value ||h||_H ||b||_B, and at q = 1 every slice takes its exact l^1
    value, so such stacks are deterministic and draw nothing.  Only a
    stack with a slice of rank >= 2 at q not in {1, 2} draws: one shared
    draw of M samples from `seed` over the whole stack, with as many
    normals per sample as the largest rank, in blocks of at most 20000
    draws summed over the stack.  A slice of that largest rank gets the
    estimate a standalone `gamma_norm_mc` call with the same seed gives;
    a drawn slice of lower rank reads fewer columns of the shared draw,
    so its estimate has the same law but other draws.  M and seed are
    checked as in `gamma_norm_mc` for every q.
    """
    e = _expansion(e, "e")
    x = _point(x, e.n, "x")
    M, seed = _mc_args(M, seed)
    if isinstance(inner, str) and inner != "g":
        raise ValueError(f"unknown inner transform {inner!r}")
    if B.d != e.d:
        raise ValueError("Banach model dimension must match the expansion")
    sgrid = sgrid or times
    table = _spectral_table(e, alpha, inner)
    targets, C = table[:2]
    _check_shift(targets, alpha)
    if not len(targets):
        return 0.0
    hc = point_synthesis_matrix(targets, x) * C  # (rows, d): h_m(x) C per target mode
    rs = np.sqrt(_eigenvalue(targets.sum(axis=1), e.n, alpha))
    P = _profiles(table, times.nodes) * np.sqrt(times.weights)
    s = np.concatenate(([0.0], sgrid.nodes))
    stack = np.swapaxes(np.exp(-s[:, None] * rs)[:, :, None] * hc, 1, 2) @ P
    est, _ = gamma_norms(stack, B, M=M, seed=seed)
    return float(np.max(est))
