"""Exact spectral calculus on Hermite expansions: heat/Poisson semigroups,
the square function t d/dt P_t, ladder and Riesz transforms, negative
powers, and maximal operators.

Everything here acts on coefficients, so these operators are the
ground truth against which the quadrature kernels are checked.  Mode k
of the shifted oscillator L + alpha has eigenvalue 2|k| + n + alpha;
shifts with alpha <= -n are accepted only when every stored mode keeps
a strictly positive eigenvalue (needed for alpha = -2 in low
dimensions), and rejected otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    HermiteExpansion,
    SpatialGrid,
    point_synthesis_matrix,
    shift_index,
    synthesize,
    synthesize_grid,
    total_degree,
)
from .gamma import BanachModel, DiscreteGammaOperator, TimeGrid, gamma_norm

__all__ = [
    "TimeField",
    "apply_semigroup",
    "gfunction",
    "gfunction_l2_sq",
    "ladder_transform",
    "riesz",
    "inv_sqrt",
    "coordinate_invsqrt",
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


def _check_shift(e: HermiteExpansion, alpha: float):
    """alpha > -n always works; otherwise every stored mode must keep a
    positive eigenvalue (e.g. alpha = -2 with modes of degree >= 1)."""
    if alpha > -e.n:
        return
    if e.coeffs and e.min_eigenvalue(alpha) > 0:
        return
    raise ValueError(
        f"shift alpha={alpha} gives non-positive eigenvalues for n={e.n}"
    )


def apply_semigroup(
    e: HermiteExpansion, kind: str, t: float, alpha: float = 0.0
) -> HermiteExpansion:
    """Multiply each coefficient by the semigroup symbol e^{-t lambda}
    (heat) or e^{-t sqrt(lambda)} (poisson), lambda = 2|k| + n + alpha."""
    if kind not in ("heat", "poisson"):
        raise ValueError(f"unknown semigroup kind {kind!r}")
    if t < 0:
        raise ValueError("time must be nonnegative")
    _check_shift(e, alpha)
    if kind == "heat":
        return e.map_coeffs(lambda k, c: math.exp(-t * e.eigenvalue(k, alpha)) * c)
    return e.map_coeffs(
        lambda k, c: math.exp(-t * math.sqrt(e.eigenvalue(k, alpha))) * c
    )


def gfunction(
    e: HermiteExpansion, alpha: float, grid: SpatialGrid, times: TimeGrid
) -> TimeField:
    """t d/dt P_t^{L+alpha} f sampled on grid x times: mode k carries the
    profile -t sqrt(lambda) e^{-t sqrt(lambda)}."""
    return _field(_inner_terms(e, alpha, "g"), e, grid, times)


def gfunction_l2_sq(e: HermiteExpansion, alpha: float) -> float:
    """Exact squared L^2(dx; H) norm of the square function: each mode
    contributes |c_k|^2 int_0^inf (t sqrt(lam) e^{-t sqrt(lam)})^2 dt/t,
    and that integral is 1/4 for every eigenvalue."""
    _check_shift(e, alpha)
    return 0.25 * e.l2_norm_sq()


def ladder_transform(
    e: HermiteExpansion, j: int, sign: int, grid: SpatialGrid, times: TimeGrid
) -> TimeField:
    """t (d/dx_j +/- x_j) P_t^L f sampled on grid x times.

    Mode k moves to k -/+ e_j with amplitude sqrt(2 k_j) (raising) or
    -sqrt(2 k_j + 2) (lowering) and keeps the Poisson factor of the
    source eigenvalue 2|k| + n.
    """
    return _field(_inner_terms(e, 0.0, ("ladder", j, sign)), e, grid, times)


def _field(terms, e: HermiteExpansion, grid: SpatialGrid, times: TimeGrid) -> TimeField:
    """sum of h_m(x) prof(t) c over the (m, prof, c) terms, on grid x times.

    The terms are packed into one expansion with N*d components, mode m
    carrying outer(prof(t), c), so a single synthesize_grid call makes
    the whole field.
    """
    coeffs = {m: np.outer(prof(times.nodes), c).ravel() for m, prof, c in terms}
    K = max((total_degree(m) for m in coeffs), default=0)
    packed = HermiteExpansion(n=e.n, d=times.N * e.d, K=K, coeffs=coeffs)
    values = synthesize_grid(packed, grid).reshape(grid.size, times.N, e.d)
    return TimeField(grid, times, values)


def riesz(e: HermiteExpansion, j: int, sign: int) -> HermiteExpansion:
    """Riesz transform: coefficient at k moves to k - e_j with factor
    sqrt(2 k_j / (2|k|+n)) (sign +) or to k + e_j with factor
    -sqrt((2 k_j + 2)/(2|k|+n)) (sign -)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= j <= e.n:
        raise ValueError(f"coordinate j={j} out of range for n={e.n}")
    coeffs: dict = {}
    for k, c in e.coeffs.items():
        lam = e.eigenvalue(k, 0.0)
        if sign == +1:
            if k[j - 1] == 0:
                continue
            m = shift_index(k, j, -1)
            factor = math.sqrt(2 * k[j - 1] / lam)
        else:
            m = shift_index(k, j, +1)
            factor = -math.sqrt((2 * k[j - 1] + 2) / lam)
        coeffs[m] = coeffs.get(m, 0.0) + factor * c
    K = max((total_degree(m) for m in coeffs), default=0)
    return HermiteExpansion(n=e.n, d=e.d, K=K, coeffs=coeffs)


def inv_sqrt(e: HermiteExpansion, alpha: float = 0.0) -> HermiteExpansion:
    """(L + alpha)^{-1/2}: scale coefficient at k by (2|k|+n+alpha)^{-1/2}."""
    _check_shift(e, alpha)
    return e.map_coeffs(lambda k, c: c / math.sqrt(e.eigenvalue(k, alpha)))


def coordinate_invsqrt(e: HermiteExpansion, j: int, grid: SpatialGrid) -> np.ndarray:
    """x_j L^{-1/2} f sampled on the grid; shape (grid.size, d)."""
    if not 1 <= j <= e.n:
        raise ValueError(f"coordinate j={j} out of range for n={e.n}")
    vals = synthesize_grid(inv_sqrt(e, 0.0), grid)
    pts = grid.points
    xj = pts if e.n == 1 else pts[:, j - 1]
    return xj[:, None] * vals


def maximal_norm(
    e: HermiteExpansion,
    x,
    kind: str,
    alpha: float,
    B: BanachModel,
    times: TimeGrid,
) -> float:
    """sup_t ||semigroup(t) f (x)||_B over the time grid, including the
    t -> 0+ candidate ||f(x)||_B."""
    if kind not in ("heat", "poisson"):
        raise ValueError(f"unknown semigroup kind {kind!r}")
    _check_shift(e, alpha)
    if B.d != e.d:
        raise ValueError("Banach model dimension must match the expansion")
    S, C, ks = point_synthesis_matrix(e, x)
    if S.shape[1] != 1:
        raise ValueError("maximal_norm takes a single point x")
    if not ks:
        return 0.0
    hvals = S[:, 0]
    lam = np.array([e.eigenvalue(k, alpha) for k in ks])
    rate = lam if kind == "heat" else np.sqrt(lam)
    factors = np.exp(-times.nodes[:, None] * rate[None, :])  # (N, nk)
    vals = (factors * hvals[None, :]) @ C  # (N, d)
    best = float(np.max(B.norm(vals)))
    limit = float(B.norm(synthesize(e, x)))
    return max(best, limit)


def _inner_terms(e: HermiteExpansion, alpha: float, inner):
    """(target index, t-profile function of a t-array, coefficient) per
    stored mode.

    inner is "g" or a tuple ("ladder"|"riesz", j, sign).  A ladder term
    moves mode k to k -/+ e_j with amplitude sqrt(2 k_j) (raising) or
    -sqrt(2 k_j + 2) (lowering) and keeps the Poisson factor of the
    unshifted source eigenvalue.  The s-factor of `composed_maximal`
    always comes from P_s^{L+alpha} acting on the target mode.
    """
    terms = []
    if inner == "g":
        _check_shift(e, alpha)
        for k, c in e.coeffs.items():
            r = math.sqrt(e.eigenvalue(k, alpha))
            terms.append((k, lambda t, r=r: -t * r * np.exp(-t * r), c))
        return terms
    name, j, sign = inner
    if name == "ladder":
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 1 <= j <= e.n:
            raise ValueError(f"coordinate j={j} out of range for n={e.n}")
        for k, c in e.coeffs.items():
            kj = k[j - 1]
            if sign == +1 and kj == 0:
                continue
            amp = math.sqrt(2 * kj) if sign == +1 else -math.sqrt(2 * kj + 2)
            r = math.sqrt(e.eigenvalue(k, 0.0))
            terms.append(
                (shift_index(k, j, -sign), lambda t, a=amp, r=r: t * a * np.exp(-t * r), c)
            )
        return terms
    if name == "riesz":
        re = riesz(e, j, sign)
        for m, c in re.coeffs.items():
            # Poisson factor of the source mode: 2|m| + n -/+ 2 + 2 = source
            lam = re.eigenvalue(m, 0.0) + 2 * sign
            r = math.sqrt(lam)
            terms.append((m, lambda t, r=r: np.exp(-t * r), c))
        return terms
    raise ValueError(f"unknown inner transform {name!r}")


def composed_maximal(
    e: HermiteExpansion,
    x,
    alpha: float,
    inner,
    B: BanachModel,
    times: TimeGrid,
    sgrid: TimeGrid | None = None,
    M: int = 20000,
    seed: int = 0,
) -> float:
    """sup_s ||gamma-norm of t -> P_s^{L+alpha} (inner f)(x, t)|| with the
    s -> 0+ candidate included; sup taken over sgrid (defaults to times)."""
    if B.d != e.d:
        raise ValueError("Banach model dimension must match the expansion")
    sgrid = sgrid or times
    terms = _inner_terms(e, alpha, inner)
    if not terms:
        return 0.0
    # target-mode eigenvalues under the outer shifted operator
    svals = []
    profs = []
    for m, prof, c in terms:
        lam_s = 2.0 * total_degree(m) + e.n + alpha
        if lam_s <= 0:
            raise ValueError(
                f"shift alpha={alpha} gives non-positive eigenvalue on mode {m}"
            )
        svals.append(math.sqrt(lam_s))
        profs.append(prof(times.nodes))
    K = max(total_degree(m) for m, _, _ in terms)
    targets = HermiteExpansion(e.n, e.d, K, {m: c for m, _, c in terms})
    S, C, _ = point_synthesis_matrix(targets, x)
    if S.shape[1] != 1:
        raise ValueError("composed_maximal takes a single point x")
    hvals = S[:, :1] * C  # (terms, d): h_m(x) c per target mode
    best = 0.0
    sw = np.sqrt(times.weights)
    for s in np.concatenate(([0.0], sgrid.nodes)):
        matrix = np.zeros((B.d, times.N))
        for rs, prof, hc in zip(svals, profs, hvals):
            matrix += hc[:, None] * (math.exp(-s * rs) * prof)[None, :] * sw[None, :]
        T = DiscreteGammaOperator(B, times, matrix)
        est, _ = gamma_norm(T, M=M, seed=seed)
        best = max(best, est)
    return best
