"""Seeded job lists for the three workloads and their cross-route checks.

`build(workload, seed, tiny)` makes every input from the seed with the
benchmark's own generators and hands hermlp only arrays, expansions built
from those arrays, and argv lists.  `Job.prepare()` computes the
references a check needs; it runs before any timing and before tracing is
installed, so `Job.check()` compares numbers and calls no hermlp code.

The reference routes (Hermite recurrence, g-fields, ball sweeps, time
weights) are written here from their definitions, independently of the
package's implementation of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hermlp import basis, cli, gamma, kernels, semigroups, spaces



@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is correct
    prepare: Callable[[], None] = lambda: None
    ref: dict = field(default_factory=dict)


# ---------------------------------------------------------------- references
def hermite_table(kmax: int, x) -> np.ndarray:
    """h_0..h_kmax at x by the plain normalized recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, kmax):
        out[m + 1] = math.sqrt(2.0 / (m + 1)) * x * out[m] - math.sqrt(m / (m + 1.0)) * out[m - 1]
    return out


def trapezoid_axis(R: float, h: float):
    m = int(round(R / h))
    axis = h * np.arange(-m, m + 1)
    w = np.full(axis.size, h)
    w[[0, -1]] *= 0.5
    return axis, w


def log_times(t_min: float, t_max: float, N: int):
    nodes = np.geomspace(t_min, t_max, N)
    w = np.full(N, math.log(t_max / t_min) / (N - 1))
    w[[0, -1]] *= 0.5
    return nodes, w


def lq_norm(v, q: float) -> float:
    v = np.abs(np.asarray(v, dtype=float))
    return float(v.max()) if math.isinf(q) else float(np.sum(v ** q) ** (1.0 / q))


def rho(a: float) -> float:
    return 0.5 if abs(a) < 1.0 else 1.0 / (1.0 + abs(a))


def ball_family(spacing: float, extent: float, depth: int):
    """(center, radius, oscillation) for the BallSpec of these fields."""
    m = int(math.floor(extent / spacing))
    out = []
    for a in spacing * np.arange(-m, m + 1):
        for j in range(depth + 1):
            out.append((float(a), rho(a) * 2.0 ** (-j), True))
            out.append((float(a), rho(a) * 2.0 ** j, False))
    return out


def gfield(coeffs: dict, alpha: float, axis, t) -> np.ndarray:
    """t d/dt P_t f on axis x t for scalar coefficients {k: c}."""
    H = hermite_table(max(coeffs), axis)
    out = np.zeros((axis.size, t.size))
    for k, c in coeffs.items():
        r = math.sqrt(2 * k + 1 + alpha)
        out += c * np.outer(H[k], -t * r * np.exp(-t * r))
    return out


def mehler(x, y, t):
    """Oscillator heat kernel W_t(x, y) from its hyperbolic closed form."""
    return np.exp(-0.25 * ((x - y) ** 2 / np.tanh(t) + (x + y) ** 2 * np.tanh(t))) / np.sqrt(
        2.0 * math.pi * np.sinh(2.0 * t))


def sampled_h1(f, axis, w, tn) -> float:
    """Grid L1 norm of sup_t |W_t f| (t -> 0 candidate |f| included) for
    scalar samples f, by quadrature over the support of f."""
    support = f != 0
    ys, wf = axis[support], w[support] * f[support]
    sup = np.abs(f)
    for t in tn:
        sup = np.maximum(sup, np.abs(mehler(axis[:, None], ys[None, :], t) @ wf))
    return float(w @ sup)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def expansion(coeffs: dict) -> basis.HermiteExpansion:
    """Scalar one-dimensional expansion with coefficients {k: c}."""
    return basis.HermiteExpansion(n=1, d=1, K=max(coeffs),
                                  coeffs={(k,): [c] for k, c in coeffs.items()})


def random_coeffs(rng, kmax: int, lo: int, hi: int) -> dict:
    modes = rng.choice(kmax + 1, size=int(rng.integers(lo, hi + 1)), replace=False)
    return {int(k): float(rng.normal()) for k in sorted(modes)}


def strata(rng, n: int) -> np.ndarray:
    """n uniforms on [0, 1), one per stratum of width 1/n, in seeded order.
    Job sizes drawn this way have the same spread for every seed."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n log-uniform values on [lo, hi], one per stratum, in seeded order."""
    return lo * (hi / lo) ** strata(rng, n)


def cli_json(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    return code, buf.getvalue()


def parse_rows(out) -> list[dict]:
    """CLI JSON rows, read by field name; `runtime` is never compared."""
    code, text = out
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


# --------------------------------------------------------------------- hardy
def _hardy(rng, tiny: bool, tol: dict) -> list[Job]:
    R, h = 12.0, 0.02
    grid = basis.SpatialGrid(R, h)
    axis, w = trapezoid_axis(R, h)
    times = gamma.TimeGrid(1e-3, 20.0, 16)
    tn, tw = log_times(1e-3, 20.0, 16)
    B = gamma.BanachModel(1, 2.0)
    ball_fields = (0.5, 6.0, 3)
    balls = spaces.BallSpec(*ball_fields)
    family = ball_family(*ball_fields)
    counts = dict(dense_h1=3, atom_h1=64, spectral_h1=12, bmo=16, area=8, carleson=8, analyze=8)
    if tiny:
        counts = dict.fromkeys(counts, 1)
    jobs = []

    def dense(coeffs):
        e = expansion(coeffs)
        norm = math.sqrt(sum(c * c for c in coeffs.values()))
        job = Job("dense_h1", None, None)

        def prepare():
            prof = np.sqrt(gfield(coeffs, 0.0, axis, tn) ** 2 @ tw)
            job.ref["h1"] = sampled_h1(prof, axis, w, tn)

        def run():
            fld = semigroups.gfunction(e, 0.0, grid, times)
            prof = np.sqrt(np.einsum("xtc,t->x", fld.values ** 2, times.weights))[:, None]
            return prof, spaces.h1_norm(prof, B, grid, times)

        def check(out):
            prof, h1 = out
            ratio = math.sqrt(float(w @ prof[:, 0] ** 2)) / norm
            if abs(ratio - 0.5) > tol["dense_h1"]["tol"]:
                return f"L2 ratio {ratio!r} != 1/2"
            if rel_err(h1, job.ref["h1"]) > tol["dense_h1"]["h1_tol"]:
                return f"h1 {h1!r} vs own quadrature {job.ref['h1']!r}"
            return None

        job.run, job.prepare, job.check = run, prepare, check
        return job

    def atom(kind, u_center, u_radius):
        x0 = -4.0 + 8.0 * float(u_center)
        r0 = rho(x0) * ((0.25 + 0.25 * float(u_radius)) if kind == "cancel" else 1.0)
        dist = np.abs(axis - x0)
        bump = np.where(dist < r0, (1.0 - (dist / r0) ** 2) ** 2, 0.0)
        f = np.polynomial.polynomial.polyval((axis - x0) / r0, rng.normal(size=4)) * bump
        if kind == "cancel":
            f -= bump * (w @ f) / (w @ bump)
        f *= 0.99 / (2.0 * r0 * np.max(np.abs(f)))
        return spaces.Atom(x0, r0, kind, grid, f[:, None])

    def atom_h1(a):
        job = Job("atom_h1", lambda: spaces.h1_norm(a, B, grid, times), None)

        def prepare():
            job.ref["valid"] = spaces.validate_atom(a)
            job.ref["h1"] = sampled_h1(a.samples[:, 0], axis, w, tn)

        def check(h1):
            ok, why = job.ref["valid"]
            if not ok:
                return f"validate_atom rejects the atom: {why}"
            if rel_err(h1, job.ref["h1"]) > tol["atom_h1"]["tol"]:
                return f"h1 {h1!r} vs own quadrature {job.ref['h1']!r}"
            return None

        job.prepare, job.check = prepare, check
        return job

    mode_h1 = {}  # sampled h1_norm of h_k, by k

    def spectral_h1(k, c):
        e = expansion({k: c})
        job = Job("spectral_h1", lambda: spaces.h1_norm(e, B, grid, times), None)

        def prepare():
            if k not in mode_h1:
                mode_h1[k] = spaces.h1_norm(hermite_table(k, axis)[k][:, None], B, grid, times)

        def check(h1):
            want = abs(c) * mode_h1[k]
            err = rel_err(h1, want)
            return None if err <= tol["spectral_h1"]["tol"] else f"spectral {h1!r} vs sampled {want!r}"

        job.prepare, job.check = prepare, check
        return job

    def bmo(i):
        if i % 2 == 0:
            c = float(rng.uniform(0.2, 5.0))
            f = np.full(axis.size, c)
        else:
            k = int(rng.integers(0, 8))
            a, b, s = rng.normal(size=3)
            f = a + b * hermite_table(k, axis)[k] + np.clip(s * axis, -1.0, 1.0)
        samples = f[:, None]
        job = Job("bmo", lambda: spaces.bmo_norm(samples, B, grid, balls), None)

        def prepare():
            if i % 2 == 0:
                job.ref["want"] = c
                return
            want = 0.0
            for ctr, r, osc in family:
                mask = np.abs(axis - ctr) < r
                if not mask.any():
                    continue
                wm = w[mask] / np.sum(w[mask])
                sub = f[mask]
                val = wm @ np.abs(sub - wm @ sub) if osc else wm @ np.abs(sub)
                want = max(want, float(val))
            job.ref["want"] = want

        def check(got):
            want = job.ref["want"]
            return None if rel_err(got, want) <= tol["bmo"]["tol"] else f"bmo {got!r} vs {want!r}"

        job.prepare, job.check = prepare, check
        return job

    def area_or_carleson(kind):
        coeffs = random_coeffs(rng, 30, 2, 4)
        e = expansion(coeffs)
        x = float(rng.uniform(-3.0, 3.0))
        alpha = float(rng.choice([0.0, 1.0]))
        if kind == "area":
            job = Job(kind, lambda: spaces.area_integral(e, x, alpha, grid, times), None)
        else:
            job = Job(kind, lambda: spaces.carleson_functional(e, x, alpha, balls, grid, times), None)

        def prepare():
            g2 = gfield(coeffs, alpha, axis, tn) ** 2
            if kind == "area":
                cone = np.abs(axis - x)[:, None] < tn[None, :]
                terms = g2 * w[:, None] * (tw / tn)[None, :]
                job.ref["want"] = math.sqrt(float(np.sum(np.where(cone, terms, 0.0))))
                return
            want = 0.0
            for ctr, r, _ in family:
                mask = np.abs(axis - ctr) < r
                if abs(x - ctr) >= r or not mask.any() or not np.any(tn < r):
                    continue
                box = float(np.sum(g2[np.ix_(mask, tn < r)] * w[mask, None] * tw[None, tn < r]))
                want = max(want, math.sqrt(box / float(np.sum(w[mask]))))
            job.ref["want"] = want

        def check(got):
            want = job.ref["want"]
            return None if rel_err(got, want) <= tol[kind]["tol"] else f"{kind} {got!r} vs {want!r}"

        job.prepare, job.check = prepare, check
        return job

    def analyze_job(a):
        K = 30
        job = Job("analyze", lambda: basis.analyze(a.samples, grid, K), None)

        def prepare():
            job.ref["want"] = hermite_table(K, axis) @ (w * a.samples[:, 0])

        def check(e):
            got = np.array([e.coeffs.get((k,), [0.0])[0] for k in range(K + 1)])
            err = float(np.max(np.abs(got - job.ref["want"])))
            return None if err <= tol["analyze"]["tol"] else f"analyze off by {err!r}"

        job.prepare, job.check = prepare, check
        return job

    for _ in range(counts["dense_h1"]):
        jobs.append(dense(random_coeffs(rng, 30, 2, 4)))
    atoms = []
    for kind, n in (("cancel", (counts["atom_h1"] + 1) // 2), ("local", counts["atom_h1"] // 2)):
        # the radius stratum is tied to the centre's (in reverse order), so
        # every seed draws the same spread of supports and of latencies
        centres = strata(rng, n)
        radii = (n - 1 - np.floor(centres * n) + rng.uniform(size=n)) / n
        atoms += [atom(kind, uc, ur) for uc, ur in zip(centres, radii)]
    jobs += [atom_h1(a) for a in atoms]
    modes = rng.choice(13, size=3, replace=False)
    for i in range(counts["spectral_h1"]):
        jobs.append(spectral_h1(int(modes[i % 3]), float(rng.uniform(-3.0, 3.0))))
    jobs += [bmo(i) for i in range(counts["bmo"])]
    jobs += [area_or_carleson("area") for _ in range(counts["area"])]
    jobs += [area_or_carleson("carleson") for _ in range(counts["carleson"])]
    jobs += [analyze_job(atoms[i % len(atoms)]) for i in range(counts["analyze"])]
    return jobs


# --------------------------------------------------------------------- gamma
def _profiles(rng, d: int, t) -> np.ndarray:
    """d random profiles sum_l A_il (t/tau_l)^a_l e^{-t/tau_l}, shape (d, N)."""
    tau = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=d))
    a = rng.uniform(0.5, 2.0, size=d)
    basis_fns = (t[None, :] / tau[:, None]) ** a[:, None] * np.exp(-t[None, :] / tau[:, None])
    return rng.normal(size=(d, d)) @ basis_fns


def _gamma(rng, tiny: bool, tol: dict) -> list[Job]:
    counts = dict(hilbert=20, composed_q2=12, composed_q4=4, mc_rank_one=54,
                  mc_full_q2=6, mc_big=1, cli_gamma=4)
    if tiny:
        counts = dict.fromkeys(counts, 1)
    small = lambda n, lo, hi: [int(round(m)) for m in stratified(rng, n, lo, hi)]  # noqa: E731
    if tiny:
        small = lambda n, lo, hi: [2000] * n  # noqa: E731
    jobs = []

    def mc_check(kind, target_sq):
        def check(out):
            est, err = out
            if abs(est * est - target_sq) > tol[kind]["tol"] * err:
                return f"{est * est!r} vs {target_sq!r} (stderr {err!r})"
            return None
        return check

    def rank_one_job(kind, d, q, N, M):
        tn, tw = log_times(1e-4, 40.0, N)
        times = gamma.TimeGrid(1e-4, 40.0, N)
        prof = _profiles(rng, 1, tn)[0]
        b = rng.normal(size=d)
        T = gamma.rank_one(prof, b, gamma.BanachModel(d, q), times)
        seed = int(rng.integers(2 ** 31))
        target_sq = float(np.sum(prof * prof * tw)) * lq_norm(b, q) ** 2
        return Job(kind, lambda: gamma.gamma_norm_mc(T, M, seed), mc_check(kind, target_sq))

    # (d, q, N) cycle through fixed combinations; M is stratified within
    # each N so that every seed draws the same spread of job sizes
    combos = [(d, q) for q in (1.5, 2.0, 4.0, math.inf) for d in (1, 3, 8)]
    Ns = (64, 128, 256)
    Ms = [small(-(-counts["mc_rank_one"] // 3), 5e3, 1e4) for _ in Ns]
    for i in range(counts["mc_rank_one"]):
        d, q = combos[i % len(combos)]
        jobs.append(rank_one_job("mc_rank_one", d, q, Ns[i % 3], Ms[i % 3][i // 3]))
    for _ in range(counts["mc_big"]):
        jobs.append(rank_one_job("mc_big", 3, 4.0, 128, 2000 if tiny else 200000))

    for i, M in enumerate(small(counts["mc_full_q2"], 5e3, 1.5e4)):
        d = (1, 3, 8)[i % 3]
        tn, tw = log_times(1e-4, 40.0, 256)
        F = _profiles(rng, d, tn)
        T = gamma.DiscreteGammaOperator(gamma.BanachModel(d, 2.0), gamma.TimeGrid(1e-4, 40.0, 256),
                                        F * np.sqrt(tw)[None, :])
        seed = int(rng.integers(2 ** 31))
        jobs.append(Job("mc_full_q2", lambda T=T, M=M, seed=seed: gamma.gamma_norm_mc(T, M, seed),
                        mc_check("mc_full_q2", float(np.sum(F * F * tw[None, :])))))

    for i in range(counts["hilbert"]):
        d, N = (1, 3, 8)[i % 3], (128, 512, 2048)[(i // 3) % 3]
        tn, tw = log_times(1e-4, 40.0, N)
        F = _profiles(rng, d, tn)
        T = gamma.DiscreteGammaOperator(gamma.BanachModel(d, 2.0), gamma.TimeGrid(1e-4, 40.0, N),
                                        F * np.sqrt(tw)[None, :])
        want = math.sqrt(float(np.sum(F * F * tw[None, :])))

        def check(got, want=want):
            return None if rel_err(got, want) <= tol["hilbert"]["tol"] else f"{got!r} vs {want!r}"

        jobs.append(Job("hilbert", lambda T=T: gamma.gamma_norm_hilbert(T), check))

    def composed_q2(coeffs, x, alpha, inner, N):
        e = expansion(coeffs)
        times = gamma.TimeGrid(1e-3, 20.0, N)
        B = gamma.BanachModel(1, 2.0)
        job = Job("composed_q2", lambda: semigroups.composed_maximal(e, x, alpha, inner, B, times, M=2000),
                  None)

        def prepare():
            tn, tw = log_times(1e-3, 20.0, N)
            H = hermite_table(max(coeffs) + 1, np.array([x]))[:, 0]
            terms = []  # (s-rate, h_m(x) c * inner profile) per target mode m
            for k, c in coeffs.items():
                if inner == "g":
                    r = math.sqrt(2 * k + 1 + alpha)
                    terms.append((r, H[k] * c * (-tn * r * np.exp(-tn * r))))
                    continue
                sign = inner[2]
                if sign == +1 and k == 0:
                    continue
                m, amp = (k - 1, math.sqrt(2 * k)) if sign == +1 else (k + 1, -math.sqrt(2 * k + 2))
                prof = tn * amp * np.exp(-tn * math.sqrt(2 * k + 1))
                terms.append((math.sqrt(2 * m + 1 + alpha), H[m] * c * prof))
            job.ref["want"] = max(
                math.sqrt(float(np.sum(sum(math.exp(-s * r) * p for r, p in terms) ** 2 * tw)))
                for s in np.concatenate(([0.0], tn))
            )

        def check(got):
            want = job.ref["want"]
            return None if rel_err(got, want) <= tol["composed_q2"]["tol"] else f"{got!r} vs {want!r}"

        job.prepare, job.check = prepare, check
        return job

    inners = ("g", ("ladder", 1, +1), ("ladder", 1, -1))
    for i in range(counts["composed_q2"]):
        jobs.append(composed_q2(random_coeffs(rng, 20, 2, 4), float(rng.uniform(-2.0, 2.0)),
                                float(rng.choice([0.0, 1.0])), inners[i % 3], int(rng.integers(32, 97))))

    for _ in range(counts["composed_q4"]):
        k = int(rng.integers(0, 12))
        c = rng.normal(size=2)
        e = basis.HermiteExpansion(n=1, d=2, K=k, coeffs={(k,): c})
        x = float(rng.uniform(-2.0, 2.0))
        alpha = float(rng.choice([0.0, 1.0]))
        tn, tw = log_times(1e-3, 20.0, 32)
        times = gamma.TimeGrid(1e-3, 20.0, 32)
        r = math.sqrt(2 * k + 1 + alpha)
        hx = hermite_table(k, np.array([x]))[k, 0]
        target_sq = (lq_norm(hx * c, 4.0) ** 2) * float(np.sum((tn * r * np.exp(-tn * r)) ** 2 * tw))
        M, seed = 2000, int(rng.integers(2 ** 31))
        B = gamma.BanachModel(2, 4.0)

        def check(got, target_sq=target_sq, M=M):
            slack = tol["composed_q4"]["tol"] * math.sqrt(2.0 / M) * target_sq
            return None if abs(got * got - target_sq) <= slack else f"{got * got!r} vs {target_sq!r}"

        jobs.append(Job("composed_q4", lambda e=e, x=x, alpha=alpha, times=times, B=B, M=M, seed=seed:
                        semigroups.composed_maximal(e, x, alpha, "g", B, times, M=M, seed=seed), check))

    tn, tw = log_times(1e-4, 40.0, 512)  # the CLI's default time grid
    prof_sq = float(np.sum((tn * np.exp(-tn)) ** 2 * tw))
    # one job at the top of the M range: the largest draw (M x 512 normals,
    # 82 MB) is then the same for every seed, and so is peak memory
    for i, M in enumerate(small(counts["cli_gamma"] - 1, 5e3, 2e4) + [20000]):
        b = np.round(rng.normal(size=2 + i % 2), 6)
        q = (1.5, 3.0, 4.0)[i % 3]  # `--q inf --format json` crashes in the CLI's emitter
        argv = ["gamma", "--b=" + ",".join(repr(float(v)) for v in b), "--q", repr(q),
                "--M", str(M), "--seed", str(int(rng.integers(2 ** 31)))]
        target_sq = prof_sq * lq_norm(b, q) ** 2

        def check(out, target_sq=target_sq):
            row = parse_rows(out)[0]
            return mc_check("cli_gamma", target_sq)((row["estimate"], row["stderr"]))

        jobs.append(Job("cli_gamma", lambda argv=argv: cli_json(argv), check))
    return jobs


# -------------------------------------------------------------------- verify
def _verify(rng, tiny: bool, tol: dict) -> list[Job]:
    jobs = []

    def suite(argv):
        def check(out):  # tolerance "suite": every row passed
            rows = parse_rows(out)
            bad = [r["name"] for r in rows if r["passed"] is not True]
            return f"failed reports {bad}" if bad or not rows else None
        return Job(f"suite_{argv[1]}", lambda: cli_json(argv), check)

    # p90 (rank 0.9 n) falls mid-way through the eigen K=20 block, about
    # ten samples from the slower suites above and the faster jobs below.
    suites = [["eigen", "--K", "20"]] * 20 + [["eigen", "--K", "60"]] * 2 + [["kernel"], ["envelopes"]]
    suites += [["polarization"]] * 4 + [["equivalence-l2"]] * 4
    suites += [["identities", "--K", str(3 + i % 13), "--seed", str(int(rng.integers(1000)))]
               for i in range(16)]
    if tiny:
        suites = [["eigen", "--K", "20"], ["eigen", "--K", "60"], ["kernel"], ["polarization"],
                  ["identities", "--K", "7", "--seed", "3"], ["envelopes"], ["equivalence-l2"]]
    jobs += [suite(["verify"] + s) for s in suites]

    def point(which):
        x, y = (round(float(v), 6) for v in rng.uniform(-3.0, 3.0, size=2))
        t = round(float(math.exp(rng.uniform(math.log(0.25), math.log(5.0)))), 6)
        alpha = float(rng.choice([0.0, 1.0, 2.0]))
        sign = "+" if rng.uniform() < 0.5 else "-"
        argv = ["kernel", which, f"--x={x!r}", f"--y={y!r}", f"--t={t!r}"]
        if which in ("poisson", "g"):
            argv += ["--alpha", repr(alpha)]
        if which == "ladder":
            argv += ["--j", "1", "--sign", sign]
        job = Job("kernel_heat" if which == "heat" else "kernel_sub", lambda: cli_json(argv), None)

        def prepare():
            if which == "heat":
                job.ref["direct"] = float(kernels.heat_kernel(x, y, t))
                H = hermite_table(300, np.array([x, y]))
                job.ref["spectral"] = float(np.sum(np.exp(-t * (2 * np.arange(301) + 1)) * H[:, 0] * H[:, 1]))
            elif which == "ladder":
                job.ref["direct"] = float(kernels.ladder_kernel(x, y, t, 1, +1 if sign == "+" else -1, 1))
            else:
                fn = kernels.poisson_kernel if which == "poisson" else kernels.g_kernel
                job.ref["direct"] = float(fn(x, y, t, kernels.ShiftedOperator(alpha, 1)))

        def check(out):
            value = parse_rows(out)[0]["value"]
            if value != job.ref["direct"]:
                return f"CLI {value!r} != library {job.ref['direct']!r}"
            if which == "heat" and abs(value - job.ref["spectral"]) > tol["kernel_heat"]["tol"]:
                return f"heat {value!r} vs K=300 sum {job.ref['spectral']!r}"
            return None

        job.prepare, job.check = prepare, check
        return job

    for which in ("heat", "poisson", "g", "ladder"):
        jobs += [point(which) for _ in range(1 if tiny else 16)]

    axis, w = trapezoid_axis(12.0, 0.02)
    def spaces_h1(k):
        job = Job("spaces_h1", lambda: cli_json(["spaces", "h1", "--k", str(k)]), None)

        def prepare():
            job.ref["want"] = float(w @ np.abs(hermite_table(k, axis)[k]))

        def check(out):
            got, want = parse_rows(out)[0]["h1"], job.ref["want"]
            return None if rel_err(got, want) <= tol["spaces_h1"]["tol"] else f"{got!r} vs {want!r}"

        job.prepare, job.check = prepare, check
        return job

    jobs += [spaces_h1(int(rng.integers(0, 31))) for _ in range(1 if tiny else 12)]

    def roundtrip(n, grid, K):
        idx = [k for k in np.ndindex(*(K + 1,) * n) if sum(k) <= K]
        coeffs = {tuple(int(v) for v in k): [float(rng.normal())] for k in idx}
        e = basis.HermiteExpansion(n=n, d=1, K=K, coeffs=coeffs)

        def run():
            samples = basis.synthesize_grid(e, grid)
            return basis.analyze(samples.reshape(grid.shape + (1,)), grid, K)

        def check(back):
            err = max(abs(float(back.coeffs.get(k, [0.0])[0]) - c[0]) for k, c in coeffs.items())
            return None if err <= tol["roundtrip"]["tol"] else f"round trip off by {err!r}"

        return Job("roundtrip", run, check)

    grid1 = basis.SpatialGrid(12.0, 0.02)
    grid2 = basis.SpatialGrid(8.4, 0.05, 2)
    jobs += [roundtrip(1, grid1, 30) for _ in range(1 if tiny else 10)]
    jobs += [roundtrip(2, grid2, 8) for _ in range(1 if tiny else 6)]
    return jobs


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's job list for `seed`, in a seeded order."""
    builders = {"hardy": _hardy, "gamma": _gamma, "verify": _verify}
    tol = json.loads((Path(__file__).parent / "tolerances.json").read_text())[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    jobs = builders[workload](rng, tiny, tol)
    return [jobs[i] for i in rng.permutation(len(jobs))]
