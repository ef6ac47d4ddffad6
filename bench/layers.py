"""Timings of one group of hermlp layers for two source trees, written as
one JSON record.

    python3 bench/layers.py GROUP --before OLD/src --after NEW/src [--out FILE]

GROUP is one of
  hardy     the `hardy` estimators: sampled `h1_norm` (also on a time
            grid no earlier call used), `area_integral`, `bmo_norm` (also
            of a d = 3 vector at l^1.5) and `carleson_functional` (the
            last two also on a lattice axis no earlier call used), and
            `kernels.heat_apply` itself on an atom (also at the 80 nodes of a
            t-free heat bank) and on a dense input, and a sampled `h1_norm`
            of 17 time blocks on a plane;
  verify    the verification layers that subordinated kernels, Hermite
            tables and the CLI's argv parsing dominate, and one argv of
            each shape the `verify` benchmark workload runs;
  spectral  the spectral semigroup layer: spectral `h1_norm`,
            `maximal_norm` and `composed_maximal`;
  basis     the readers of the expansion's coefficient arrays: `analyze`,
            a 2-D round trip, `gfunction` and spectral `h1_norm` (`analyze`
            and `gfunction` also on a lattice axis no earlier call used);
  tables    the warm and cold `bmo_norm`, `carleson_functional`, `analyze`
            and `gfunction` cases of `hardy` and `basis`: what the shared
            Hermite tables and ball intervals save;
  fields    the spectral fields and their synthesis: `gfunction` and
            `ladder_transform` on the lattice of `verify identities` and on
            the `hardy` lattice, `check_operator_identities` at three
            caps, and `synthesize_grid` of sparse and dense modes on a line
            and of every mode |k| <= 8 on a plane;
  gamma     gamma norms: `gamma_norm_mc` on rank-one (one with a zero
            target entry, two at M = 2: a call's fixed cost) and
            full-rank operators (two of them the benchmark's full-rank
            q = 2 shapes), `composed_maximal` at q = 4, 2 and 1 (a
            rank-three l^1 stack), and `gamma_norm_hilbert`.

Both trees are imported into one child process, each under its own
package name (`hermlp_before`, `hermlp_after`), so that the two are timed
in the same process, heap and host state; `--before` and `--after` may
name the same tree, which gives an A/A record whose ratios show the
noise.  The child pins BLAS to one thread and fixes glibc's malloc
thresholds: otherwise a case that frees large temporaries raises the
mmap threshold for the cases after it, which then reuse heap pages
instead of faulting in fresh ones, and a change to an earlier case moves
the times of later ones.  Each case gets one warm-up call per tree, then
ROUNDS rounds of one call per tree, alternating which tree goes first,
so a drift in the host's speed falls on both trees alike; the record
gives each tree's minimum and median over the rounds and their ratios,
and the median of the per-round ratios (before / after, both trees timed
in the same round) with a bootstrap 95 % interval: the 2.5 and 97.5
percentiles of that median over BOOTSTRAP resamples of the rounds.
Timing separate processes per tree did not resolve microsecond cases on
a shared 2-core host: one unchanged case read 0.59x-0.71x over four
records.  The record keeps both computed values and their relative
difference, so a speed-up can be read next to what it changed.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
import zlib

ROUNDS = 100
BOOTSTRAP = 2000
MODULES = ("basis", "kernels", "gamma", "semigroups", "spaces", "verify", "cli")

HARDY = "SpatialGrid(12, 0.02): 1201 points"
COLD = ("SpatialGrid(12, 0.02 (1 + 1e-9 i)) built fresh for call i: 1201 points on an axis "
        "that no earlier call used")
ENVELOPE_KINDS = ("heat", "poisson", "g", "gH", "ladder", "gradient")
POINT_ARGV = ["kernel", "poisson", "--x", "0.5", "--y", "-0.25", "--t", "1.3",
              "--alpha", "2"]
INNERS = {"g": "g", "ladder": ("ladder", 1, +1), "riesz": ("riesz", 1, -1)}
# one argv of each shape the `verify` workload runs through the CLI, spelled as it spells them
POINT = ["--x=0.5", "--y=-0.25", "--t=1.3"]
ARGV_MIX = [["kernel", "heat", *POINT], ["kernel", "poisson", *POINT, "--alpha", "2.0"],
            ["kernel", "g", *POINT, "--alpha", "1.0"],
            ["kernel", "ladder", *POINT, "--j", "1", "--sign", "-"],
            ["verify", "eigen", "--K", "20"], ["verify", "identities", "--K", "7", "--seed", "3"],
            ["spaces", "h1", "--k", "3"]]


def cold(h, grid, fresh):
    """`grid` with its step scaled by 1 + 1e-9 i for call i, i drawn from
    the counter `fresh`: a line of the same size whose axis no earlier
    call used, so nothing derived from the axis (Hermite tables, ball
    intervals) can be reused.  Each tree has its own counter, so round i
    of a case runs on the same axis in both trees."""
    return h.basis.SpatialGrid(grid.R, grid.h * (1.0 + 1e-9 * next(fresh)))


def hardy_calls(h):
    """name -> zero-argument call returning the case's value, for the
    hermlp package `h`."""
    import numpy as np

    basis, gamma, kernels, semigroups, spaces = h.basis, h.gamma, h.kernels, h.semigroups, h.spaces

    fresh = itertools.count(1)
    times = gamma.TimeGrid(1e-3, 20.0, 16)
    B = gamma.BanachModel(1, 2.0)
    grid = basis.SpatialGrid(12.0, 0.02)
    balls = spaces.BallSpec(0.5, 6.0, 3)
    rng = np.random.default_rng(7)
    atom = spaces.make_random_atom(rng, grid, "cancel")

    ks = rng.choice(31, size=5, replace=False)
    e = basis.HermiteExpansion(1, 1, int(max(ks)), {(int(k),): [float(rng.normal())] for k in ks})
    fld = semigroups.gfunction(e, 0.0, grid, times)
    profile = np.sqrt(np.einsum("xtc,t->x", fld.values ** 2, times.weights))[:, None]

    plane = basis.SpatialGrid(6.0, 0.1, 2)
    r2 = np.sum((plane.points - [0.5, -0.3]) ** 2, axis=-1)
    bump = np.where(r2 < 0.36, (1.0 - r2 / 0.36) ** 2, 0.0)[:, None]

    fine = basis.SpatialGrid(6.0, 0.05, 2)
    x = fine.axis
    separable = np.multiply.outer(np.exp(-((x - 1.0) ** 2)) * np.sin(2.0 * x),
                                  np.exp(-2.0 * (x + 0.5) ** 2)).reshape(fine.size, 1)

    x = grid.axis
    a, b, s = rng.normal(size=3)
    h5 = np.asarray(basis.hermite_eval(5, x))
    clip = np.clip(s * x, -1.0, 1.0)
    mixed = (a + b * h5 + clip)[:, None]
    vector = np.stack([mixed[:, 0], h5, clip], axis=1)
    B3 = gamma.BanachModel(3, 1.5)
    ones = np.ones((grid.size, 1))

    ks = rng.choice(31, size=3, replace=False)
    c = basis.HermiteExpansion(1, 1, int(max(ks)), {(int(k),): [float(rng.normal())] for k in ks})
    # centred within |x0| < 1, where rho = 1/2: a ball of about 50 points
    local = spaces.make_random_atom(rng, grid, "local", center_range=1.0)

    def atom_cold():
        # a time grid that no earlier call used: heat_apply cannot reuse
        # anything it derived from the lattice and the times
        t_max = 20.0 * (1.0 + 1e-9 * next(fresh))
        return spaces.h1_norm(atom, B, grid, gamma.TimeGrid(1e-3, t_max, 16))

    def heat(samples, nodes=times.nodes):
        # heat_apply on the trapezoid-weighted samples, as h1_norm calls it;
        # the value is the sum of |W_t f| over the times and the lattice
        wf = grid.weights[:, None] * samples
        return lambda: float(np.sum(np.abs(kernels.heat_apply(wf, grid.axis, nodes))))

    # the 80 nodes of a t-free heat bank: ln s from ln 1e-12 in steps of 0.4,
    # up to ln 60; the 37 below about 2.6e-6 have stencils of width 0
    bank = np.exp(math.log(1e-12) + 0.4 * np.arange(80))
    blocks_17 = gamma.TimeGrid(1e-3, 20.0, 17)

    return {
        "h1_atom_hardy": lambda: spaces.h1_norm(atom, B, grid, times),
        "h1_atom_cold_times": atom_cold,
        "h1_atom_local": lambda: spaces.h1_norm(local, B, grid, times),
        "h1_dense_profile": lambda: spaces.h1_norm(profile, B, grid, times),
        "h1_plane_bump": lambda: spaces.h1_norm(bump, B, plane, times),
        "h1_plane_separable": lambda: spaces.h1_norm(separable, B, fine, times),
        "bmo_constant": lambda: spaces.bmo_norm(ones, B, grid, balls),
        "bmo_mixed": lambda: spaces.bmo_norm(mixed, B, grid, balls),
        "bmo_vector": lambda: spaces.bmo_norm(vector, B3, grid, balls),
        "bmo_mixed_cold_axis": lambda: spaces.bmo_norm(mixed, B, cold(h, grid, fresh), balls),
        "area": lambda: spaces.area_integral(c, 0.7, 1.0, grid, times),
        "carleson": lambda: spaces.carleson_functional(c, 0.7, 1.0, balls, grid, times),
        "carleson_cold_axis": lambda: spaces.carleson_functional(c, 0.7, 1.0, balls,
                                                                 cold(h, grid, fresh), times),
        "heat_atom": heat(atom.samples),
        "heat_dense": heat(profile),
        "heat_bank_80": heat(atom.samples, bank),
        "h1_plane_blocks_17": lambda: spaces.h1_norm(separable, B, fine, blocks_17),
    }


def verify_calls(h):
    import numpy as np

    cli, kernels, verify = h.cli, h.kernels, h.verify
    xs, ts = np.linspace(-4.0, 4.0, 65), np.geomspace(0.1, 2.0, 6)
    op = kernels.ShiftedOperator(2.0, 1)
    out = {f"envelope_{kind}": lambda kind=kind: verify.kernel_bound_ratio(kind, xs, ts).computed
           for kind in ENVELOPE_KINDS}

    def stdout(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        return buf.getvalue().splitlines()

    def point():
        return float(stdout(POINT_ARGV)[1].split(",")[-1])

    def envelopes():
        return sum(float(row.split(",")[1]) for row in stdout(["verify", "envelopes"])[1:])

    def argv_mix():
        text = "".join("\n".join(stdout(argv + ["--format", "json"])) for argv in ARGV_MIX)
        return zlib.crc32(text.encode())

    out.update({
        "envelopes_all": envelopes,
        "kernel_vs_spectral": lambda: verify.check_kernel_vs_spectral(
            [0.1, 1.0, 5.0], [0.0, 2.0]).computed,
        "eigen_ladder_K20": lambda: verify.check_eigen_ladder(20).computed,
        "eigen_ladder_K60": lambda: verify.check_eigen_ladder(60).computed,
        "cli_point_query": point,
        "cli_argv_mix": argv_mix,
        "g_of_one": lambda: float(np.sum(kernels.g_of_one(xs, ts, op))),
    })
    return out


def spectral_calls(h):
    import numpy as np

    basis, gamma, semigroups, spaces = h.basis, h.gamma, h.semigroups, h.spaces

    rng = np.random.default_rng(11)

    def modes(count, kmax, d=1):
        ks = rng.choice(kmax + 1, size=count, replace=False)
        return basis.HermiteExpansion(1, d, int(max(ks)),
                                      {(int(k),): rng.normal(size=d) for k in ks})

    grid = basis.SpatialGrid(12.0, 0.02)
    times = gamma.TimeGrid(1e-3, 20.0, 16)
    B = gamma.BanachModel(1, 2.0)
    one, five = modes(1, 30), modes(5, 30)
    out = {
        "h1_spectral_mode": lambda: spaces.h1_norm(one, B, grid, times),
        "h1_spectral_5modes": lambda: spaces.h1_norm(five, B, grid, times, "poisson", 1.0),
        "maximal_norm_N16": lambda: semigroups.maximal_norm(five, 0.7, "poisson", 0.0, B, times),
        "maximal_norm_N512": lambda: semigroups.maximal_norm(five, 0.7, "heat", 0.0, B,
                                                             gamma.TimeGrid()),
    }
    for name, inner in INNERS.items():
        e = modes(4, 20)
        out[f"composed_q2_{name}"] = lambda e=e, inner=inner: semigroups.composed_maximal(
            e, 0.4, 1.0, inner, B, gamma.TimeGrid(1e-3, 20.0, 64), M=2000)
    e4, B4 = modes(1, 11, d=2), gamma.BanachModel(2, 4.0)
    out["composed_q4_g"] = lambda: semigroups.composed_maximal(
        e4, -0.6, 0.0, "g", B4, gamma.TimeGrid(1e-3, 20.0, 32), M=2000, seed=5)
    return out


def basis_calls(h):
    import numpy as np

    basis, gamma, semigroups, spaces = h.basis, h.gamma, h.semigroups, h.spaces

    fresh = itertools.count(1)
    rng = np.random.default_rng(13)
    line = basis.default_grid(1, 30)
    e30 = basis.HermiteExpansion(1, 1, 30, {(k,): rng.normal(size=1) for k in range(31)})
    samples = basis.synthesize_grid(e30, line)[:, 0]

    plane = basis.SpatialGrid(8.25, 0.055, 2)  # the coarsest lattice analyze takes at K = 8
    ks = [k for k in np.ndindex(9, 9) if sum(k) <= 8]
    e8 = basis.HermiteExpansion(2, 1, 8, {k: rng.normal(size=1) for k in ks})

    grid = basis.SpatialGrid(12.0, 0.02)
    times = gamma.TimeGrid(1e-3, 20.0, 16)
    modes = rng.choice(31, size=5, replace=False)
    five = basis.HermiteExpansion(1, 1, int(max(modes)),
                                  {(int(k),): rng.normal(size=1) for k in modes})
    one = basis.HermiteExpansion.single(int(rng.integers(31)))

    def round_trip():
        values = basis.synthesize_grid(e8, plane).reshape(plane.shape)
        return basis.analyze(values, plane, 8).l2_norm()

    return {
        "analyze_K30": lambda: basis.analyze(samples, line, 30).l2_norm(),
        "analyze_K30_cold_axis": lambda: basis.analyze(samples, cold(h, line, fresh),
                                                       30).l2_norm(),
        "round_trip_2d_K8": round_trip,
        "gfunction_5modes": lambda: float(np.sum(
            semigroups.gfunction(five, 0.0, grid, times).values ** 2)),
        "gfunction_5modes_cold_axis": lambda: float(np.sum(
            semigroups.gfunction(five, 0.0, cold(h, grid, fresh), times).values ** 2)),
        "h1_spectral_mode": lambda: spaces.h1_norm(one, gamma.BanachModel(1, 2.0), grid, times),
    }


def fields_calls(h):
    import numpy as np

    basis, gamma, semigroups, verify = h.basis, h.gamma, h.semigroups, h.verify

    rng = np.random.default_rng(19)
    small, small_times = basis.SpatialGrid(6.0, 0.25), gamma.TimeGrid(0.1, 5.0, 12)
    e9 = basis.HermiteExpansion(1, 1, 9, {(k,): [float(rng.normal())] for k in range(10)})
    grid, times = basis.SpatialGrid(12.0, 0.02), gamma.TimeGrid(1e-3, 20.0, 16)
    ks = rng.choice(31, size=4, replace=False)
    e4 = basis.HermiteExpansion(1, 1, int(max(ks)), {(int(k),): [float(rng.normal())] for k in ks})
    e30 = basis.HermiteExpansion(1, 1, 30, {(k,): [float(rng.normal())] for k in range(31)})
    plane = basis.SpatialGrid(8.4, 0.05, 2)
    e8 = basis.HermiteExpansion(2, 1, 8, {k: [float(rng.normal())] for k in np.ndindex(9, 9)
                                          if sum(k) <= 8})

    def squares(field):
        return float(np.sum(field.values ** 2))

    out = {
        "gfunction_identities_K9": lambda: squares(semigroups.gfunction(e9, 2.0, small,
                                                                        small_times)),
        "ladder_identities_K9": lambda: squares(semigroups.ladder_transform(e9, 1, +1, small,
                                                                            small_times)),
        "gfunction_hardy_4modes": lambda: squares(semigroups.gfunction(e4, 1.0, grid, times)),
        "ladder_hardy_4modes": lambda: squares(semigroups.ladder_transform(e4, 1, -1, grid,
                                                                           times)),
    }
    for K in (3, 9, 15):
        out[f"identities_K{K}"] = lambda K=K: verify.check_operator_identities(K, 3).computed
    out.update({
        "synthesize_line_4modes": lambda: float(np.sum(basis.synthesize_grid(e4, grid) ** 2)),
        "synthesize_line_K30": lambda: float(np.sum(basis.synthesize_grid(e30, grid) ** 2)),
        "synthesize_plane_K8": lambda: float(np.sum(basis.synthesize_grid(e8, plane) ** 2)),
    })
    return out


def gamma_calls(h):
    import numpy as np

    basis, gamma, semigroups = h.basis, h.gamma, h.semigroups

    rng = np.random.default_rng(17)
    times = gamma.TimeGrid()
    prof = times.nodes * np.exp(-times.nodes)
    r8 = gamma.rank_one(prof, rng.normal(size=8), gamma.BanachModel(8, 1.5), times)
    r3 = gamma.rank_one(prof, rng.normal(size=3), gamma.BanachModel(3, 4.0), times)
    full = gamma.DiscreteGammaOperator(gamma.BanachModel(3, 4.0), times,
                                       rng.normal(size=(3, times.N)) * np.exp(-times.nodes))

    def modes(count, kmax, d):
        ks = rng.choice(kmax + 1, size=count, replace=False)
        return basis.HermiteExpansion(1, d, int(max(ks)),
                                      {(int(k),): rng.normal(size=d) for k in ks})

    one, three, four = modes(1, 11, 2), modes(3, 11, 2), modes(4, 20, 1)
    t128 = gamma.TimeGrid(1e-4, 40.0, 128)
    r8_128 = gamma.rank_one(t128.nodes * np.exp(-t128.nodes), rng.normal(size=8),
                            gamma.BanachModel(8, 1.5), t128)
    b03 = gamma.rank_one(prof, [0.0, 3.0], gamma.BanachModel(2, 4.0), times)
    s32 = gamma.TimeGrid(1e-3, 20.0, 32)
    B4 = gamma.BanachModel(2, 4.0)
    t2048 = gamma.TimeGrid(1e-4, 40.0, 2048)
    wide = gamma.DiscreteGammaOperator(gamma.BanachModel(8, 2.0), t2048,
                                       rng.normal(size=(8, 2048)) * np.exp(-t2048.nodes))
    r3_128 = gamma.rank_one(t128.nodes * np.exp(-t128.nodes), rng.normal(size=3),
                            gamma.BanachModel(3, 1.5), t128)
    t256 = gamma.TimeGrid(1e-4, 40.0, 256)
    full3, full8 = (gamma.DiscreteGammaOperator(gamma.BanachModel(d, 2.0), t256,
                                                rng.normal(size=(d, 256)) * np.exp(-t256.nodes))
                    for d in (3, 8))
    three_d3 = modes(3, 11, 3)
    r1_128 = gamma.rank_one(t128.nodes * np.exp(-t128.nodes), rng.normal(size=1),
                            gamma.BanachModel(1, 1.5), t128)
    return {
        "mc_rank_one_d8_q1.5": lambda: gamma.gamma_norm_mc(r8, 20000, 3)[0],
        "mc_rank_one_d3_q4_M2e5": lambda: gamma.gamma_norm_mc(r3, 200000, 4)[0],
        "mc_full_rank_d3_q4": lambda: gamma.gamma_norm_mc(full, 20000, 5)[0],
        "mc_rank_one_d8_N128_M7500": lambda: gamma.gamma_norm_mc(r8_128, 7500, 8)[0],
        "mc_rank_one_b03_q4": lambda: gamma.gamma_norm_mc(b03, 20000, 9)[0],
        "mc_fixed_cost_d1_N128_M2": lambda: gamma.gamma_norm_mc(r1_128, 2, 10)[0],
        "mc_fixed_cost_d3_N128_M2": lambda: gamma.gamma_norm_mc(r3_128, 2, 10)[0],
        "mc_rank_one_d3_N128_M7500": lambda: gamma.gamma_norm_mc(r3_128, 7500, 10)[0],
        "composed_q4_one_mode": lambda: semigroups.composed_maximal(
            one, -0.6, 0.0, "g", B4, s32, M=2000, seed=6),
        "composed_q4_3modes": lambda: semigroups.composed_maximal(
            three, 0.4, 1.0, "g", B4, s32, M=2000, seed=7),
        "composed_q1_3modes_d3": lambda: semigroups.composed_maximal(
            three_d3, 0.4, 1.0, "g", gamma.BanachModel(3, 1.0), s32, M=2000, seed=7),
        "composed_q2": lambda: semigroups.composed_maximal(
            four, 0.4, 1.0, "g", gamma.BanachModel(1, 2.0), gamma.TimeGrid(1e-3, 20.0, 64),
            M=2000),
        "hilbert_d8_N2048": lambda: gamma.gamma_norm_hilbert(wide),
        "mc_full_q2_d3_M1e4": lambda: gamma.gamma_norm_mc(full3, 10000, 11)[0],
        "mc_full_q2_d8_M15e3": lambda: gamma.gamma_norm_mc(full8, 15000, 12)[0],
    }


GROUPS = {
    "hardy": (
        "spaces.h1_norm (sampled path), spaces.area_integral, spaces.bmo_norm, "
        "spaces.carleson_functional, kernels.heat_apply",
        hardy_calls,
        {
            "h1_atom_hardy": f"h1_norm of a cancel atom, d = 1, l^2, on {HARDY}, 16 times",
            "h1_atom_cold_times": f"the same h1_norm on {HARDY} with a TimeGrid(1e-3, "
                                  "20 (1 + 1e-9 i), 16) built fresh for call i, so no call "
                                  "sees times an earlier call used",
            "h1_atom_local": f"h1_norm of a local atom of radius rho(x0) = 1/2, |x0| < 1, "
                             f"d = 1, l^2, on {HARDY}, 16 times: about 50 points of "
                             "support, the widest atom of the benchmark",
            "h1_dense_profile": "h1_norm of the g-field profile of 5 random modes, l^2, on "
                                f"{HARDY}, full support, 16 times",
            "h1_plane_bump": "h1_norm of an n = 2 bump of radius 0.6, l^2, on "
                             "SpatialGrid(6, 0.1, 2): 14641 points, 16 times",
            "h1_plane_separable": "h1_norm of an n = 2 separable f1 (x) f2, l^2, on "
                                  "SpatialGrid(6, 0.05, 2): 58081 points, full support, "
                                  "16 times",
            "bmo_constant": f"bmo_norm of the function 1, l^2, on {HARDY}, "
                            "BallSpec(0.5, 6, 3): 200 balls",
            "bmo_mixed": f"bmo_norm of a + b h_5 + clip(s x, -1, 1), l^2, on {HARDY}, "
                         "BallSpec(0.5, 6, 3)",
            "bmo_vector": "bmo_norm of (a + b h_5 + clip(s x, -1, 1), h_5, clip(s x, -1, 1)), "
                          f"d = 3, l^1.5, on {HARDY}, BallSpec(0.5, 6, 3)",
            "area": "area_integral at x = 0.7 of 3 random modes (K <= 30), alpha = 1, on "
                    f"{HARDY}, 16 times, g-field computed in the call",
            "carleson": "carleson_functional at x = 0.7 of the same 3 modes, "
                        f"alpha = 1, on {HARDY}, 16 times, BallSpec(0.5, 6, 3), g-field "
                        "computed in the call",
            "bmo_mixed_cold_axis": f"bmo_mixed on {COLD}",
            "carleson_cold_axis": f"carleson on {COLD}",
            "heat_atom": f"heat_apply of the h1_atom_hardy atom, trapezoid-weighted, on {HARDY}, "
                         "the 16 times of TimeGrid(1e-3, 20, 16) in one call; the value is "
                         "the sum of |W_t f|",
            "heat_dense": "heat_apply of the h1_dense_profile profile, trapezoid-weighted, on "
                          f"{HARDY}, full support, the same 16 times in one call; the value is "
                          "the sum of |W_t f|",
            "heat_bank_80": "heat_apply of the h1_atom_hardy atom, trapezoid-weighted, on "
                            f"{HARDY}, the 80 times e^(ln 1e-12 + 0.4 i), i < 80, of a t-free "
                            "heat bank in one call (37 of them below 2.6e-6, where the stencil "
                            "has width 0); the value is the sum of |W_t f|",
            "h1_plane_blocks_17": "h1_norm of the h1_plane_separable input on "
                                  "SpatialGrid(6, 0.05, 2) with TimeGrid(1e-3, 20, 17): 17 "
                                  "blocks of one time each, more than the 16 plans the lattice "
                                  "plan cache keeps",
        },
    ),
    "verify": (
        "verification suites: subordinated kernels, Hermite tables, CLI argv parsing",
        verify_calls,
        {
            **{f"envelope_{kind}": f"kernel_bound_ratio({kind!r}, linspace(-4, 4, 65), "
                                   "geomspace(0.1, 2, 6)), as in `hermlp verify envelopes`"
               for kind in ENVELOPE_KINDS},
            "kernel_vs_spectral": "check_kernel_vs_spectral([0.1, 1, 5], [0, 2]), "
                                  "as in `hermlp verify kernel`",
            "eigen_ladder_K20": "check_eigen_ladder(20)",
            "eigen_ladder_K60": "check_eigen_ladder(60)",
            "cli_point_query": "cli.main(" + repr(POINT_ARGV) + ") in process, stdout captured",
            "cli_argv_mix": "cli.main(argv + ['--format', 'json']) in process, stdout "
                            "captured, for each of " + repr(ARGV_MIX) + "; the value is the "
                            "CRC-32 of the seven outputs, so a changed byte shows as a nonzero "
                            "rel_diff",
            "g_of_one": "g_of_one(linspace(-4, 4, 65), geomspace(0.1, 2, 6), ShiftedOperator(2, 1)): "
                        "the envelope lattice's 33 distinct |x|^2; the value is the sum of the "
                        "6 x 65 entries",
            "envelopes_all": "cli.main(['verify', 'envelopes']) in process, stdout captured: "
                             "the six kinds as `hermlp verify envelopes` runs them; the value "
                             "is the sum of the six computed sups",
        },
    ),
    "spectral": (
        "semigroups spectral table: spectral spaces.h1_norm, maximal_norm, composed_maximal",
        spectral_calls,
        {
            "h1_spectral_mode": f"spectral h1_norm of one random mode (K <= 30), heat, l^2, "
                                f"on {HARDY}, 16 times",
            "h1_spectral_5modes": f"spectral h1_norm of 5 random modes (K <= 30), poisson, "
                                  f"alpha = 1, l^2, on {HARDY}, 16 times",
            "maximal_norm_N16": "maximal_norm at x = 0.7 of the same 5 modes, poisson, l^2, "
                                "TimeGrid(1e-3, 20, 16)",
            "maximal_norm_N512": "maximal_norm at x = 0.7 of the same 5 modes, heat, l^2, "
                                 "TimeGrid(): 512 times",
            **{f"composed_q2_{name}": f"composed_maximal at x = 0.4, inner {inner!r}, 4 random "
                                      "modes (K <= 20), alpha = 1, l^2, TimeGrid(1e-3, 20, 64), "
                                      "65 s-candidates"
               for name, inner in INNERS.items()},
            "composed_q4_g": "composed_maximal at x = -0.6, inner 'g', one random mode "
                             "(K <= 11), d = 2, l^4, TimeGrid(1e-3, 20, 32), M = 2000, seed 5",
        },
    ),
    "basis": (
        "HermiteExpansion coefficient arrays: analyze, synthesize_grid, gfunction, "
        "spectral h1_norm",
        basis_calls,
        {
            "analyze_K30": "analyze onto K = 30 of 31 random modes sampled on "
                           "default_grid(1, 30): 4727 points",
            "round_trip_2d_K8": "synthesize_grid then analyze of the 45 modes |k| <= 8 on "
                                "SpatialGrid(8.25, 0.055, 2): 301 x 301 points",
            "gfunction_5modes": f"gfunction of 5 random modes (K <= 30), alpha = 0, on {HARDY}, "
                                "16 times, summed squares",
            "analyze_K30_cold_axis": "analyze_K30 on default_grid(1, 30) with its step scaled "
                                     "by 1 + 1e-9 i for call i, so no call sees an axis an "
                                     "earlier call used",
            "gfunction_5modes_cold_axis": f"gfunction_5modes on {COLD}",
            "h1_spectral_mode": f"spectral h1_norm of one random mode (K <= 30), heat, l^2, "
                                f"on {HARDY}, 16 times",
        },
    ),
    "fields": (
        "spectral fields: semigroups.gfunction, semigroups.ladder_transform, "
        "verify.check_operator_identities, basis.synthesize_grid",
        fields_calls,
        {
            "gfunction_identities_K9": "gfunction, alpha = 2, of random coefficients on the modes "
                                       "0..9 on SpatialGrid(6, 0.25): 49 points, "
                                       "TimeGrid(0.1, 5, 12), as `verify identities` samples "
                                       "it; the value is the sum of squares",
            "ladder_identities_K9": "ladder_transform (j = 1, +) of the same expansion on the "
                                    "same lattice and times",
            "gfunction_hardy_4modes": f"gfunction, alpha = 1, of 4 random modes (K <= 30) on "
                                      f"{HARDY}, 16 times, as `hardy`'s area and carleson "
                                      "jobs compute it",
            "ladder_hardy_4modes": f"ladder_transform (j = 1, -) of the same 4 modes on {HARDY}, "
                                   "16 times",
            **{f"identities_K{K}": f"check_operator_identities({K}, seed 3), as "
                                   f"`hermlp verify identities --K {K}` runs it; the value is "
                                   "its computed discrepancy"
               for K in (3, 9, 15)},
            "synthesize_line_4modes": f"synthesize_grid of the same 4 modes on {HARDY}",
            "synthesize_line_K30": f"synthesize_grid of random coefficients on every mode 0..30 "
                                   f"on {HARDY}: the `verify` workload's line round trip",
            "synthesize_plane_K8": "synthesize_grid of random coefficients on the 45 modes "
                                   "|k| <= 8 on SpatialGrid(8.4, 0.05, 2): 337 x 337 points, "
                                   "the `verify` workload's plane round trip",
        },
    ),
    "gamma": (
        "gamma.gamma_norm_mc, semigroups.composed_maximal (exact routes, Monte Carlo and q = 2), "
        "gamma.gamma_norm_hilbert",
        gamma_calls,
        {
            "mc_rank_one_d8_q1.5": "gamma_norm_mc of a rank-one operator t e^{-t} (x) b, b random "
                                   "in R^8, l^1.5, TimeGrid(): 512 times, M = 20000, seed 3",
            "mc_rank_one_d3_q4_M2e5": "gamma_norm_mc of a rank-one operator t e^{-t} (x) b, b "
                                      "random in R^3, l^4, TimeGrid(), M = 200000, seed 4",
            "mc_full_rank_d3_q4": "gamma_norm_mc of a random 3 x 512 operator with columns "
                                  "decaying like e^{-t}, l^4, TimeGrid(), M = 20000, seed 5",
            "mc_rank_one_d8_N128_M7500": "gamma_norm_mc of a rank-one operator t e^{-t} (x) b, "
                                         "b random in R^8, l^1.5, TimeGrid(1e-4, 40, 128), "
                                         "M = 7500, seed 8: the benchmark's mc_rank_one shape",
            "mc_rank_one_b03_q4": "gamma_norm_mc of the rank-one operator t e^{-t} (x) (0, 3), "
                                  "l^4, TimeGrid(), M = 20000, seed 9: a zero first target "
                                  "entry, as in `hermlp gamma --b 0,3`",
            "mc_fixed_cost_d1_N128_M2": "gamma_norm_mc of a rank-one operator t e^{-t} (x) b, b "
                                        "random in R^1, l^1.5, TimeGrid(1e-4, 40, 128), M = 2, "
                                        "seed 10: a call's fixed cost at d = 1",
            "mc_fixed_cost_d3_N128_M2": "gamma_norm_mc of a rank-one operator t e^{-t} (x) b, b "
                                        "random in R^3, l^1.5, TimeGrid(1e-4, 40, 128), M = 2, "
                                        "seed 10: a call's fixed cost, its draw two normals",
            "mc_rank_one_d3_N128_M7500": "the same operator at M = 7500, seed 10: the median "
                                         "mc_rank_one job of the benchmark",
            "composed_q4_one_mode": "composed_maximal at x = -0.6, inner 'g', one random mode "
                                    "(K <= 11), d = 2, l^4, TimeGrid(1e-3, 20, 32): 33 "
                                    "s-candidates of rank one, M = 2000, seed 6",
            "composed_q4_3modes": "composed_maximal at x = 0.4, inner 'g', 3 random modes "
                                  "(K <= 11), d = 2, alpha = 1, l^4, TimeGrid(1e-3, 20, 32), "
                                  "M = 2000, seed 7",
            "composed_q1_3modes_d3": "composed_maximal at x = 0.4, inner 'g', 3 random modes "
                                     "(K <= 11), d = 3, alpha = 1, l^1, TimeGrid(1e-3, 20, "
                                     "32): 33 s-candidates of rank up to 3, M = 2000, seed 7",
            "composed_q2": "composed_maximal at x = 0.4, inner 'g', 4 random modes (K <= 20), "
                           "alpha = 1, l^2, TimeGrid(1e-3, 20, 64): 65 s-candidates",
            "hilbert_d8_N2048": "gamma_norm_hilbert of a random 8 x 2048 operator with columns "
                                "decaying like e^{-t}, TimeGrid(1e-4, 40, 2048): the "
                                "benchmark's largest hilbert job",
            "mc_full_q2_d3_M1e4": "gamma_norm_mc of a random 3 x 256 operator with columns "
                                  "decaying like e^{-t}, l^2, TimeGrid(1e-4, 40, 256), "
                                  "M = 10000, seed 11: the benchmark's mc_full_q2 shape at d = 3",
            "mc_full_q2_d8_M15e3": "the same at d = 8, M = 15000, seed 12: the benchmark's "
                                   "largest mc_full_q2 shape",
        },
    ),
}


# the cases of `hardy` and `basis` that read lattice-only tables, warm and cold
TABLE_CASES = {
    "hardy": ("bmo_mixed", "bmo_mixed_cold_axis", "carleson", "carleson_cold_axis"),
    "basis": ("analyze_K30", "analyze_K30_cold_axis", "gfunction_5modes",
              "gfunction_5modes_cold_axis"),
}


def tables_calls(h):
    calls = {**hardy_calls(h), **basis_calls(h)}
    return {name: calls[name] for names in TABLE_CASES.values() for name in names}


GROUPS["tables"] = (
    "basis Hermite tables and spaces ball intervals, read warm and on a fresh lattice axis: "
    "spaces.bmo_norm, spaces.carleson_functional, basis.analyze, semigroups.gfunction",
    tables_calls,
    {name: GROUPS[group][2][name] for group, names in TABLE_CASES.items() for name in names},
)


def load(src, name):
    """The hermlp package under `src`, imported as the package `name` with
    every module, so that two trees live side by side in one process."""
    init = os.path.join(os.path.abspath(src), "hermlp", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return package


def child(group, before, after):
    """Times every case of `group` in both trees, one call per tree per
    round, and prints per tree and case the first value and the times."""
    calls = {side: GROUPS[group][1](load(src, f"hermlp_{side}"))
             for side, src in (("before", before), ("after", after))}
    out = {side: {} for side in calls}
    for name in calls["before"]:
        fns = {side: calls[side][name] for side in calls}
        seconds = {side: [] for side in calls}
        values = {side: float(fn()) for side, fn in fns.items()}  # the warm-up call
        for i in range(ROUNDS):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                start = time.perf_counter()
                fns[side]()
                seconds[side].append(time.perf_counter() - start)
        for side in calls:
            out[side][name] = {"seconds": seconds[side], "value": values[side]}
    json.dump(out, sys.stdout)


def run_child(group, before, after):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_=str(2 ** 25), MALLOC_TRIM_THRESHOLD_=str(2 ** 30))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), group, "--child",
                           "--before", os.path.abspath(before), "--after", os.path.abspath(after)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("group", choices=sorted(GROUPS))
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--out")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    if args.child:
        child(args.group, args.before, args.after)
        return
    import numpy

    layer, _, inputs = GROUPS[args.group]
    runs = run_child(args.group, args.before, args.after)
    resample = numpy.random.default_rng(0).integers(0, ROUNDS, size=(BOOTSTRAP, ROUNDS))
    cases = {}
    for name, what in inputs.items():
        b, a = runs["before"][name], runs["after"][name]
        before, after = numpy.array(b["seconds"]), numpy.array(a["seconds"])
        ratios = before / after  # round i timed both trees back to back
        medians = numpy.median(ratios[resample], axis=1)
        scale = abs(b["value"]) or 1.0
        cases[name] = {
            "input": what,
            "before_s": before.min(), "after_s": after.min(),
            "before_median_s": numpy.median(before), "after_median_s": numpy.median(after),
            "speedup": before.min() / after.min(),
            "median_speedup": numpy.median(before) / numpy.median(after),
            "paired_speedup": numpy.median(ratios),
            "paired_speedup_ci95": numpy.percentile(medians, [2.5, 97.5]).tolist(),
            "before_value": b["value"], "after_value": a["value"],
            "rel_diff": abs(a["value"] - b["value"]) / scale,
        }

    record = {
        "layer": layer,
        "a_a": os.path.realpath(args.before) == os.path.realpath(args.after),
        "timing": f"both trees imported in one process, each under its own package name; per "
                  f"case one warm-up call, then {ROUNDS} rounds of one call per tree, "
                  "alternating which tree goes first; min and median over the rounds, and "
                  f"the median per-round ratio with a bootstrap 95 % interval ({BOOTSTRAP} "
                  "resamples of the rounds); BLAS "
                  "pinned to 1 thread, glibc malloc mmap and trim thresholds fixed",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "cases": cases,
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
