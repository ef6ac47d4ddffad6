"""Span tracing of hermlp from outside the package.

`Tracer.install()` replaces every public function of the hermlp modules
with a wrapper that records one span per call: name, start, end, parent
span and job id.  The replacement is made in every hermlp namespace that
holds the function, including names one module imports from another
(`hermlp.spaces.heat_kernel`, `hermlp.verify.poisson_kernel`, ...), so
cross-module calls get spans of their own.  Spans stay in memory until
`write()`.

Work counters are computed from call arguments and results after the
wrapped call returns, so their cost falls in the parent span, not in the
layer being counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np
from workloads import ball_family

LAYERS = ("basis", "kernels", "gamma", "semigroups", "spaces", "verify", "cli")

HEAT = {"heat_kernel", "heat_kernel_one", "heat_one_dt"}
SUBORDINATED = {"poisson_kernel", "g_kernel", "ladder_kernel", "g_of_one"}
SYNTHESIS = {"synthesize", "synthesize_grid", "point_synthesis_matrix"}
CHECKS = {
    "check_eigen_ladder", "check_kernel_vs_spectral", "check_polarization",
    "check_operator_identities", "kernel_bound_ratio", "equivalence_suite",
}
DEFAULT_Q = 64  # SubordinationRule() default node count


def _argument_getter(fn):
    """arg(args, kwargs, name): the value a call passed for `name`."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}

    def arg(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = index[name]
        return args[i] if i < len(args) else params[i].default

    return arg


def _ball_family(balls):
    """(center, radius) pairs of a BallSpec, rebuilt from its fields so
    that counting runs no hermlp code."""
    return [(a, r) for a, r, _ in ball_family(balls.spacing, balls.extent, balls.depth)]


def _points_within(grid, a, r) -> bool:
    pts = grid.points
    dist = np.abs(pts - a) if grid.n == 1 else np.linalg.norm(pts - a, axis=-1)
    return bool(np.any(dist < r))


class Tracer:
    """In-memory span recorder plus work counters (all computed)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.stack = []
        self.job = -1
        self.counts = defaultdict(float)
        self._restore = []

    # -- installation -------------------------------------------------
    def install(self, modules):
        """Wrap the public functions of `modules` (name -> module) and
        rebind every hermlp attribute that refers to one of them."""
        originals = {}
        for layer, mod in modules.items():
            if layer == "hermlp":
                continue
            names = set(getattr(mod, "__all__", ()))
            # names other hermlp modules import from this one
            for other in modules.values():
                if other is mod:
                    continue
                for attr, val in vars(other).items():
                    if inspect.isfunction(val) and val.__module__ == mod.__name__:
                        names.add(attr)
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(layer, fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        arg = _argument_getter(fn)
        count = getattr(self, f"_count_{layer}")
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            parent_layer = spans[parent][0].split(".")[0] if parent >= 0 else ""
            count(fn.__name__, lambda n: arg(args, kwargs, n), result,
                  rec[2] - rec[1], parent_layer)
            return result

        return wrapper

    # -- counters, one per layer -------------------------------------
    def _count_basis(self, fn, arg, result, dt, parent_layer):
        c = self.counts
        if fn == "analyze":
            c["basis.analyze_s"] += dt
        elif fn in SYNTHESIS and parent_layer != "basis":
            c["basis.synthesize_s"] += dt
        if fn == "eval_table":
            c["basis.eval_points"] += np.size(result)
        elif fn == "hermite_eval":
            k = arg("k")
            k = (int(k),) if np.isscalar(k) else tuple(int(v) for v in k)
            c["basis.eval_points"] += (sum(k) + len(k)) * np.size(result)

    def _count_kernels(self, fn, arg, result, dt, parent_layer):
        c = self.counts
        size = np.size(result)
        c["kernels.bytes_computed"] += 8 * size
        if parent_layer == "kernels":
            return
        c["kernels.entries"] += size
        if fn in HEAT:
            c["kernels.heat_s"] += dt
        elif fn in SUBORDINATED:
            c["kernels.subordinated_s"] += dt
            rule = arg("rule")
            c["kernels.sub_nodes"] += size * (rule.Q if rule is not None else DEFAULT_Q)

    def _count_gamma(self, fn, arg, result, dt, parent_layer):
        if fn != "gamma_norm_mc":
            return
        c = self.counts
        T = arg("T")
        M = int(arg("M"))
        c["gamma.mc_s"] += dt
        c["gamma.mc_draws"] += M * T.times.N
        c["gamma.rank_draws"] += M * int(np.linalg.matrix_rank(T.matrix))

    def _count_semigroups(self, fn, arg, result, dt, parent_layer):
        c = self.counts
        if fn in ("gfunction", "ladder_transform"):
            e = arg("e")
            grid = arg("grid")
            times = arg("times")
            c["semigroups.field_entries"] += grid.size * times.N * len(e.coeffs)
        elif fn == "composed_maximal":
            times = arg("times")
            sgrid = arg("sgrid") or times
            c["semigroups.composed_s"] += dt
            c["semigroups.composed_outer"] += sgrid.N + 1

    def _count_spaces(self, fn, arg, result, dt, parent_layer):
        c = self.counts
        if fn == "h1_norm":
            f = arg("f")
            if type(f).__name__ == "HermiteExpansion":
                c["spaces.h1_spectral_s"] += dt
                return
            c["spaces.h1_sampled_s"] += dt
            samples = f.samples if type(f).__name__ == "Atom" else np.atleast_2d(f)
            c["spaces.support_points"] += int(np.count_nonzero(np.any(samples != 0, axis=1)))
            c["spaces.sampled_points"] += samples.shape[0]
        elif fn == "bmo_norm":
            c["spaces.bmo_s"] += dt
            grid = arg("grid")
            family = _ball_family(arg("balls"))
            c["spaces.balls"] += len(family)
            c["spaces.balls_used"] += sum(_points_within(grid, a, r) for a, r in family)
        elif fn == "carleson_functional":
            grid = arg("grid")
            times = arg("times")
            x = float(np.asarray(arg("x")).reshape(-1)[0])
            family = _ball_family(arg("balls"))
            c["spaces.balls"] += len(family)
            c["spaces.balls_used"] += sum(
                abs(x - a) < r and times.nodes[0] < r and _points_within(grid, a, r)
                for a, r in family
            )

    def _count_verify(self, fn, arg, result, dt, parent_layer):
        if fn in CHECKS:
            self.counts["verify.checks"] += 1
            self.counts["verify.checks_failed"] += 0 if result.passed else 1

    def _count_cli(self, fn, arg, result, dt, parent_layer):
        if fn == "main" and result != 0:
            self.counts["cli.exit_nonzero"] += 1

    # -- reduction ----------------------------------------------------
    def layer_metrics(self, passes: int) -> dict:
        """Per-layer totals divided by the number of traced passes."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            layer = name.split(".")[0]
            calls[layer] += 1
            busy[layer] += end - start
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            busy[name.split(".")[0]] -= inner
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = busy[layer]
        for key in (
            "basis.analyze_s", "basis.synthesize_s", "basis.eval_points",
            "kernels.heat_s", "kernels.subordinated_s", "kernels.entries",
            "kernels.sub_nodes", "kernels.bytes_computed",
            "gamma.mc_s", "gamma.mc_draws",
            "semigroups.field_entries", "semigroups.composed_s",
            "semigroups.composed_outer",
            "spaces.h1_sampled_s", "spaces.h1_spectral_s", "spaces.bmo_s",
            "spaces.balls", "verify.checks", "verify.checks_failed",
            "cli.exit_nonzero",
        ):
            out[key] = c[key]
        out = {k: v / passes for k, v in out.items()}
        out["gamma.draw_rank_ratio"] = _ratio(c["gamma.rank_draws"], c["gamma.mc_draws"])
        out["spaces.balls_used_ratio"] = _ratio(c["spaces.balls_used"], c["spaces.balls"])
        out["spaces.support_ratio"] = _ratio(c["spaces.support_points"], c["spaces.sampled_points"])
        return out

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
