"""Command-line front door: configuration parsing, dispatch to the
computation modules, and CSV/JSON emission of values and check reports.

Exit codes: 0 on success (all checks passed), 1 when a verification
check fails, 2 on usage or configuration errors, 3 when a computation
fails unexpectedly (any other exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from .basis import HermiteExpansion, SpatialGrid, as_index, hermite_eval
from .gamma import BanachModel, TimeGrid, gamma_norm_mc, rank_one
from .kernels import (
    ShiftedOperator,
    SubordinationRule,
    g_kernel,
    heat_kernel,
    heat_kernel_one,
    ladder_kernel,
    poisson_kernel,
)
from .semigroups import apply_semigroup
from .spaces import critical_radius, h1_norm
from .verify import (
    _envelope_reports,
    check_eigen_ladder,
    check_kernel_vs_spectral,
    check_operator_identities,
    check_polarization,
    equivalence_suite,
)

__all__ = ["RunConfig", "main"]


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """Run-wide numeric configuration shared by the subcommands."""

    n: int = 1
    K: int = 20
    q: float = 2.0
    R: float = 12.0
    h: float = 0.02
    tmin: float = 1e-4
    tmax: float = 40.0
    N: int = 512
    Q: int = 64
    M: int = 200000
    seed: int = 0

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        flat = {}
        for key, value in raw.items():
            if key in _TOP_LEVEL:
                flat[key] = value
            elif key in _GROUPS:
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key!r} must be an object")
                for sub, subval in value.items():
                    if sub not in _GROUPS[key]:
                        raise ConfigError(f"unknown config key {key}.{sub}")
                    flat[sub] = subval
            else:
                raise ConfigError(f"unknown config key {key!r}")
        cfg = cls(**flat)
        cfg.validate()
        return cfg

    def validate(self):
        # counts must be integers and reals finite (q may be inf: l^inf);
        # a config file can hold 1000.5 or 1e400, which JSON reads as inf
        for f in _FIELDS:
            value = getattr(self, f.name)
            if type(f.default) is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{f.name}={value!r} must be an integer")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{f.name}={value!r} must be a number")
            else:
                try:  # an integer too long for a float overflows
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"{f.name} is out of range") from None
                if f.name != "q" and not math.isfinite(value):
                    raise ConfigError(f"{f.name}={value!r} must be finite")
        if self.n < 1 or self.K < 0:
            raise ConfigError("n must be >= 1 and K >= 0")
        if not self.q >= 1:  # NaN fails every comparison
            raise ConfigError(f"exponent q={self.q} must be >= 1")
        if self.R <= 0 or self.h <= 0:
            raise ConfigError("grid.R and grid.h must be positive")
        if not (0 < self.tmin < self.tmax) or self.N < 2:
            raise ConfigError("time grid needs 0 < tmin < tmax and N >= 2")
        if self.Q < 2 or self.M < 2 or self.seed < 0:
            raise ConfigError("quad.Q and mc.M must be >= 2 and seed >= 0")

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.R, self.h, self.n)

    def times(self) -> TimeGrid:
        return TimeGrid(self.tmin, self.tmax, self.N)

    def rule(self) -> SubordinationRule:
        return SubordinationRule(self.Q)


# config-file sections; every other RunConfig field is a top-level key
_GROUPS = {"grid": {"R", "h"}, "time": {"tmin", "tmax", "N"}, "quad": {"Q"}, "mc": {"M"}}
_FIELDS = dataclasses.fields(RunConfig)
_TOP_LEVEL = {f.name for f in _FIELDS} - set().union(*_GROUPS.values())


def _real(v) -> str:
    return f"{float(v):.17g}"


def _json_real(v):
    """A real for JSON output: a number with 17 significant digits when
    finite, else the string the CSV form prints ("inf", "-inf", "nan"),
    so the output stays strict JSON."""
    return json.loads(_real(v)) if math.isfinite(v) else _real(v)


def _emit(rows, fmt: str, out):
    """rows: list of dicts with scalar values; reals get 17 significant
    digits in both formats."""
    if fmt == "csv":
        if rows:
            fields = list(rows[0])
            writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {k: _real(v) if isinstance(v, float) else v for k, v in row.items()}
                )
    else:
        clean = [
            {k: _json_real(v) if isinstance(v, float) else v for k, v in r.items()}
            for r in rows
        ]
        json.dump(clean, out, indent=2)
        out.write("\n")


def _parse_index(text: str):
    return as_index(tuple(int(p) for p in text.split(",")))


def _parse_point(text: str, n: int):
    parts = [float(p) for p in text.split(",")]
    if not all(math.isfinite(p) for p in parts):
        raise ConfigError(f"point {text!r} is not finite")
    if n == 1 and len(parts) == 1:
        return parts[0]
    if len(parts) != n:
        raise ConfigError(f"point {text!r} does not have {n} coordinates")
    return np.array(parts)


def cmd_basis(args, cfg):
    k = _parse_index(args.k)
    rows = []
    for tok in args.x.split(";"):
        x = _parse_point(tok, len(k))
        rows.append({"k": args.k, "x": tok, "value": float(hermite_eval(k, x))})
    return rows, 0


def cmd_kernel(args, cfg):
    x = _parse_point(args.x, cfg.n)
    t = args.t
    if not math.isfinite(t):
        raise ConfigError(f"time {t} is not finite")
    rule = cfg.rule()
    if args.which == "heat-one":
        return [{"x": args.x, "t": t, "value": float(heat_kernel_one(x, t, cfg.n))}], 0
    y = _parse_point(args.y, cfg.n)
    if args.which == "heat":
        value = float(heat_kernel(x, y, t, cfg.n))
    elif args.which == "poisson":
        value = float(poisson_kernel(x, y, t, ShiftedOperator(args.alpha, cfg.n), rule))
    elif args.which == "g":
        value = float(g_kernel(x, y, t, ShiftedOperator(args.alpha, cfg.n), rule))
    else:
        sign = +1 if args.sign == "+" else -1
        value = float(ladder_kernel(x, y, t, args.j, sign, cfg.n, rule))
    return [{"x": args.x, "y": args.y, "t": t, "value": value}], 0


def cmd_semigroup(args, cfg):
    mode = HermiteExpansion.single(_parse_index(args.k))
    factor = float(apply_semigroup(mode, args.kind, args.t, args.alpha).C[0, 0])
    return [{"kind": args.kind, "k": args.k, "t": args.t, "alpha": args.alpha,
             "factor": factor}], 0


def cmd_gamma(args, cfg):
    times = cfg.times()
    b = np.array([float(p) for p in args.b.split(",")])
    B = BanachModel(b.size, cfg.q)
    prof = times.nodes * np.exp(-times.nodes)
    T = rank_one(prof, b, B, times)
    est, err = gamma_norm_mc(T, cfg.M, cfg.seed)
    return [{"q": cfg.q, "estimate": est, "stderr": err}], 0


def cmd_spaces(args, cfg):
    if args.which == "rho":
        x = np.reshape(_parse_point(args.x, cfg.n), (1, cfg.n))
        return [{"x": args.x, "rho": critical_radius(x).item()}], 0
    k = _parse_index(args.k)
    value = h1_norm(
        HermiteExpansion.single(k),
        BanachModel(1, cfg.q),
        cfg.grid(),
        TimeGrid(cfg.tmin, cfg.tmax, min(cfg.N, 48)),
    )
    return [{"k": args.k, "h1": value}], 0


def _verify_reports(name: str, cfg: RunConfig):
    reports = []
    if name in ("eigen", "all"):
        reports.append(check_eigen_ladder(cfg.K))
    if name in ("kernel", "all"):
        reports.append(check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0]))
    if name in ("polarization", "all"):
        e0 = HermiteExpansion.single(0)
        reports.append(check_polarization(e0, e0))
    if name in ("identities", "all"):
        reports.append(check_operator_identities(min(cfg.K, 15), seed=cfg.seed))
    if name in ("envelopes", "all"):
        xs = np.linspace(-4.0, 4.0, 65)
        ts = np.geomspace(0.1, 2.0, 6)
        reports += _envelope_reports(("heat", "poisson", "g", "gH", "ladder", "gradient"), xs, ts)
    if name in ("equivalence-l2", "all"):
        fam = [
            HermiteExpansion.single(0),
            HermiteExpansion.single(3),
            HermiteExpansion(n=1, d=1, K=5, coeffs={(0,): [1.0], (5,): [2.0]}),
        ]
        reports.append(equivalence_suite("L2", fam, BanachModel(1, 2.0)))
    if not reports:
        raise ConfigError(f"unknown verification suite {name!r}")
    return reports


def cmd_verify(args, cfg):
    reports = _verify_reports(args.which, cfg)
    rows = []
    failed = False
    for r in reports:
        row = r.row()
        if isinstance(row["computed"], dict):
            row["computed"] = json.dumps(
                {k: _json_real(v) for k, v in row["computed"].items()}
            )
        if not isinstance(row["expected"], (int, float)):
            row["expected"] = str(row["expected"])
        failed = failed or not r.passed
        rows.append(row)
    return rows, (1 if failed else 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a point query.  Callers
    share the one instance and must not modify it."""
    parser = argparse.ArgumentParser(
        prog="hermlp",
        description=(
            "Oscillator semigroups, square functions, gamma norms and "
            "Hardy/BMO estimators at desk scale."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (RunConfig schema)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, about, fields):
        # fields: the config fields the subcommand reads, or a mode -> fields
        # table.  No abbreviations: --h would be read as --help where h is
        # not a flag
        p = sub.add_parser(name, parents=[common], help=about, description=about,
                           allow_abbrev=False)
        modes = fields if isinstance(fields, dict) else {}
        names = " ".join(modes.values()) if modes else fields
        for field in dict.fromkeys(names.split()):  # each once, in table order
            p.add_argument(f"--{field}", type=type(getattr(RunConfig, field)),
                           default=argparse.SUPPRESS, help=f"override config field {field}")
        if modes:  # the positional mode, and the fields each mode reads
            p.add_argument("which", choices=tuple(modes))
            p.set_defaults(reads={m: set(f.split()) for m, f in modes.items()})
        return p

    p = add("basis", "evaluate orthonormal oscillator eigenfunctions", "")
    p.add_argument("--k", required=True, help="multi-index, comma separated")
    p.add_argument("--x", required=True, help="points, ';' separated")
    p.set_defaults(fn=cmd_basis)

    p = add("kernel", "evaluate heat/Poisson/g/ladder kernels",
            {"heat": "n", "heat-one": "n", "poisson": "n Q", "g": "n Q", "ladder": "n Q"})
    p.add_argument("--x", required=True)
    p.add_argument("--y", default="0")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.set_defaults(fn=cmd_kernel)

    p = add("semigroup", "spectral semigroup factor on one mode", "")
    p.add_argument("--kind", choices=("heat", "poisson"), default="poisson")
    p.add_argument("--k", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(fn=cmd_semigroup)

    p = add("gamma", "rank-one gamma-norm Monte Carlo estimate", "q tmin tmax N M seed")
    p.add_argument("--b", required=True, help="target vector, comma separated")
    p.set_defaults(fn=cmd_gamma)

    p = add("spaces",
            "critical radius and H1 norms (h1 uses min(N, 48) time nodes)",
            {"rho": "n", "h1": "n q R h tmin tmax N"})
    p.add_argument("--x", default="0")
    p.add_argument("--k", default="0")
    p.set_defaults(fn=cmd_spaces)

    p = add("verify",
            "run the verification suites (one-dimensional; identities uses min(K, 15))",
            {"eigen": "K", "kernel": "", "polarization": "", "identities": "K seed",
             "envelopes": "", "equivalence-l2": "", "all": "K seed"})
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        reads = args.reads[args.which] if hasattr(args, "reads") else None
        for f in _FIELDS:
            if hasattr(args, f.name):
                if reads is not None and f.name not in reads:
                    raise ConfigError(f"--{f.name} is not read by {args.command} {args.which}")
                setattr(cfg, f.name, getattr(args, f.name))
        cfg.validate()
        rows, code = args.fn(args, cfg)
    except (OSError, ValueError) as exc:
        # ConfigError and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is not a failed check: keep it apart from exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    buf = io.StringIO()
    _emit(rows, args.format, buf)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
