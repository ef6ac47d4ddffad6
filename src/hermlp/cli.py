"""Command-line front door: configuration parsing, dispatch to the
computation modules, and CSV/JSON emission of values and check reports.

`COMMANDS` holds each subcommand's modes, the config fields each mode
reads and its flags; `_parse` reads argv against it in one pass, and
`main` calls the handler `cmd_<command>`.  Flags are `--name value` or
`--name=value`, never abbreviated; the token after a flag is its value
(so negative values need no `=`), and the last one given wins.

Exit codes: 0 on success (all checks passed) or help, 1 when a
verification check fails, 2 on usage or configuration errors, 3 when a
computation fails unexpectedly (any other exception, reported on one
stderr line).
"""

from __future__ import annotations

import csv
import dataclasses
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
from .semigroups import _KINDS, apply_semigroup
from .spaces import critical_radius, h1_norm
from .verify import (
    _ENVELOPES,
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
            return cls.from_mapping(json.load(fh))

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


# config-file sections; every other RunConfig field is a top-level key
_GROUPS = {"grid": {"R", "h"}, "time": {"tmin", "tmax", "N"}, "quad": {"Q"}, "mc": {"M"}}
_FIELDS = dataclasses.fields(RunConfig)
_FIELD_NAMES = {f.name for f in _FIELDS}
_TOP_LEVEL = _FIELD_NAMES - set().union(*_GROUPS.values())


def _real(v) -> str:
    return f"{float(v):.17g}"


def _json_real(v):
    """A real for JSON output: what the 17 digits of `_real` read back as
    (exact for every double, and an int exactly when v is integral and
    |v| < 1e17), else the string the CSV form prints ("inf", "nan")."""
    if not math.isfinite(v):
        return _real(v)
    return int(v) if v.is_integer() and abs(v) < 1e17 else v


def _emit(rows, fmt: str) -> str:
    """rows: list of dicts with scalar values; reals get 17 significant digits."""
    if fmt == "json":
        clean = [{k: _json_real(v) if isinstance(v, float) else v for k, v in r.items()}
                 for r in rows]
        return json.dumps(clean, indent=2) + "\n"
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _real(v) if isinstance(v, float) else v for k, v in row.items()})
    return out.getvalue()


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
    k = _parse_index(args["k"])
    rows = []
    for tok in args["x"].split(";"):
        x = _parse_point(tok, len(k))
        rows.append({"k": args["k"], "x": tok, "value": float(hermite_eval(k, x))})
    return rows, 0


def cmd_kernel(args, cfg):
    x = _parse_point(args["x"], cfg.n)
    t = args["t"]
    if not math.isfinite(t):
        raise ConfigError(f"time {t} is not finite")
    rule = SubordinationRule(cfg.Q)
    if args["mode"] == "heat-one":
        return [{"x": args["x"], "t": t, "value": float(heat_kernel_one(x, t, cfg.n))}], 0
    y = _parse_point(args["y"], cfg.n)
    if args["mode"] == "heat":
        value = float(heat_kernel(x, y, t, cfg.n))
    elif args["mode"] in ("poisson", "g"):
        kernel = poisson_kernel if args["mode"] == "poisson" else g_kernel
        value = float(kernel(x, y, t, ShiftedOperator(args["alpha"], cfg.n), rule))
    else:
        sign = +1 if args["sign"] == "+" else -1
        value = float(ladder_kernel(x, y, t, args["j"], sign, cfg.n, rule))
    return [{"x": args["x"], "y": args["y"], "t": t, "value": value}], 0


def cmd_semigroup(args, cfg):
    mode = HermiteExpansion.single(_parse_index(args["k"]))
    factor = float(apply_semigroup(mode, args["kind"], args["t"], args["alpha"]).C[0, 0])
    return [{"kind": args["kind"], "k": args["k"], "t": args["t"], "alpha": args["alpha"],
             "factor": factor}], 0


def cmd_gamma(args, cfg):
    times = TimeGrid(cfg.tmin, cfg.tmax, cfg.N)
    b = np.array([float(p) for p in args["b"].split(",")])
    B = BanachModel(b.size, cfg.q)
    prof = times.nodes * np.exp(-times.nodes)
    T = rank_one(prof, b, B, times)
    est, err = gamma_norm_mc(T, cfg.M, cfg.seed)
    return [{"q": cfg.q, "estimate": est, "stderr": err}], 0


def cmd_spaces(args, cfg):
    if args["mode"] == "rho":
        x = np.reshape(_parse_point(args["x"], cfg.n), (1, cfg.n))
        return [{"x": args["x"], "rho": critical_radius(x).item()}], 0
    k = _parse_index(args["k"])
    value = h1_norm(HermiteExpansion.single(k), BanachModel(1, cfg.q),
                    SpatialGrid(cfg.R, cfg.h, cfg.n), TimeGrid(cfg.tmin, cfg.tmax, min(cfg.N, 48)))
    return [{"k": args["k"], "h1": value}], 0


# verification suite -> its reports for a config, in the order `verify all` runs them
_SUITES = {
    "eigen": lambda cfg: [check_eigen_ladder(cfg.K)],
    "kernel": lambda cfg: [check_kernel_vs_spectral([0.1, 1.0, 5.0], [0.0, 2.0])],
    "polarization": lambda cfg: [check_polarization(HermiteExpansion.single(0),
                                                    HermiteExpansion.single(0))],
    "identities": lambda cfg: [check_operator_identities(min(cfg.K, 15), seed=cfg.seed)],
    "envelopes": lambda cfg: _envelope_reports(
        tuple(_ENVELOPES), np.linspace(-4.0, 4.0, 65), np.geomspace(0.1, 2.0, 6)),
    "equivalence-l2": lambda cfg: [equivalence_suite("L2", [
        HermiteExpansion.single(0), HermiteExpansion.single(3),
        HermiteExpansion(n=1, d=1, K=5, coeffs={(0,): [1.0], (5,): [2.0]})], BanachModel(1, 2.0))],
}


def cmd_verify(args, cfg):
    mode = args["mode"]
    reports = [r for suite in (_SUITES if mode == "all" else [mode]) for r in _SUITES[suite](cfg)]
    rows = [r.row() for r in reports]
    for row in rows:
        if isinstance(row["computed"], dict):
            row["computed"] = json.dumps({k: _json_real(v) for k, v in row["computed"].items()})
        if not isinstance(row["expected"], (int, float)):
            row["expected"] = str(row["expected"])
    return rows, (0 if all(r.passed for r in reports) else 1)


_REQUIRED = object()  # the default of a flag that must be given
_HELP = ("-h", "--help")
COMMON = {"config": (str, None, "JSON config file (RunConfig schema)"),
          "format": (("csv", "json"), "csv", "output format"),
          "out": (str, None, "output path (default: stdout)")}


def _row(about, modes, **own):
    """A row of COMMANDS: the description; mode -> the config fields it
    reads (mode None if there are no modes); flag -> (type or choices,
    default or _REQUIRED, help) for the own flags, each field some mode
    reads and COMMON; the defaults of the own and common flags."""
    reads = {m: f.split()
             for m, f in (modes.items() if isinstance(modes, dict) else [(None, modes)])}
    fields = {f: [m for m in reads if f in reads[m]] for names in reads.values() for f in names}
    flags = {**own, **{f: (type(getattr(RunConfig, f)), None, f"override config field {f}"
                          + (f", read by {', '.join(ms)}" if ms != [None] else ""))
                       for f, ms in fields.items()}, **COMMON}
    defaults = {k: v[1] for k, v in {**own, **COMMON}.items() if v[1] is not _REQUIRED}
    return about, reads, flags, defaults


_INDEX, _POINT = "multi-index, comma separated", "point, comma separated"
COMMANDS = {
    "basis": _row("evaluate orthonormal oscillator eigenfunctions", "",
                  k=(str, _REQUIRED, _INDEX), x=(str, _REQUIRED, "points, ';' separated")),
    "kernel": _row("evaluate heat/Poisson/g/ladder kernels",
                   {"heat": "n", "heat-one": "n", "poisson": "n Q", "g": "n Q", "ladder": "n Q"},
                   x=(str, _REQUIRED, _POINT), y=(str, "0", _POINT),
                   t=(float, _REQUIRED, "time"), alpha=(float, 0.0, "shift of L"),
                   j=(int, 1, "ladder axis"), sign=(("+", "-"), "+", "ladder sign")),
    "semigroup": _row("spectral semigroup factor on one mode", "", k=(str, _REQUIRED, _INDEX),
                      kind=(_KINDS, "poisson", "semigroup"),
                      t=(float, _REQUIRED, "time"), alpha=(float, 0.0, "shift of L")),
    "gamma": _row("rank-one gamma-norm Monte Carlo estimate", "q tmin tmax N M seed",
                  b=(str, _REQUIRED, "target vector, comma separated")),
    "spaces": _row("critical radius and H1 norms (h1 uses min(N, 48) time nodes)",
                   {"rho": "n", "h1": "n q R h tmin tmax N"},
                   x=(str, "0", _POINT), k=(str, "0", _INDEX)),
    "verify": _row("run the verification suites (one-dimensional; identities uses "
                   "min(K, 15))", {**dict.fromkeys(_SUITES, ""), "eigen": "K",
                                  "identities": "K seed", "all": "K seed"}),
}


class UsageError(ValueError):
    """args: (message, command or None); main prints the usage line first."""


def _usage(command=None) -> str:
    if command is None:
        return "usage: hermlp {" + ",".join(COMMANDS) + "} ..."
    modes = ",".join(m for m in COMMANDS[command][1] if m)
    return f"usage: hermlp {command}" + (f" {{{modes}}}" if modes else "") + " [--FLAG VALUE ...]"


def _value(what, text, kind, command=None):
    """text as argument `what`: kind(text) for a type kind, else one of its choices."""
    if not isinstance(kind, type):
        if text not in kind:
            raise UsageError(f"argument {what}: invalid choice: {text!r} "
                             f"(choose from {', '.join(map(repr, kind))})", command)
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {what}: invalid {kind.__name__} value: {text!r}",
                         command) from None


def _help(command=None) -> str:
    if command is None:
        lines = [_usage(), "", "Oscillator semigroups, square functions, gamma norms and "
                 "Hardy/BMO estimators at desk scale.", "", "commands (COMMAND --help for more):"]
        return "\n".join(lines + [f"  {c:<10} {row[0]}" for c, row in COMMANDS.items()]) + "\n"
    about, _, flags, _ = COMMANDS[command]
    lines = [_usage(command), "", about, "", "flags, as --FLAG VALUE or --FLAG=VALUE:"]
    for name, (kind, default, text) in flags.items():
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
        note = (" (required)" if default is _REQUIRED
                else "" if default is None else f" (default: {default})")
        lines.append(f"  {'--' + name + ' ' + value:<20} {text}{note}")
    return "\n".join(lines + [f"  {'-h, --help':<20} show this help and exit"]) + "\n"


def _parse(argv):
    """One pass over argv against COMMANDS: (command, args), or None once
    help is printed.  args maps "mode" to the mode (None without modes), the
    own and common flags to their values or defaults, the fields given to theirs."""
    if argv and argv[0] in _HELP:
        sys.stdout.write(_help())
        return None
    if not argv:
        raise UsageError("the following arguments are required: command", None)
    command = _value("command", argv[0], COMMANDS)
    _, reads, flags, defaults = COMMANDS[command]
    args, extra, i = {**defaults, "mode": None}, [], 1
    while i < len(argv):
        token, i = argv[i], i + 1
        name, eq, value = token[2:].partition("=")
        if token in _HELP:
            sys.stdout.write(_help(command))
            return None
        if token.startswith("--") and name in flags:
            if not eq:
                if i == len(argv):
                    raise UsageError(f"argument --{name}: expected one argument", command)
                value, i = argv[i], i + 1
            args[name] = _value(f"--{name}", value, flags[name][0], command)
        elif token.startswith("--"):  # an unknown flag, with the non-flag tokens after it
            start = i - 1
            while i < len(argv) and not (argv[i].startswith("--") or argv[i] in _HELP):
                i += 1
            extra += argv[start:i]
        elif args["mode"] is None and None not in reads:
            args["mode"] = _value("mode", token, reads, command)
        else:
            extra.append(token)
    missing = [f"--{n}" for n, spec in flags.items() if spec[1] is _REQUIRED and n not in args]
    missing += ["mode"] if args["mode"] is None and None not in reads else []
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}", command)
    for name in args:
        if name in _FIELD_NAMES and name not in reads[args["mode"]]:
            raise ConfigError(f"--{name} is not read by {command} {args['mode']}")
    return command, args


def main(argv=None) -> int:
    try:
        if (parsed := _parse(sys.argv[1:] if argv is None else argv)) is None:
            return 0  # help printed
        command, args = parsed
        cfg = RunConfig.from_file(args["config"]) if args["config"] else RunConfig()
        for name in _FIELD_NAMES.intersection(args):
            setattr(cfg, name, args[name])
        cfg.validate()
        rows, code = globals()[f"cmd_{command}"](args, cfg)
        text = _emit(rows, args["format"])
        if args["out"]:
            with open(args["out"], "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"{_usage(exc.args[1])}\nerror: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # ConfigError and JSONDecodeError are ValueErrors; OSError: --config or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is not a failed check: keep it apart from exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
