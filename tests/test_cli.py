import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import pytest

from hermlp import cli

CMD = [sys.executable, "-m", "hermlp"]


def run_cli(*args):
    """The `python -m hermlp` entry point in a fresh interpreter: kept for
    the tests of the entry point, exit codes and byte-identical stdout."""
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )


def run_main(*args):
    """cli.main in this process with stdout and stderr captured: the exit
    code and output the entry point gives, without starting an
    interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def test_spaces_rho():
    r = run_main("spaces", "rho", "--x", "3")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["x,rho", "3,0.25"]


def test_kernel_heat_value():
    r = run_main("kernel", "heat", "--x", "0", "--y", "0", "--t", "1")
    assert r.returncode == 0
    header, row = r.stdout.splitlines()
    assert header == "x,y,t,value"
    assert float(row.split(",")[-1]) == pytest.approx(0.20948100342398213, rel=1e-14)


def test_kernel_poisson_shift():
    r = run_main("kernel", "poisson", "--x", "0.5", "--y", "0", "--t", "1",
                "--alpha", "2")
    assert r.returncode == 0
    value = float(r.stdout.splitlines()[1].split(",")[-1])
    assert value > 0


def test_semigroup_factor():
    import math

    r = run_main("semigroup", "--k", "0", "--t", "1")
    assert r.returncode == 0
    value = float(r.stdout.splitlines()[1].split(",")[-1])
    assert value == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_basis_multiple_points():
    r = run_main("basis", "--k", "0", "--x", "0;1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "k,x,value"
    assert len(lines) == 3


def test_verify_polarization_json():
    r = run_main("verify", "polarization", "--format", "json")
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert reports[0]["name"] == "polarization"
    assert reports[0]["passed"] is True


def test_verify_identities_exit_zero():
    r = run_main("verify", "identities")
    assert r.returncode == 0
    assert "operator-identities" in r.stdout


def test_gamma_rank_one():
    r = run_main("gamma", "--b", "3,0", "--M", "20000", "--q", "4")
    assert r.returncode == 0
    header, row = r.stdout.splitlines()
    assert header == "q,estimate,stderr"
    est = float(row.split(",")[1])
    assert est == pytest.approx(1.5, rel=0.05)


def test_gamma_sup_norm_json():
    # a rank-one l^inf estimate is finite; the emitter must keep any
    # non-finite real as a string so the output stays strict JSON
    r = run_main("gamma", "--b", "3,0", "--q", "inf", "--M", "20000", "--format", "json")
    assert r.returncode == 0, r.stderr
    row = json.loads(r.stdout, parse_constant=pytest.fail)[0]
    assert row["q"] == "inf"
    assert row["estimate"] == pytest.approx(1.5, rel=0.05)


def test_gamma_zero_target_entries_keep_the_estimate():
    # a leading zero entry used to keep two rows of the image factor (the
    # QR does not pivot), so --b 0,3 drew other normals than --b 3,0
    rows = [run_main("gamma", "--b", b, "--q", "4", "--M", "2000").stdout for b in ("3,0", "0,3")]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("scale", ["1e-170", "1e200"])
def test_gamma_of_a_tiny_or_a_huge_target(scale):
    # 1e-170 printed 0,0 (R*R underflowed, so the rank read 0) and 1e200
    # printed 0,0 with an overflow warning; the stderr, in squared units,
    # underflows to 0 or overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_main("gamma", "--b", scale + ",0", "--q", "4", "--M", "2000")
        one = run_main("gamma", "--b", "1,0", "--q", "4", "--M", "2000")
    assert r.returncode == 0, r.stderr
    est, err = map(float, r.stdout.splitlines()[1].split(",")[1:])
    assert est == pytest.approx(float(scale) * float(one.stdout.splitlines()[1].split(",")[1]),
                                rel=1e-14, abs=0.0)
    assert err == (math.inf if float(scale) > 1 else 0.0)


def test_unknown_subcommand_exits_2():
    r = run_cli("explode")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def test_unknown_flag_exits_2():
    r = run_cli("spaces", "rho", "--zoom", "1")
    assert r.returncode == 2


def test_config_file_roundtrip(tmp_path):
    cfg = {
        "n": 1,
        "K": 10,
        "q": 2.0,
        "grid": {"R": 10.0, "h": 0.05},
        "time": {"tmin": 1e-3, "tmax": 10.0, "N": 64},
        "quad": {"Q": 48},
        "mc": {"M": 5000},
        "seed": 7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_main("kernel", "poisson", "--x", "0", "--y", "0", "--t", "1",
                "--config", str(path))
    assert r.returncode == 0


def test_config_unknown_key_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 1, "bogus": 3}))
    r = run_main("spaces", "rho", "--x", "0", "--config", str(path))
    assert r.returncode == 2
    assert "bogus" in r.stderr


def test_config_bad_value_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"time": {"tmin": 2.0, "tmax": 1.0, "N": 8}}))
    r = run_cli("spaces", "rho", "--x", "0", "--config", str(path))
    assert r.returncode == 2


def test_deterministic_output():
    a = run_cli("gamma", "--b", "1,2", "--M", "5000", "--seed", "11", "--q", "4")
    b = run_cli("gamma", "--b", "1,2", "--M", "5000", "--seed", "11", "--q", "4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_file(tmp_path):
    path = tmp_path / "report.csv"
    r = run_main("spaces", "rho", "--x", "1", "--out", str(path))
    assert r.returncode == 0
    assert r.stdout == ""
    assert path.read_text().splitlines()[1] == "1,0.5"


def test_help_lists_subcommands():
    r = run_cli("--help")
    assert r.returncode == 0
    for name in ("basis", "kernel", "semigroup", "gamma", "spaces", "verify"):
        assert name in r.stdout


def test_spaces_rho_of_an_nd_point():
    # rho([3, 4]) = 1 / (1 + |x|) = 1/6, one radius for the point
    r = run_main("spaces", "rho", "--n", "2", "--x", "3,4")
    assert r.returncode == 0, r.stderr
    header, row = r.stdout.splitlines()
    assert header == "x,rho"
    assert float(row.split(",")[-1]) == pytest.approx(1.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize(
    "args",
    [
        ("kernel", "heat", "--x", "nan", "--t", "1"),
        ("kernel", "heat", "--x", "0", "--y", "inf", "--t", "1"),
        ("kernel", "poisson", "--x", "0", "--t", "nan"),
        ("kernel", "heat", "--n", "2", "--x", "1,nan", "--y", "0,0", "--t", "1"),
        ("semigroup", "--k", "1", "--t", "inf"),
        ("kernel", "poisson", "--x", "0", "--t", "1", "--alpha", "nan"),
        ("kernel", "g", "--x", "0", "--t", "1", "--alpha", "nan"),
        ("semigroup", "--k", "1", "--t", "1", "--alpha", "nan"),
        ("semigroup", "--k", "1", "--t", "1", "--alpha", "inf"),
    ],
)
def test_non_finite_input_exits_2(args):
    r = run_main(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "not finite" in r.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("semigroup", "--k", "1", "--t", "-1"), "time must be nonnegative"),
        (("semigroup", "--k", "0", "--t", "1", "--alpha", "-2"), "non-positive eigenvalues"),
        (("spaces", "h1", "--n", "2", "--k", "3"), "expansion has n=1 but the grid has n=2"),
        (("semigroup", "--k", "0", "--t", "1", "--d", "3"), "unrecognized arguments: --d"),
        (("gamma", "--b", "1,2", "--q", "nan", "--M", "100"), "q=nan must be >= 1"),
        (("gamma", "--b", "1,2", "--tmax", "inf", "--M", "100"), "must be finite"),
    ],
)
def test_invalid_input_exits_2_with_a_message(args, message):
    r = run_main(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert message in r.stderr


def test_verify_json_is_byte_identical_in_process(capsys):
    from hermlp.cli import main

    outputs = []
    for _ in range(2):
        assert main(["verify", "eigen", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    assert b"runtime" not in outputs[0]


def test_cached_parser_keeps_calls_independent(capsys):
    # the parser is built once per process; back-to-back calls with other
    # subcommands and options print what calls on a fresh parser print
    from hermlp import cli

    calls = [
        ["verify", "eigen", "--K", "60", "--format", "json"],
        ["verify", "eigen", "--format", "csv"],
        ["kernel", "poisson", "--x", "0.5", "--t", "1", "--alpha", "2"],
        ["kernel", "poisson", "--x", "0.5", "--t", "1"],
        ["spaces", "rho", "--x", "3"],
    ]

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    cached = [run(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert "K=60" in cached[0][1] and cached[0][1].lstrip().startswith("[")
    assert "K=20" in cached[1][1] and cached[1][1].startswith("name,")
    assert cached[2][1] != cached[3][1]


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    # a crash inside a subcommand is neither success, a failed check (1)
    # nor a usage error (2)
    from hermlp import cli

    def boom(args, cfg):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "cmd_spaces", boom)
    cli.build_parser.cache_clear()  # the cached parser holds the handlers
    try:
        assert cli.main(["spaces", "rho", "--x", "3"]) == 3
    finally:
        cli.build_parser.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: kaput\n"


OVERRIDES = {"n": "2", "K": "7", "q": "3.5", "R": "5", "h": "0.1", "tmin": "0.01",
             "tmax": "9", "N": "16", "Q": "8", "M": "100", "seed": "5"}

# per subcommand: an argv tail that reaches its handler, and the config
# fields the handler reads (the only ones it takes an override flag for)
READS = {
    "basis": (["--k", "0", "--x", "0"], set()),
    "kernel": (["heat", "--x", "0", "--t", "1"], {"n", "Q"}),
    "semigroup": (["--k", "0", "--t", "1"], set()),
    "gamma": (["--b", "1"], {"q", "tmin", "tmax", "N", "M", "seed"}),
    "spaces": (["rho"], {"n", "q", "R", "h", "tmin", "tmax", "N"}),
    "verify": (["eigen"], {"K", "seed"}),
}


def test_overrides_cover_every_config_field():
    import dataclasses

    from hermlp.cli import RunConfig

    assert set(OVERRIDES) == {f.name for f in dataclasses.fields(RunConfig)}
    assert set().union(*(fields for _, fields in READS.values())) == set(OVERRIDES)


@pytest.mark.parametrize("name", sorted(OVERRIDES))
def test_every_config_field_can_be_overridden(monkeypatch, name):
    import dataclasses

    from hermlp import cli

    seen = []

    def record(args, cfg):
        seen.append(cfg)
        return [], 0

    command = next(c for c, (_, fields) in READS.items() if name in fields)
    default = getattr(cli.RunConfig(), name)
    monkeypatch.setattr(cli, f"cmd_{command}", record)
    cli.build_parser.cache_clear()  # the cached parser holds the handlers
    try:
        argv = [command] + READS[command][0] + [f"--{name}", OVERRIDES[name]]
        assert cli.main(argv) == 0
    finally:
        cli.build_parser.cache_clear()
    (cfg,) = seen
    value = getattr(cfg, name)
    assert value == type(default)(OVERRIDES[name]) != default
    assert type(value) is type(default)
    others = {f.name for f in dataclasses.fields(cfg)} - {name}
    assert all(getattr(cfg, f) == getattr(cli.RunConfig(), f) for f in others)


@pytest.mark.parametrize("command, name", [
    (command, name) for command, (_, fields) in READS.items()
    for name in sorted(OVERRIDES) if name not in fields
])
def test_an_unread_config_field_is_not_a_flag(command, name):
    # every subcommand took all 11 flags and ran with the ones it does not
    # read ignored; --h on a subcommand without it would abbreviate --help
    r = run_main(command, *READS[command][0], f"--{name}", OVERRIDES[name])
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"unrecognized arguments: --{name} {OVERRIDES[name]}" in r.stderr


def test_help_lists_the_fields_each_subcommand_reads():
    flags = {}
    for command in READS:
        r = run_main(command, "--help")
        assert r.returncode == 0
        flags[command] = set(re.findall(r"--(\w+)", r.stdout)) & set(OVERRIDES)
        assert flags[command] == READS[command][1]
    assert sum(map(len, flags.values())) == 17
    # the two clamps are stated in the help (argparse wraps it to the terminal)
    assert "min(N, 48)" in " ".join(run_main("spaces", "--help").stdout.split())
    assert "min(K, 15)" in " ".join(run_main("verify", "--help").stdout.split())


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"mc": {"M": 1000.5}}, "M=1000.5 must be an integer"),
        ({"mc": {"M": math.inf}}, "M=inf must be an integer"),
        ({"mc": {"M": "5000"}}, "M='5000' must be an integer"),
        ({"seed": 1.5}, "seed=1.5 must be an integer"),
        ({"seed": -1}, "seed >= 0"),
        ({"n": True}, "n=True must be an integer"),
        ({"time": {"N": 64.0}}, "N=64.0 must be an integer"),
        ({"quad": {"Q": None}}, "Q=None must be an integer"),
        ({"K": 2.5}, "K=2.5 must be an integer"),
        ({"grid": {"h": math.inf}}, "h=inf must be finite"),
        ({"grid": {"R": math.nan}}, "R=nan must be finite"),
        ({"time": {"tmin": "0.1"}}, "tmin='0.1' must be a number"),
        ({"time": {"tmax": -math.inf}}, "tmax=-inf must be finite"),
        ({"q": math.nan}, "q=nan must be >= 1"),
        ({"grid": {"R": 10 ** 400}}, "R is out of range"),
        ({"q": 10 ** 400}, "q is out of range"),
    ],
)
def test_config_rejects_non_integer_counts_and_non_finite_reals(raw, message):
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.RunConfig.from_mapping(raw)


def test_config_takes_integer_reals_and_an_infinite_q():
    cfg = cli.RunConfig.from_mapping({"q": math.inf, "grid": {"R": 10}, "time": {"tmax": 5}})
    assert (cfg.q, cfg.R, cfg.tmax) == (math.inf, 10, 5)


def test_config_file_with_an_infinite_sample_count_is_a_config_error(tmp_path):
    # JSON reads 1e400 as inf; the gamma command used to hang drawing
    # samples for it, so only the config is read here
    path = tmp_path / "c.json"
    path.write_text('{"mc": {"M": 1e400}}')
    with pytest.raises(cli.ConfigError, match="M=inf must be an integer"):
        cli.RunConfig.from_file(str(path))


def test_spaces_with_a_too_long_integer_in_the_config_exits_2(tmp_path):
    # JSON reads a 401-digit literal as an int no float holds; converting
    # it raised OverflowError, which exited 3 with "internal error"
    path = tmp_path / "c.json"
    path.write_text('{"grid": {"R": 1%s}}' % ("0" * 400))
    r = run_main("spaces", "h1", "--config", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: R is out of range\n"


def test_gamma_with_a_fractional_sample_count_in_the_config_exits_2(tmp_path):
    # used to exit 3 with "internal error: TypeError"
    path = tmp_path / "c.json"
    path.write_text('{"mc": {"M": 1000.5}}')
    r = run_main("gamma", "--b", "1,2", "--q", "4", "--config", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: M=1000.5 must be an integer\n"
