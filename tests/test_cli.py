import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


def test_verify_envelopes_rows_are_unchanged():
    # the six rows as printed before the subordinated kinds shared one
    # pass over the Mehler blocks, byte for byte
    r = run_main("verify", "envelopes")
    assert r.returncode == 0
    assert r.stdout == (
        "name,computed,expected,tolerance,passed\n"
        "envelope(heat),0.27577224587245858,finite/stable,0.10000000000000001,True\n"
        "envelope(poisson),0.6262583792305636,finite/stable,0.10000000000000001,True\n"
        "envelope(g),0.47808216511215629,finite/stable,0.10000000000000001,True\n"
        "envelope(gH),0.12168905068705949,finite/stable,0.10000000000000001,True\n"
        "envelope(ladder),1.7366526283244517,finite/stable,0.10000000000000001,True\n"
        "envelope(gradient),1.6792823011696796,finite/stable,0.10000000000000001,True\n"
    )


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


def test_an_out_path_that_cannot_be_written_exits_2(tmp_path):
    # the write came after main's handlers: a FileNotFoundError traceback,
    # exit 1 like a failed check
    r = run_main("spaces", "rho", "--x", "1", "--out", str(tmp_path / "missing" / "report.csv"))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: [Errno 2] No such file or directory")


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
    # one command table serves every call in a process; back-to-back calls
    # with other subcommands and options print what the same calls print
    # in the reverse order, and parsing leaves the table as it was
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

    table = repr(cli.COMMANDS)
    cached = [run(argv) for argv in calls]
    fresh = [run(argv) for argv in reversed(calls)][::-1]
    assert cached == fresh
    assert repr(cli.COMMANDS) == table
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
    assert cli.main(["spaces", "rho", "--x", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: kaput\n"


OVERRIDES = {"n": "2", "K": "7", "q": "3.5", "R": "5", "h": "0.1", "tmin": "0.01",
             "tmax": "9", "N": "16", "Q": "8", "M": "100", "seed": "5"}

# per subcommand: an argv tail that reaches its handler in a mode that
# reads all its fields, and the config fields the handler reads (the only
# ones it takes an override flag for)
READS = {
    "basis": (["--k", "0", "--x", "0"], set()),
    "kernel": (["poisson", "--x", "0", "--t", "1"], {"n", "Q"}),
    "semigroup": (["--k", "0", "--t", "1"], set()),
    "gamma": (["--b", "1"], {"q", "tmin", "tmax", "N", "M", "seed"}),
    "spaces": (["h1"], {"n", "q", "R", "h", "tmin", "tmax", "N"}),
    "verify": (["identities"], {"K", "seed"}),
}

# per subcommand with modes: an argv tail after the mode, and the config
# fields each mode reads
MODES = {
    "kernel": (["--x", "0", "--t", "1"],
               {"heat": {"n"}, "heat-one": {"n"}, "poisson": {"n", "Q"}, "g": {"n", "Q"},
                "ladder": {"n", "Q"}}),
    "spaces": ([], {"rho": {"n"}, "h1": READS["spaces"][1]}),
    "verify": ([], {"eigen": {"K"}, "kernel": set(), "polarization": set(),
                    "identities": {"K", "seed"}, "envelopes": set(), "equivalence-l2": set(),
                    "all": {"K", "seed"}}),
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
    argv = [command] + READS[command][0] + [f"--{name}", OVERRIDES[name]]
    assert cli.main(argv) == 0
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


def test_each_mode_takes_only_the_field_flags_it_reads(monkeypatch):
    for command in MODES:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args, cfg: ([], 0))
    for command, (tail, modes) in MODES.items():
        for mode, fields in modes.items():
            for name in READS[command][1]:
                r = run_main(command, mode, *tail, f"--{name}", OVERRIDES[name])
                assert r.returncode == (0 if name in fields else 2), (command, mode, name)


@pytest.mark.parametrize("argv, message", [
    (("kernel", "heat", "--x", "0", "--t", "1", "--Q", "8"), "--Q is not read by kernel heat"),
    (("verify", "kernel", "--K", "3"), "--K is not read by verify kernel"),
    (("verify", "eigen", "--seed", "9"), "--seed is not read by verify eigen"),
    (("spaces", "rho", "--R", "2", "--N", "5"), "--R is not read by spaces rho"),
])
def test_a_field_flag_the_mode_does_not_read_exits_2(argv, message):
    # each used to exit 0 and print what it prints without the flag
    r = run_main(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


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


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("row", GOLDEN["rows"],
                         ids=lambda row: " ".join(row["argv"]) or "(no arguments)")
def test_output_matches_the_golden_table(row, tmp_path):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    r = run_main(*(arg.replace("{tmp}", str(tmp_path)) for arg in row["argv"]))
    assert (r.returncode, r.stdout) == (row["code"], row["stdout"])


def joined(argv):
    """argv with each `--flag value` pair written as `--flag=value`."""
    out, i = [], 0
    while i < len(argv):
        flag = argv[i].startswith("--") and i + 1 < len(argv)
        out.append(f"{argv[i]}={argv[i + 1]}" if flag else argv[i])
        i += 2 if flag else 1
    return out


@pytest.mark.parametrize("argv", [
    ("kernel", "g", "--x", "0", "--t", "1", "--alpha", "-1e-3"),
    ("kernel", "heat", "--x", "0.5", "--y", "-2e-1", "--t", "1"),
    ("kernel", "heat", "--n", "2", "--x", "-1,2", "--y", "0,0", "--t", "1"),
    ("gamma", "--b", "-1,2", "--M", "10"),
    ("basis", "--k", "1", "--x", "-1;2"),
])
def test_a_negative_value_after_a_flag_is_its_value(argv):
    # each exited 2 with "expected one argument": argparse took a negative
    # value other than -5 or -.5 for a flag
    r = run_main(*argv)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == run_main(*joined(argv)).stdout


def test_ladder_sign_minus_and_the_last_of_a_repeated_flag():
    from hermlp.kernels import ladder_kernel

    point = ("kernel", "ladder", "--x", "0.5", "--y", "0", "--t", "1")
    minus = run_main(*point, "--sign", "-")
    assert minus.returncode == 0
    assert float(minus.stdout.splitlines()[1].split(",")[-1]) == ladder_kernel(0.5, 0.0, 1.0, 1, -1)
    assert minus.stdout != run_main(*point, "--sign", "+").stdout
    assert run_main(*point, "--sign=-").stdout == minus.stdout
    assert run_main(*point, "--sign", "+", "--sign", "-").stdout == minus.stdout
    assert run_main("kernel", "ladder", "--x", "3", *point[2:], "--sign=+", "--sign", "-",
                    "--t", "2", "--t=1").stdout == minus.stdout


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("explode",), "argument command: invalid choice: 'explode'"),
    (("--format", "json", "verify", "eigen"), "argument command: invalid choice: '--format'"),
    (("kernel", "--x", "0", "--t", "1"), "the following arguments are required: mode"),
    (("kernel", "heat", "--t", "1"), "the following arguments are required: --x"),
    (("kernel", "heat", "--x", "0", "--t", "abc"), "argument --t: invalid float value: 'abc'"),
    (("verify", "eigen", "--K", "2.5"), "argument --K: invalid int value: '2.5'"),
    (("kernel", "heat", "--x", "0", "--t", "1", "--format", "xml"),
     "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (("kernel", "heat", "--x", "0", "--t"), "argument --t: expected one argument"),
    (("kernel", "heat", "--x", "0", "--t", "1", "--form", "json"),
     "unrecognized arguments: --form json"),
    (("semigroup", "--k", "0", "--d", "3", "-4", "--t", "1"), "unrecognized arguments: --d 3 -4"),
    (("spaces", "rho", "extra", "--x", "1"), "unrecognized arguments: extra"),
])
def test_a_usage_error_prints_the_usage_line_and_exits_2(argv, message):
    r = run_main(*argv)
    usage, error = r.stderr.splitlines()
    assert (r.returncode, r.stdout) == (2, "")
    assert usage.startswith("usage: hermlp")
    assert error.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ("--help",), ("-h", "kernel"), ("kernel", "-h"), ("kernel", "heat", "--x=-1", "--help"),
    ("verify", "--bogus", "1", "-h"), ("gamma", "--b", "1", "--help", "--b"),
])
def test_help_goes_to_stdout_and_exits_0(argv):
    r = run_main(*argv)
    assert (r.returncode, r.stderr) == (0, "")
    command = argv[0] if argv[0] in cli.COMMANDS else ""
    assert r.stdout.startswith(f"usage: hermlp {command}".rstrip())


def test_importing_the_cli_loads_no_argparse():
    code = "import sys, hermlp.cli; print('argparse' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


def json_real_by_round_trip(v):
    """The JSON value of a real as the emitter used to take it: its 17
    significant digits read back by json.loads."""
    text = f"{float(v):.17g}"
    return json.loads(text) if math.isfinite(v) else text


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(2.0 ** 53)
@example(1e16)
@example(-1e16)
@example(1e17)
@example(99999999999999984.0)  # the largest double below 1e17
@example(5e-324)
@example(sys.float_info.max)
@example(-sys.float_info.max)
def test_json_reals_print_the_bytes_of_the_round_trip(v):
    for real in (v, np.float64(v)):
        want = json.dumps([{"v": json_real_by_round_trip(real)}], indent=2) + "\n"
        assert cli._emit([{"v": real}], "json") == want


def test_non_finite_json_reals_are_strings():
    rows = [{"a": math.inf, "b": -math.inf, "c": math.nan}]
    assert json.loads(cli._emit(rows, "json")) == [{"a": "inf", "b": "-inf", "c": "nan"}]


def test_semigroup_at_a_huge_time_runs_without_a_warning():
    # exited 0 but printed "RuntimeWarning: overflow encountered in scalar
    # multiply"; as an error the warning made it exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_main("semigroup", "--kind", "heat", "--k", "1", "--t", "1e308")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "kind,k,t,alpha,factor\nheat,1,1e+308,0,0\n"


@pytest.mark.parametrize("raw, message", [
    ({"grid": 5}, "config key 'grid' must be an object"),
    ({"time": [1, 2]}, "config key 'time' must be an object"),
    ({"grid": {"X": 1.0}}, "unknown config key grid.X"),
    ({"mc": {"Q": 64}}, "unknown config key mc.Q"),
    ({"n": 0}, "n must be >= 1 and K >= 0"),
    ({"K": -1}, "n must be >= 1 and K >= 0"),
    ({"grid": {"R": 0.0}}, "grid.R and grid.h must be positive"),
    ({"grid": {"h": -0.02}}, "grid.R and grid.h must be positive"),
])
def test_config_rejects_bad_groups_keys_and_ranges(raw, message):
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.RunConfig.from_mapping(raw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, value", [
    # printed nan after two RuntimeWarnings, and 0 after three overflow warnings
    (["basis", "--k", "100", "--x", "1e4"], "100,1e4,0"),
    (["basis", "--k", "2000", "--x", "40"], "2000,40,0.10766261188867"),
    (["kernel", "heat-one", "--x", "0", "--t", "1e308"], "0,1e+308,0"),
])
def test_far_points_and_long_times_print_their_values_without_warnings(argv, value):
    r = run_main(*argv)
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines()[1].startswith(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, value", [
    # printed nan after three RuntimeWarnings
    (["kernel", "ladder", "--x", "1e308", "--y", "-1e308", "--t", "1"], "1e308,-1e308,1,0"),
    # printed 9.1505737239907677e-311: one Gaussian e^{-|x|^2/2} per point went subnormal
    (["basis", "--k", "5,5", "--x", "20,33"], '"5,5","20,33",8.61830561335'),
])
def test_far_points_print_their_limit_or_mpmath_value(argv, value):
    r = run_main(*argv)
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines()[1].startswith(value)
