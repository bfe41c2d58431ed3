"""End-to-end command-line checks, run in process through main()."""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from kslyap import cli
from kslyap.cli import load_config, main
from kslyap.coercivity import CoercivityReport
from kslyap.potential import read_profile
from kslyap.study import SweepRecord, read_sweep_csv, write_sweep_csv


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_exponents_json(capsys):
    rc, payload = run_json(capsys, ["exponents", "--json"])
    assert rc == 0
    assert payload["order"] == "fourth"
    assert payload["c1"] == "1/3"
    assert payload["c2"] == "4/3"
    assert payload["objective"] == "3/2"
    assert payload["classification"] == "critical"
    assert np.isclose(payload["c1_decimal"], 1.0 / 3.0, rtol=1e-15)
    assert np.isclose(payload["objective_decimal"], 1.5, rtol=1e-15)


def test_exponents_second_order(capsys):
    rc, payload = run_json(capsys, ["exponents", "--order", "second", "--json"])
    assert rc == 0
    assert (payload["c1"], payload["c2"], payload["objective"]) == ("1", "2", "5/2")
    assert payload["classification"] == "weak"


def test_exponents_plain_text(capsys):
    assert main(["exponents"]) == 0
    out = capsys.readouterr().out
    assert "c1: 1/3" in out
    assert "classification: critical" in out


def test_unknown_order_choice_rejected():
    with pytest.raises(SystemExit):
        main(["exponents", "--order", "sixth"])


def test_verify_takes_no_order(capsys):
    # verify certifies the fourth-order form only; --order is a flag of
    # exponents, and on verify argparse rejects it before any certificate
    with pytest.raises(SystemExit) as info:
        main(["verify", "--L", "64", "--order", "second"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert "certified" not in out and "unrecognized arguments: --order second" in err


def test_build_verify_bound_pipeline(tmp_path, capsys):
    rc, built = run_json(capsys, ["build-potential", "--L", "2", "--out", str(tmp_path), "--json"])
    assert rc == 0
    assert built["meta"].endswith("profile_L2.json") and "csv" not in built
    prof = read_profile(built["meta"])
    assert prof.L == 2.0
    assert prof.n == built["n"]

    rc, verified = run_json(
        capsys, ["verify", "--profile", built["meta"], "--out", str(tmp_path), "--json"]
    )
    assert rc == 0
    assert verified["converged"] and verified["certified"]
    assert verified["delta_margin"] > 0
    assert verified["N_sequence"] == sorted(verified["N_sequence"])

    rc, bound = run_json(capsys, ["bound", "--profile", built["meta"], "--out", str(tmp_path), "--json"])
    assert rc == 0
    assert set(bound) == {
        "L", "lambda", "M2", "phi_norm", "h2_norm", "r_star", "r_star_star", "r_star_star_scaled",
    }
    assert bound["lambda"] == verified["delta_margin"]
    assert bound["r_star_star"] > bound["r_star"] > 0


@pytest.mark.parametrize("command", ["verify", "bound"])
def test_profile_file_prints_what_L_prints(tmp_path, capsys, command):
    # --profile rebuilds the profile by the path --L takes
    run_json(capsys, ["build-potential", "--L", "2", "--out", str(tmp_path), "--json"])
    path = str(tmp_path / "profile_L2.json")
    rc, from_file = run_json(capsys, [command, "--profile", path, "--out", str(tmp_path), "--json"])
    assert rc == 0
    rc, direct = run_json(capsys, [command, "--L", "2", "--out", str(tmp_path), "--json"])
    assert rc == 0
    assert from_file == direct


def test_verify_rejects_zero_margin(tmp_path, capsys, monkeypatch):
    import kslyap.cli

    def zero_margin(profile):
        return CoercivityReport(lambda_min=1.0, delta_margin=0.0, N_sequence=(64, 128), converged=True)

    monkeypatch.setattr(kslyap.cli, "certify", zero_margin)
    rc, payload = run_json(capsys, ["verify", "--L", "8", "--out", str(tmp_path), "--json"])
    assert rc == 1
    assert payload["converged"] and not payload["certified"]


def test_verify_missing_profile_errors(tmp_path, capsys):
    rc = main(["verify", "--profile", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    rc, payload = run_json(
        capsys,
        [
            "simulate", "--L", "2", "--N", "64", "--t-end", "5", "--dt", "0.05",
            "--transient", "1", "--record-every", "10", "--out", str(tmp_path), "--json",
        ],
    )
    assert rc == 0
    assert np.isfinite(payload["sup_norm"])
    assert payload["violations"] is None  # monitor not requested
    csv_path = tmp_path / "simulate_L2.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,l2,l2_grad,l2_hess,lyapunov_residual"
    assert len(lines) == 1 + 11  # 100 steps sampled every 10, initial state included
    assert all(line.endswith(",") for line in lines[1:])  # residual column empty
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3))
    assert data.shape == (11, 4)  # plain parseable floats
    assert np.allclose(data[:, 0], 0.5 * np.arange(11), rtol=1e-12)
    assert np.isclose(data[0, 1], 1.0, rtol=1e-12)  # initial amplitude
    sidecar = json.loads((tmp_path / "simulate_L2.json").read_text())
    assert sidecar == payload


def test_simulate_with_lyapunov_monitor(tmp_path, capsys):
    rc, payload = run_json(
        capsys,
        [
            "simulate", "--L", "8", "--N", "64", "--t-end", "3", "--dt", "0.05",
            "--transient", "0.5", "--record-every", "1", "--odd", "--check-lyapunov",
            "--out", str(tmp_path), "--json",
        ],
    )
    assert rc == 0
    assert payload["violations"] == 0
    assert payload["max_residual"] < payload["tolerance"]
    lines = (tmp_path / "simulate_L8.csv").read_text().splitlines()
    assert len(lines) == 1 + 61
    assert lines[1].endswith(",") and lines[-1].endswith(",")  # endpoints have no residual
    assert not lines[2].endswith(",")
    residual = float(lines[2].rsplit(",", 1)[1])
    assert residual <= payload["max_residual"]


def test_simulate_refuses_lyapunov_check_off_the_odd_subspace(tmp_path, capsys, monkeypatch):
    # without --odd, --check-lyapunov refuses before the run is simulated
    monkeypatch.setattr(cli, "simulate", lambda *args: pytest.fail("simulated"))
    argv = ["simulate", "--L", "8", "--N", "64", "--t-end", "3", "--transient", "0.5", "--check-lyapunov"]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "--check-lyapunov needs --odd" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_refuses_an_uncertified_profile_before_the_run(tmp_path, capsys, monkeypatch):
    # the certificate is checked before the run, so a refusal wastes no run
    def zero_margin(profile):
        return CoercivityReport(lambda_min=1.0, delta_margin=0.0, N_sequence=(64, 128), converged=True)

    monkeypatch.setattr(cli, "certify", zero_margin)
    monkeypatch.setattr(cli, "simulate", lambda *args: pytest.fail("simulated"))
    argv = ["simulate", "--L", "8", "--N", "64", "--t-end", "3", "--transient", "0.5", "--odd", "--check-lyapunov"]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "not certified" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_cli(tmp_path, capsys):
    rc = main(["sweep", "--L-list", "8,1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 2 records" in out
    assert "L = 1: error:" in out
    records = read_sweep_csv(tmp_path / "sweep.csv")
    assert [r.L for r in records] == [8.0, 1.0]
    assert records[0].certified and not records[1].certified


def test_fit_cli(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    records = [
        SweepRecord(L=L, h2_norm=L**1.5, phi_norm=(None if L == 8.0 else 2.0 * L))
        for L in (8.0, 16.0, 32.0, 64.0)
    ]
    write_sweep_csv(records, path)
    rc, payload = run_json(capsys, ["fit", "--input", str(path), "--json"])
    assert rc == 0
    assert payload["column"] == "h2_norm"
    assert np.isclose(payload["slope"], 1.5, rtol=1e-12)
    assert payload["n_points"] == 4
    rc, payload = run_json(capsys, ["fit", "--input", str(path), "--column", "phi_norm", "--json"])
    assert rc == 0
    assert payload["n_points"] == 3  # None cells are skipped
    assert np.isclose(payload["slope"], 1.0, rtol=1e-12)
    assert main(["fit"]) == 2  # --input is mandatory
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["certified", "error", "L"])
def test_fit_column_must_be_numeric(tmp_path, capsys, column):
    # booleans fitted as 1.0 gave slope 0 with exit 0; the error column
    # failed as "need at least 3 points"
    path = tmp_path / "sweep.csv"
    write_sweep_csv([SweepRecord(L=L, h2_norm=L**1.5, certified=True) for L in (8.0, 16.0, 32.0)], path)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"column = {column}\n")
    for argv in (["--column", column], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exit_:
            main(["fit", "--input", str(path), "--out", str(tmp_path), *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {column!r}" in err
        assert "delta_margin, lambda_min, h2_norm, phi_norm, M2, r_star_star, sim_sup_norm" in err


def test_fit_refuses_an_empty_csv(tmp_path, capsys):
    # a bare StopIteration printed "error: " with no message
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["fit", "--input", str(path)]) == 2
    assert f"error: sweep CSV {path} is empty" in capsys.readouterr().err


def test_fit_refuses_non_finite_values(tmp_path, capsys):
    # sim_sup_norm is nan when no recorded sample lies past the transient;
    # the fit printed "slope: nan" and exited 0
    path = tmp_path / "sweep.csv"
    write_sweep_csv([SweepRecord(L=L, sim_sup_norm=L if L < 64.0 else math.nan) for L in (8.0, 16.0, 32.0, 64.0)], path)
    assert main(["fit", "--input", str(path), "--column", "sim_sup_norm"]) == 2
    assert "finite positive" in capsys.readouterr().err


def test_mu_bounds_the_profiles_mean(tmp_path, capsys):
    # at delta = 0.22 the integral of qtilde is -1.09, past -mu = -3/4, but
    # the profile's mean is half of it: smooth halves delta once, to 0.11,
    # which certifies, as verify --delta 0.11 does
    rc, payload = run_json(capsys, ["verify", "--L", "64", "--delta", "0.22", "--json"])
    assert rc == 0 and payload["certified"]
    assert payload == run_json(capsys, ["verify", "--L", "64", "--delta", "0.11", "--json"])[1]
    assert main(["build-potential", "--L", "64", "--delta", "0.22", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "profile_L64.json").read_text())
    assert meta["smoothing"] == {"delta": 0.11, "mu": 0.75}


def test_L_below_one_certifies_once_the_support_fits(tmp_path, capsys):
    # the support's rule alone bounds L below: at a = 0.5 the support
    # half-width is 0.547 at L = 0.8, which fits; at the defaults L = 0.5
    # is still refused, since 1.28 does not fit
    rc, payload = run_json(capsys, ["verify", "--L", "0.8", "--a", "0.5", "--out", str(tmp_path), "--json"])
    assert rc == 0 and payload["certified"]
    assert round(payload["delta_margin"], 5) == 306.75843
    assert payload["N_sequence"] == [64, 128]
    assert main(["verify", "--L", "0.5", "--out", str(tmp_path)]) == 2
    assert "error: support half-width 1.27961 exceeds domain half-length 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["nan", "-2"])
def test_simulate_refuses_a_bad_amplitude(tmp_path, capsys, amplitude):
    # a NaN amplitude exited 2 blaming the step dt; -2 ran with |u0|_2 = 2
    argv = ["simulate", "--L", "8", "--N", "64", "--t-end", "1", "--transient", "0.5", "--amplitude", amplitude]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "amplitude must be finite and nonnegative" in err and "dt" not in err
    assert not list(tmp_path.iterdir())


def test_molinet_cli(capsys):
    rc, payload = run_json(capsys, ["molinet", "--Lx", "100", "--json"])
    assert rc == 0
    assert np.isclose(payload["ly_max"], 100.0 ** (-13.0 / 7.0), rtol=1e-12)
    assert np.isclose(payload["norm_bound"], 100.0 ** (4.0 / 7.0), rtol=1e-12)

    rc = main(["molinet", "--Lx", "100", "--Ly", "1"])
    assert rc == 2
    assert "exceeds" in capsys.readouterr().err

    rc = main(["molinet"])
    assert rc == 2
    assert "--Lx is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build-potential"], "--L is required"),
        (["verify"], "--L (or a profile path) is required"),
        (["bound"], "--L (or a profile path) is required"),
        (["simulate"], "--L is required"),
    ],
)
def test_missing_L_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "--L", "nan"], "--L", "nan"),
        (["verify", "--L", "inf"], "--L", "inf"),
        (["bound", "--L", "0"], "--L", "0"),
        (["build-potential", "--L", "1e400"], "--L", "1e400"),
        (["simulate", "--L", "-5"], "--L", "-5"),
        (["verify", "--L", "wide"], "--L", "wide"),
        (["sweep", "--L-list", "32,inf"], "--L-list", "inf"),
        (["sweep", "--L-list", "nan 64"], "--L-list", "nan"),
        (["sweep", "--L-list", "32,-64"], "--L-list", "-64"),
    ],
)
def test_non_finite_or_non_positive_L_exits_2(tmp_path, capsys, argv, flag, value):
    # every half-length flag takes one type, which refuses NaN, infinities,
    # zero and negative values before the command runs; argparse exits 2
    # with a message naming the flag and the value
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--L", "50", "--dt", "nan"], "dt must be finite"),
        (["simulate", "--L", "50", "--t-end", "inf"], "t_end must be finite"),
        (["simulate", "--L", "50", "--gamma", "nan", "--t-end", "20", "--transient", "10"], "gamma must be finite"),
        (["simulate", "--L", "50", "--t-end", "20", "--transient", "nan"], "transient must be finite"),
        (["molinet", "--Lx", "inf"], "Lx must be finite"),
        (["molinet", "--Lx", "100", "--C", "inf"], "C must be finite"),
        (["molinet", "--Lx", "100", "--Ly", "nan"], "Ly must be finite"),
    ],
)
def test_non_finite_solver_and_molinet_flags_exit_2(tmp_path, capsys, argv, message):
    # refused before any run, with a message naming the field
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# study configuration\norder = second\njson = true\n")
    rc = main(["exponents", "--config", str(cfg)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == "second"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = second\n")
    rc, payload = run_json(capsys, ["exponents", "--config", str(cfg), "--order", "fourth", "--json"])
    assert rc == 0
    assert payload["order"] == "fourth"


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order second\n")
    assert main(["exponents", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


def test_load_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# comment only\n  a = 1.5  # trailing\nL_list = 8 16\nname=x\n")
    assert load_config(cfg) == {"a": "1.5", "L_list": "8 16", "name": "x"}


def test_out_directory_created(tmp_path, capsys):
    target = tmp_path / "nested" / "out"
    rc = main(["molinet", "--Lx", "2", "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    assert target.is_dir()


# each subcommand with flags of every kind it takes: int, float, list,
# string and switch; fit's input is written by the test
_TWINS = {
    "exponents": ["--order", "second", "--json"],
    "build-potential": ["--L", "2", "--a", "1", "--q0", "0.5", "--q1", "2.2", "--delta", "0.03", "--mu", "0.7"],
    "verify": ["--L", "2", "--json"],
    "bound": ["--L", "2", "--q1", "2.2", "--json"],
    "simulate": [
        "--L", "8", "--N", "64", "--t-end", "3", "--dt", "0.05", "--transient", "0.5", "--record-every", "5",
        "--amplitude", "0.5", "--seed", "3", "--odd", "--check-lyapunov", "--json",
    ],
    "sweep": ["--L-list", "8,16", "--gamma", "0.1", "--json"],
    "fit": ["--input", "sweep.csv", "--column", "phi_norm", "--json"],
    "molinet": ["--Lx", "100", "--C", "2", "--Ly", "1e-4"],
}


def _config_twin(argv):
    """The config file that stands for the flags in argv: --flag-name value
    becomes flag_name = value, and a switch becomes flag_name = true."""
    lines = []
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else "true"
            lines.append(f"{tok[2:].replace('-', '_')} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", sorted(_TWINS))
def test_config_twin_prints_what_flags_print(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_sweep_csv([SweepRecord(L=L, phi_norm=2.0 * L) for L in (8.0, 16.0, 32.0)], "sweep.csv")
    argv = _TWINS[command] + ["--out", "out"]
    Path("run.cfg").write_text(_config_twin(argv))
    runs = []
    for args in (argv, ["--config", "run.cfg"]):
        rc = main([command, *args])
        written = {path.name: path.read_bytes() for path in sorted(Path("out").iterdir())}
        runs.append((rc, capsys.readouterr().out, written))
        shutil.rmtree("out")
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


def _parsed(monkeypatch, command, argv):
    """The flags that main hands the subcommand."""
    seen = {}
    name = f"_cmd_{command.replace('-', '_')}"
    monkeypatch.setattr(cli, name, lambda args, out_dir: seen.update(vars(args)) or 0)
    assert main([command, *argv]) == 0
    return seen


def test_config_values_take_their_flags_types(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"L = 8\nN = 64\ndt = 0.01\nodd = yes\ncheck_lyapunov = off\njson = 1\nout = {tmp_path}\n")
    args = _parsed(monkeypatch, "simulate", ["--config", str(cfg)])
    assert (args["L"], args["N"], args["dt"]) == (8.0, 64, 0.01)
    assert type(args["L"]) is float and type(args["N"]) is int
    assert (args["odd"], args["check_lyapunov"], args["json"]) == (True, False, True)
    assert (args["seed"], args["record_every"], args["t_end"]) == (0, 10, None)  # untouched defaults
    assert args["out"] == str(tmp_path)

    cfg.write_text("L_list = 8 16, 32\nsimulate = true\norder = second\n")  # order is not a sweep flag
    args = _parsed(monkeypatch, "sweep", ["--config", str(cfg)])
    assert args["L_list"] == [8.0, 16.0, 32.0] and args["simulate"] is True
    assert "order" not in args


def test_flags_override_config_of_every_kind(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 8\nN = 64\nodd = false\nL_list = 8 16\n")
    args = _parsed(monkeypatch, "simulate", ["--config", str(cfg), "--N", "128", "--L", "16", "--odd"])
    assert (args["L"], args["N"], args["odd"]) == (16.0, 128, True)
    args = _parsed(monkeypatch, "sweep", ["--config", str(cfg), "--L-list", "32"])
    assert args["L_list"] == [32.0]


def test_mistyped_switch_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # a switch reads 1/true/yes/on or 0/false/no/off; any other value
    # is an error naming the key and the value, raised before the command
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 50\nodd = ture\n")
    monkeypatch.setattr(cli, "_cmd_simulate", lambda args, out_dir: pytest.fail("the command ran"))
    assert main(["simulate", "--config", str(cfg), "--t-end", "20", "--transient", "10"]) == 2
    assert "odd = 'ture'" in capsys.readouterr().err
    for text, value in (("ON", True), (" no ", False), ("0", False), ("Yes", True)):
        assert cli._parse_bool("odd", text) is value


@pytest.mark.parametrize("command", ["exponents", "build-potential", "verify", "bound", "fit", "molinet"])
def test_seed_is_a_flag_of_simulate_and_sweep_only(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--seed", "3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["order = sixth", "N = many", "L = wide"])
def test_invalid_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    command = "exponents" if line.startswith("order") else "simulate"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"argument --{line.split()[0]}" in capsys.readouterr().err
