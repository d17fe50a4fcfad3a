"""End-to-end command-line runs: files, formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest


def run_cli(*argv, env_extra=None):
    env = os.environ.copy()
    env.pop("SUSYQ_GRID_N", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "susyq", *argv],
        capture_output=True, text=True, env=env,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_models_list_prints_the_registry():
    r = run_cli("models-list")
    assert r.returncode == 0
    names = {m["name"] for m in json.loads(r.stdout)}
    assert names == {
        "black-scholes", "deformed-harmonic", "harmonic",
        "pseudo-bosonic", "swanson",
    }
    # the whole table, every parameter default and description, to the byte
    table = [
        {"name": "black-scholes", "params": {"r": 1.0, "v0": 1.0},
         "description": "rate-r generator factorization with closed-form vacua "
                        "and classification"},
        {"name": "deformed-harmonic", "params": {"q": "0.5*tanh(x) + 0.6 + 0.3i*sin(x)"},
         "description": "oscillator ladder conjugated by a bounded multiplier e^q"},
        {"name": "harmonic", "params": {},
         "description": "oscillator factorization wA = wB = x with Hermite eigenfunctions"},
        {"name": "pseudo-bosonic", "params": {"k": -1.0},
         "description": "commuting-ladder pair wA = k + e^x, wB = x - e^x with "
                        "polynomial eigenfamilies"},
        {"name": "swanson", "params": {"theta": math.pi / 8},
         "description": "rotated oscillator with complex-argument Hermite eigenfamilies"},
    ]
    assert r.stdout == json.dumps(table, indent=2, sort_keys=True) + "\n"


def test_potentials_real_model_emits_seven_columns(tmp_path):
    out = tmp_path / "o"
    r = run_cli("potentials", "--model", "pseudo-bosonic", "--bind", "k=-1",
                "--grid-n", "513", "--out", str(out))
    assert r.returncode == 0
    rows = read_csv(out / "potentials.csv")
    assert rows[0] == ["x", "q1", "v1", "v2", "v1_dual", "v2_dual", "annotation"]
    assert len(rows) == 1 + 513
    meta = read_json(out / "potentials-meta.json")
    assert meta["model"] == "pseudo-bosonic"
    assert meta["complex_valued"] is False


def test_potentials_marks_the_partner_pole(tmp_path):
    out = tmp_path / "o"
    r = run_cli("potentials", "--model", "black-scholes",
                "--bind", "r=1", "--bind", "v0=1", "--out", str(out))
    assert r.returncode == 0
    rows = read_csv(out / "potentials.csv")
    marked = [row for row in rows[1:] if row[-1]]
    assert len(marked) == 1
    x0 = math.log(2.0) / 2.0
    assert f"pole x0={x0:.17g}" in marked[0][-1]
    assert abs(float(marked[0][0]) - x0) < 24.0 / 4096 + 1e-12


def test_potentials_user_pair_drift_vanishes(tmp_path):
    out = tmp_path / "o"
    r = run_cli("potentials", "--wA", "x", "--wB", "x",
                "--grid-n", "257", "--out", str(out))
    assert r.returncode == 0
    rows = read_csv(out / "potentials.csv")
    assert {row[1] for row in rows[1:]} == {"0"}


def test_potentials_complex_model_splits_columns(tmp_path):
    out = tmp_path / "o"
    r = run_cli("potentials", "--model", "deformed-harmonic",
                "--grid-n", "257", "--out", str(out))
    assert r.returncode == 0
    header = read_csv(out / "potentials.csv")[0]
    assert header[:3] == ["x", "q1_re", "q1_im"]
    assert len(header) == 12


def test_pole_on_a_grid_node_exits_three(tmp_path):
    r = run_cli("potentials", "--wA", "1/x", "--wB", "x",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert "non-finite sample" in r.stderr
    assert r.stdout == ""


def test_config_errors_exit_two(tmp_path):
    out = str(tmp_path / "o")
    assert run_cli("potentials", "--model", "no-such", "--out", out).returncode == 2
    assert run_cli("potentials", "--model", "swanson", "--out", out).returncode == 2
    assert run_cli("potentials", "--wA", "x", "--out", out).returncode == 2
    assert run_cli("potentials", "--wA", "x +", "--wB", "x", "--out", out).returncode == 2
    assert run_cli("potentials", "--model", "harmonic", "--bind", "nope",
                   "--out", out).returncode == 2


@pytest.mark.parametrize("argv, config, message", [
    (["gk", "--model", "harmonic"], {"J": "abc"}, "J must be a number"),
    (["gk", "--model", "harmonic"], {"gamma": "abc"}, "gamma must be a number"),
    (["gk", "--model", "harmonic"], {"n_terms": "abc"}, "n_terms must be a number"),
    (["gk", "--model", "harmonic"], {"j_max": "abc"}, "j_max must be a number"),
    (["gk", "--model", "harmonic"], {"grid": {"L": "abc"}}, "grid.L must be a number"),
    (["gk", "--model", "harmonic"], {"grid": {"N": "abc"}}, "grid.N must be a number"),
    (["bs-classify"], {"r_values": [1.0, "abc"]}, "r_values entry must be a number"),
    (["verify", "--model", "pseudo-bosonic", "--bind", "k=abc"], None, "'k' must be a number"),
    (["verify", "--model", "pseudo-bosonic", "--bind", "k=true"], None, "'k' must be a number"),
    (["bs-classify", "--numeric", "--bind", "v0=abc"], None, "'v0' must be a number"),
    (["verify", "--wA", "x + k", "--wB", "x", "--bind", "k=abc"], None, "binding 'k'"),
    (["verify", "--model", "deformed-harmonic", "--bind", "q=2"], None,
     "'q' must be an expression string"),
    (["potentials", "--model", "deformed-harmonic"], {"bind": {"q": 2}},
     "'q' must be an expression string"),
    (["potentials", "--model", "harmonic"], {"bind": [1, 2]}, "'bind' must be an object"),
    (["verify"], {"wA": 5, "wB": "x"}, "wA must be a string, got 5"),
    (["potentials"], {"model": ["harmonic"]}, "model must be a string"),
    (["gk", "--model", "harmonic"], {"spectrum_file": 7}, "spectrum_file must be a string"),
    (["potentials", "--model", "harmonic"], {"out": None}, "out must be a string, got None"),
    (["potentials", "--model", "harmonic"], {"grid": {"N": 65.9, "L": 8}},
     "grid.N must be an integer, got 65.9"),
    (["potentials", "--model", "harmonic"], {"grid": {"N": True}},
     "grid.N must be an integer, got True"),
    (["gk", "--model", "harmonic"], {"n_terms": 26.5}, "n_terms must be an integer, got 26.5"),
    (["gk", "--model", "harmonic"], {"n_terms": True}, "n_terms must be an integer, got True"),
    (["bs-classify"], {"numeric": "false"}, "numeric must be true, false or null, got 'false'"),
    (["bs-classify"], {"numeric": 1}, "numeric must be true, false or null, got 1"),
    # a file value is checked where a flag overrides it, and where the command does not read it
    (["gk", "--model", "harmonic", "--j", "1"], {"J": "abc"}, "J must be a number"),
    (["vacua", "--model", "harmonic", "--normalization", "unit"], {"normalization": "bogus"},
     "unknown normalization 'bogus' (raw, unit, or paired)"),
    (["potentials", "--model", "harmonic"], {"family": "chi"},
     "unknown state family 'chi' (phi or psi)"),
    (["bs-classify", "--format", "csv"], {"format": "xml"},
     "unknown output format 'xml' (csv or json)"),
    # integers that no double holds
    (["gk", "--model", "harmonic"], {"J": 10**400}, "J is out of float range"),
    (["gk", "--model", "harmonic"], {"tolerances": {"state": 10**400}},
     "bad tolerance value: state is out of float range"),
    (["bs-classify"], {"r_values": [1, -10**400]}, "r_values entry is out of float range"),
])
def test_malformed_numbers_are_configuration_errors(tmp_path, capsys, argv, config, message):
    from susyq import cli

    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "Traceback" not in err
    assert message in err


def test_each_option_is_one_row_and_each_subcommand_takes_its_rows():
    import argparse
    import dataclasses

    from susyq import cli

    fields = sorted(f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command")
    assert sorted(opt.field for opt in cli._OPTIONS) == fields
    [subparsers] = [a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli._COMMANDS)
    slots = 0
    for command, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        rows = {opt.flag for opt in cli._OPTIONS if command in opt.commands}
        assert flags == ({"--config"} | rows if rows else set()), command
        slots += len(flags)
    assert slots == 49


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "harmonic", "--format", "json"],
    ["gk", "--model", "harmonic", "--wA", "x"],
    ["bs-classify", "--model", "harmonic"],
    ["potentials", "--model", "harmonic", "--tol", "state=1e-9"],
    ["models-list"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    from susyq import cli

    out = tmp_path / "D"
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_only_a_command_that_reads_out_makes_a_directory(tmp_path, monkeypatch, capsys):
    from susyq import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["models-list"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert cli.main(["bs-classify", "--r-values=1"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [cli.RunConfig.out]


def test_an_unread_flag_exits_two_from_the_command_line(tmp_path):
    r = run_cli("gk", "--model", "harmonic", "--wA", "1/x", "--wB", "x", "--format", "json",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "unrecognized arguments: --wA 1/x --wB x --format json" in r.stderr
    assert r.stdout == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("numeric, columns", [(None, 5), (False, 5), (True, 6)])
def test_numeric_takes_a_json_boolean_or_null(tmp_path, numeric, columns):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"numeric": numeric, "r_values": [1.5]}))
    out = tmp_path / "o"
    r = run_cli("bs-classify", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    header = (out / "bs-classification.csv").read_text().splitlines()[0].split(",")
    assert len(header) == columns


def test_an_integral_float_is_a_grid_size(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"N": 65.0, "L": 8}}))
    out = tmp_path / "o"
    r = run_cli("potentials", "--model", "harmonic", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads((out / "potentials-meta.json").read_text())["grid"] == {"L": 8.0, "N": 65}


def test_unknown_tolerance_names_exit_two(tmp_path):
    out = str(tmp_path / "o")
    r = run_cli("gk", "--model", "harmonic", "--tol", "stat=1e-9", "--out", out)
    assert r.returncode == 2
    assert "unknown tolerance name(s) stat" in r.stderr
    r = run_cli("gk", "--model", "harmonic", "--tol", "state=tight", "--out", out)
    assert r.returncode == 2
    assert "bad tolerance value" in r.stderr

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"state": 1e-9, "residual": 1e-6}}))
    r = run_cli("potentials", "--model", "harmonic", "--config", str(cfg), "--out", out)
    assert r.returncode == 2
    assert "unknown tolerance name(s) residual" in r.stderr

    cfg.write_text(json.dumps({"tolerances": {"state": 1e-9}}))
    r = run_cli("gk", "--model", "harmonic", "--grid-n", "65",
                "--config", str(cfg), "--tol", "state=1e-10", "--out", out)
    assert r.returncode == 0


# a tolerance that is not a positive finite number would certify any tail, or
# none, and is refused
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true", "false", "0",
                                   "-1", "-1e-9", '"nan"'])
def test_a_tolerance_must_be_a_positive_finite_number(tmp_path, capsys, value):
    from susyq import cli

    argv = ["gk", "--model", "harmonic", "--grid-n", "65", "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--tol", f"state={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("susyq: bad tolerance value: state")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"tolerances": {{"state": {value}}}}}')
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("susyq: bad tolerance value: state")


def test_internal_error_prints_its_traceback(monkeypatch, capsys):
    from susyq import cli

    def broken(cfg):
        raise RuntimeError("forced failure")

    monkeypatch.setitem(cli._COMMANDS, "models-list", broken)
    assert cli.main(["models-list"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("Traceback (most recent call last):")
    assert 'raise RuntimeError("forced failure")' in err
    assert err.endswith("susyq: internal error: RuntimeError: forced failure\n")
    assert out == ""


@pytest.mark.parametrize("sub, reason", [("", "File exists"), ("sub", "Not a directory")])
def test_an_out_path_through_a_file_is_a_configuration_error(tmp_path, sub, reason):
    blocker = tmp_path / "f"
    blocker.write_text("kept\n")
    out = str(blocker / sub) if sub else str(blocker)
    r = run_cli("potentials", "--wA", "x", "--wB", "x", "--out", out)
    assert r.returncode == 2
    assert r.stderr == f"susyq: cannot create output directory {out!r}: {reason}\n"
    assert r.stdout == "" and blocker.read_text() == "kept\n"


def test_verify_model_passes_and_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("verify", "--model", "harmonic", "--out", str(out1))
    r2 = run_cli("verify", "--model", "harmonic", "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    rep = read_json(out1 / "verify.json")
    assert rep["all_pass"] is True
    assert rep["model"] == "harmonic"
    assert "checks passed" in r1.stderr


def test_verify_perturbed_pair_exits_one(tmp_path):
    out = tmp_path / "o"
    r = run_cli("verify", "--model", "pseudo-bosonic",
                "--perturb-wb", "0.05 * x", "--out", str(out))
    assert r.returncode == 1
    rep = read_json(out / "verify.json")
    assert rep["all_pass"] is False
    assert all(c["passed"] for c in rep["sections"]["factorization"])
    assert any(not c["passed"] for c in rep["sections"]["intertwining"])


def test_verify_lists_each_failing_check_on_stderr(tmp_path):
    out = tmp_path / "o"
    r = run_cli("verify", "--model", "pseudo-bosonic",
                "--perturb-wb", "0.05 * x", "--out", str(out))
    assert r.returncode == 1
    rep = read_json(out / "verify.json")
    failed = [(name, c) for name, section in rep["sections"].items()
              for c in section if not c["passed"]]
    n_checks = sum(len(section) for section in rep["sections"].values())
    lines = r.stderr.splitlines()
    assert lines[0] == f"verify: {n_checks - len(failed)}/{n_checks} checks passed"
    assert lines[1:] == [
        f"verify: FAILED {name}: {c['check']}: residual {c['residual']:.3e}, "
        f"tolerance {c['tolerance']:g}"
        for name, c in failed
    ]
    assert r.stdout == f"{out / 'verify.json'}\n"


def test_verify_rejects_an_unknown_binding(tmp_path):
    r = run_cli("verify", "--model", "pseudo-bosonic", "--bind", "kk=3",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "kk" in r.stderr
    assert not (tmp_path / "o" / "verify.json").exists()


def test_verify_suite_that_cannot_build_exits_one(tmp_path):
    # Re q is negative on the left half, so the deformation is not bounded below
    out = tmp_path / "o"
    r = run_cli("verify", "--model", "deformed-harmonic", "--bind", "q=0.5*tanh(x)",
                "--out", str(out))
    assert r.returncode == 1, r.stderr
    assert "internal error" not in r.stderr
    rep = read_json(out / "verify.json")
    assert rep["all_pass"] is False
    [check] = rep["sections"]["suite"]
    assert check["passed"] is False and check["residual"] is None
    assert rep["notes"][0].startswith("DeformationError: ")


@pytest.mark.parametrize("argv, code, message", [
    (["potentials", "--wA", "x", "--wB", "(0)^-1"], 2,
     "susyq: the constant zero raised to a negative power"),
    (["potentials", "--wA", "x", "--wB", "1/(x-x)"], 2, "susyq: no pole-free sample points"),
    (["potentials", "--wA", "x", "--wB", "x^400"], 3, "susyq: non-finite sample"),
    (["vacua", "--wA", "x", "--wB", "x^400"], 3, "susyq: non-finite sample"),
    (["verify", "--wA", "x", "--wB", "x^400"], 3, "susyq: non-finite sample"),
    (["potentials", "--wA", "x", "--wB", "k^3", "--bind", "k=[1e200,1e200]"], 2,
     "susyq: constant power (1e+200 + 1e+200i)^3 is out of float range"),
    (["potentials", "--wA", "x", "--wB", "k^101", "--bind", "k=[1e200,1e200]"], 2,
     "is out of float range"),
    # Hermite normalizations need n!, which doubles hold up to 170!
    (["gk", "--model", "harmonic", "--n-terms", "172"], 2, "level 171 not available"),
    (["gk", "--model", "swanson", "--n-terms", "172"], 2, "level 171 not available"),
    (["gk", "--model", "deformed-harmonic", "--n-terms", "172"], 2, "level 171 not available"),
    # grids whose points or whose L*L doubles cannot hold
    (["vacua", "--wA", "x", "--wB", "x", "--grid-l", "inf"], 2, "past the float range"),
    (["vacua", "--wA", "x", "--wB", "x", "--grid-l", "1e308"], 2, "past the float range"),
    (["vacua", "--wA", "x", "--wB", "x", "--grid-l", "1e-162"], 2, "square underflows"),
    (["vacua", "--wA", "x", "--wB", "x", "--grid-l", "1e-200"], 2, "square underflows"),
    (["verify", "--model", "harmonic", "--grid-l", "inf"], 2, "past the float range"),
    (["verify", "--model", "harmonic", "--grid-l", "1e-200"], 2, "square underflows"),
    # gk labels
    (["gk", "--model", "harmonic", "--gamma", "inf"], 2, "gamma must be finite"),
    (["gk", "--model", "harmonic", "--j", "nan"], 2, "J must be finite"),
    (["gk", "--model", "harmonic", "--j-max", "-1"], 2, "j_max must be positive"),
    (["gk", "--model", "harmonic", "--j-max", "nan"], 2, "j_max must be finite"),
    (["gk", "--model", "harmonic", "--j", "-1"], 4, "J must be nonnegative"),
    (["gk", "--model", "harmonic", "--gamma", "1e308"], 4, "gamma=1e+308 is too large"),
    # found by the CLI fuzzer: malformed [re, im] bindings, a constant subexpression
    # that fails on the whole grid, a model parameter whose scaled family overflows
    (["potentials", "--wA", "x + k", "--wB", "x", "--bind", 'k=["a",1]'], 2, "expected [re, im]"),
    (["verify", "--wA", "x + k", "--wB", "x", "--bind", "k=[[1],2]"], 2, "expected [re, im]"),
    (["gk", "--model", "deformed-harmonic", "--bind", "q=-(sin(0))^-3"], 2,
     "zero raised to a negative power at every x"),
    (["gk", "--model", "pseudo-bosonic", "--bind", "k=1e308"], 3, "non-finite sample"),
    # duals whose normalization underflows are a representation limit, not a failed pairing
    (["verify", "--model", "pseudo-bosonic", "--bind", "k=-80"], 2, "dual levels need |k| < 37.6"),
    (["gk", "--model", "pseudo-bosonic", "--bind", "k=-80", "--n-terms", "10"], 2,
     "at k=-80.0 their normalization"),
])
def test_singular_and_overflowing_expressions_end_in_a_documented_exit(
        tmp_path, capsys, argv, code, message):
    from susyq import cli

    assert cli.main(argv + ["--grid-n", "1025", "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "internal error" not in err and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("susyq: ")
    assert message in err


@pytest.mark.parametrize("command", ["potentials", "vacua", "verify", "gk"])
def test_an_overflowing_pseudo_bosonic_parameter_writes_one_stderr_line(tmp_path, command):
    # in a subprocess numpy's RuntimeWarnings reach stderr, where in-process
    # runs hand them to pytest's warning capture
    r = run_cli(command, "--model", "pseudo-bosonic", "--bind", "k=1e308", "--grid-n", "17",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert r.stderr.count("\n") == 1, r.stderr
    assert r.stderr.startswith("susyq: non-finite sample")


@pytest.mark.parametrize("command", ["potentials", "gk"])
def test_rejected_deformation_is_a_configuration_error(command, tmp_path):
    r = run_cli(command, "--model", "deformed-harmonic", "--bind", "q=0.5*tanh(x)",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "internal error" not in r.stderr and "Traceback" not in r.stderr
    assert r.stderr.startswith("susyq: Re q must stay positive")
    assert r.stderr.count("\n") == 1


def test_verify_user_pair_reports_a_complex_binding(tmp_path):
    out = tmp_path / "o"
    r = run_cli("verify", "--wA", "x + k", "--wB", "x", "--bind", "k=[0.1,0.2]",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "internal error" not in r.stderr
    assert read_json(out / "verify.json")["params"]["k"] == [0.1, 0.2]


def test_verify_user_pair(tmp_path):
    out = tmp_path / "o"
    r = run_cli("verify", "--wA", "tanh(x) + 0.2", "--wB", "x / (1 + x^2)",
                "--out", str(out))
    assert r.returncode == 0
    rep = read_json(out / "verify.json")
    assert set(rep["sections"]) == {"factorization", "vacua"}


def test_gk_reports_pairing_action_and_curve(tmp_path):
    out = tmp_path / "o"
    r = run_cli("gk", "--model", "deformed-harmonic", "--j", "1",
                "--gamma", "0.5", "--out", str(out))
    assert r.returncode == 0
    rep = read_json(out / "gk-state.json")
    assert rep["state"]["family"] == "phi"
    assert rep["state"]["J"] == 1.0
    pn = rep["values"]["pair_norm_grid"]
    assert abs(complex(pn[0], pn[1]) - 1.0) < 1e-7
    act = rep["values"]["action_identity"]
    assert abs(complex(act[0], act[1]) - 1.0) < 1e-8
    assert rep["domain"]["j_min"] == "inf"
    # the curve follows the closed form for the twice-spaced ladder
    for row in read_csv(out / "gk-kcurve.csv")[1:]:
        jv, kv = float(row[0]), float(row[1])
        assert abs(kv - math.exp(-jv / 4.0)) < 1e-10
    stages = {row[0] for row in read_csv(out / "gk-resolution.csv")[1:]}
    assert stages == {"gamma", "j", "n"}


def test_gk_psi_family_swaps_the_featured_state(tmp_path):
    out = tmp_path / "o"
    r = run_cli("gk", "--model", "deformed-harmonic", "--family", "psi",
                "--n-terms", "20", "--grid-n", "1025", "--out", str(out))
    assert r.returncode == 0
    rep = read_json(out / "gk-state.json")
    assert rep["state"]["family"] == "psi"
    assert rep["partner"]["family"] == "phi"


def test_gk_is_byte_identical(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("gk", "--model", "deformed-harmonic", "--n-terms", "20",
                       "--grid-n", "1025", "--out", str(out)).returncode == 0
    for name in ("gk-state.json", "gk-kcurve.csv", "gk-resolution.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_gk_matches_the_list_route_bit_for_bit(tmp_path):
    # no frozen digest covers deformed-harmonic gk; the oracle holds both
    # families in lists and sums, norms and pairs them from there
    from susyq import cli
    from susyq.gk import (_series, gk_domain, moment_density, resolution_estimate,
                          spectrum_from_formula)
    from susyq.models import get_model
    from susyq.numerics import Grid, GridFunction, inner, norm

    out = tmp_path / "o"
    assert cli.main(["gk", "--model", "deformed-harmonic", "--j", "1.5", "--gamma", "0.5",
                     "--n-terms", "20", "--grid-n", "1025", "--out", str(out)]) == 0
    rep = read_json(out / "gk-state.json")

    m, grid = get_model("deformed-harmonic"), Grid(12.0, 1025)
    phis = [m.phi1(n, grid) for n in range(20)]
    psis = [m.psi1(n, grid) for n in range(20)]
    s = spectrum_from_formula(m.energy, 20)
    domain = gk_domain(s, [norm(b) for b in phis], [norm(b) for b in psis])
    states, sums = [], []
    for family, basis in (("phi", phis), ("psi", psis)):
        states.append(_series(s, family, 1.5, 0.5, 1e-8, domain, 20))
        acc = np.zeros(grid.n_points, dtype=np.complex128)
        for c, b in zip(states[-1].coefficients, basis):
            acc += c * b.values
        sums.append(GridFunction(grid, acc))
    # json.dumps writes each float with repr, so equal text is equal bits
    assert json.dumps([rep["state"], rep["partner"]], sort_keys=True) == json.dumps(
        cli._jsonable([st.payload() for st in states]), sort_keys=True)
    assert json.dumps(rep["values"]["pair_norm_grid"]) == json.dumps(
        cli._jsonable(inner(*sums)))

    trace = resolution_estimate(phis[0], phis[0], phis, psis, s, moment_density(s))
    want = [[stage, cli._fmt(p.gamma_limit), cli._fmt(p.j_max), str(p.n_trunc),
             cli._fmt(p.value.real), cli._fmt(p.value.imag), cli._fmt(p.abs_error),
             "" if p.rel_error is None else cli._fmt(p.rel_error)]
            for stage, points in (("gamma", trace.gamma_trace), ("j", trace.j_trace),
                                  ("n", trace.n_trace)) for p in points]
    assert read_csv(out / "gk-resolution.csv")[1:] == want


# gk at its widest, in the psi walk, in complex N-point arrays:
#    2  phi_0, which the overlaps read, and the phi state sum
#    3  psi_n, the term c_n psi_n being added, and the psi state sum
#    2  the overlap <psi_n, phi_0>: conj(psi_n) and its weighted product
#    1  real arrays at half size: x and the Simpson weights
#    3  the family's own buffers: for swanson the complex Hermite ladder's two
#       levels and its envelope (deformed-harmonic: its two multipliers and a
#       real ladder at half size; harmonic: the real ladder alone)
#    1  the ladder restarting on the dual rotation while its old levels live
#   -- 12 arrays (9.2 to 12.2 measured), and 16 leaves 30% of headroom.
#   Holding both 26-level families whole needs 52 and more (57.7 measured).
@pytest.mark.parametrize("name", ["harmonic", "swanson", "deformed-harmonic"])
def test_gk_peak_memory_in_grid_arrays(tmp_path, name):
    from susyq import cli

    n_points = 16385
    # one-time set-up stays out of the count
    assert cli.main(["gk", "--model", name, "--grid-n", "1025", "--out", str(tmp_path / "w")]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["gk", "--model", name, "--grid-n", str(n_points),
                         "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n_points) <= 16


def test_gk_domain_rejections_exit_four(tmp_path):
    out = str(tmp_path / "o")
    # basis too short for the requested label
    r = run_cli("gk", "--model", "deformed-harmonic", "--j", "5.9",
                "--n-terms", "8", "--out", out)
    assert r.returncode == 4
    assert "too short" in r.stderr
    # dual family norms exceed double range, so no certified domain
    r = run_cli("gk", "--model", "pseudo-bosonic", "--j", "0.1",
                "--n-terms", "14", "--out", out)
    assert r.returncode == 4
    assert "cannot be certified" in r.stderr
    # a tolerance that no series tail can meet
    r = run_cli("gk", "--model", "harmonic", "--tol", "state=1e-30", "--grid-n", "65",
                "--out", out)
    assert r.returncode == 4
    assert "above the requested tolerance 1e-30" in r.stderr


def test_gk_spectrum_file_gives_a_finite_domain(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([2.0 - 2.0 * 0.5 ** n for n in range(40)]))
    out = tmp_path / "o"
    r = run_cli("gk", "--model", "deformed-harmonic", "--spectrum-file",
                str(spec), "--j", "0.5", "--grid-n", "1025", "--out", str(out))
    assert r.returncode == 0
    rep = read_json(out / "gk-state.json")
    assert rep["spectrum"]["source"] == "file"
    assert rep["domain"]["j_min"] != "inf"
    assert float(rep["domain"]["radius"]) == pytest.approx(2.0, abs=1e-9)
    # the label beyond the certified domain is refused, not truncated
    r = run_cli("gk", "--model", "deformed-harmonic", "--spectrum-file",
                str(spec), "--j", "3", "--grid-n", "1025",
                "--out", str(tmp_path / "o2"))
    assert r.returncode == 4
    assert "outside the certified domain" in r.stderr

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    r = run_cli("gk", "--model", "deformed-harmonic", "--spectrum-file",
                str(bad), "--out", str(tmp_path / "o3"))
    assert r.returncode == 2


def test_gk_refuses_coincident_levels_before_writing_a_file(tmp_path):
    # E_0 = E_1 keeps |E_n| = n above the ground level, so the exponential
    # density is solved, but the resolution trace cannot separate the two levels
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([1, 1] + list(range(2, 26))))
    out = tmp_path / "o"
    r = run_cli("gk", "--model", "harmonic", "--spectrum-file", str(spec), "--j", "0.3",
                "--out", str(out))
    assert r.returncode == 4
    assert r.stderr == ("susyq: spectrum has (near-)coincident eigenvalues (min gap 0); "
                        "the angle average cannot separate them\n")
    assert list(out.iterdir()) == []


def test_gk_and_the_deformed_harmonic_suite_read_one_pair(tmp_path):
    # J = 1, 26 terms and tol 1e-8 are the command's defaults and the suite's
    # labels; the resolution traces differ by design (26 levels against 12)
    from susyq import cli
    from susyq.numerics import Grid
    from susyq.suites import verify_model

    out = tmp_path / "o"
    assert cli.main(["gk", "--model", "deformed-harmonic", "--gamma", "0.4",
                     "--grid-n", "1025", "--out", str(out)]) == 0
    values = read_json(out / "gk-state.json")["values"]
    states = {c.check: c.residual
              for c in verify_model("deformed-harmonic", grid=Grid(12, 1025)).sections["states"]}
    assert abs(complex(*values["pair_norm_coefficients"]) - 1.0) == states[
        "state pairing is one (coefficient route)"]
    assert abs(complex(*values["pair_norm_grid"]) - 1.0) == states[
        "state pairing is one (grid route)"]
    assert abs(complex(*values["action_identity"]) - 1.0) == states[
        "energy pairing returns the action label"]
    assert values["lowering_defect"] == states["states are lowering-operator eigenvectors"]


@pytest.mark.parametrize("entries", [
    [[True, 0], 2, 4],  # a bool inside a pair, as a top-level bool, is no number
    [0, [2, False], 4],
    [0, float("nan"), 4],  # json writes NaN and Infinity, and reads them back
    [0, 2, [4, float("-inf")]],
    [0, 10**400, 4],  # an integer that no double holds
], ids=["bool-re", "bool-im", "nan", "infinity", "huge-integer"])
def test_gk_spectrum_file_refuses_bools_and_non_finite_numbers(tmp_path, capsys, entries):
    from susyq import cli

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(entries))
    assert cli.main(["gk", "--model", "harmonic", "--spectrum-file", str(spec),
                     "--grid-n", "257", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("susyq: bad spectrum entry")


def test_gk_needs_a_model(tmp_path):
    r = run_cli("gk", "--wA", "x", "--wB", "x", "--out", str(tmp_path / "o"))
    assert r.returncode == 2


def test_grid_env_override_and_flag_precedence(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r = run_cli("potentials", "--model", "harmonic", "--out", str(out1),
                env_extra={"SUSYQ_GRID_N": "513"})
    assert r.returncode == 0
    assert len(read_csv(out1 / "potentials.csv")) == 1 + 513
    r = run_cli("potentials", "--model", "harmonic", "--grid-n", "257",
                "--out", str(out2), env_extra={"SUSYQ_GRID_N": "513"})
    assert r.returncode == 0
    assert len(read_csv(out2 / "potentials.csv")) == 1 + 257


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "black-scholes",
        "bind": {"r": 2.0, "v0": 1.0},
        "grid": {"L": 10.0, "N": 257},
        "_ignored_": 5, "grid_l": 6,  # only grid.L sets the half-width
        "out": str(tmp_path / "from-config"),
    }))
    r = run_cli("potentials", "--config", str(cfg))
    assert r.returncode == 0
    meta = read_json(tmp_path / "from-config" / "potentials-meta.json")
    assert meta["params"] == {"r": 2.0, "v0": 1.0}
    assert meta["grid"] == {"L": 10.0, "N": 257}

    r = run_cli("potentials", "--config", str(cfg), "--bind", "r=0.5", "--grid-l", "9",
                "--out", str(tmp_path / "flag-wins"))
    assert r.returncode == 0
    meta = read_json(tmp_path / "flag-wins" / "potentials-meta.json")
    assert meta["params"]["r"] == 0.5
    assert meta["grid"] == {"L": 9.0, "N": 257}


@pytest.mark.parametrize("command", ["potentials", "vacua"])
def test_tables_do_not_read_the_pseudo_bosonic_duals(tmp_path, command):
    # a k past the dual limit still has the pair and its vacua
    r = run_cli(command, "--model", "pseudo-bosonic", "--bind", "k=-80", "--grid-n", "65",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr


def test_vacua_report_and_log_table(tmp_path):
    out = tmp_path / "o"
    r = run_cli("vacua", "--model", "black-scholes", "--bind", "r=1",
                "--out", str(out))
    assert r.returncode == 0
    rows = read_csv(out / "vacua.csv")
    assert rows[0] == [
        "x",
        "phi0_1_logabs", "phi0_1_phase",
        "phi0_2_logabs", "phi0_2_phase",
        "psi0_1_logabs", "psi0_1_phase",
        "psi0_2_logabs", "psi0_2_phase",
    ]
    rep = read_json(out / "vacua-report.json")
    flags = [rec["in_l2"] for rec in rep["records"]]
    assert flags == [False, True, False, True]
    assert all(rec["annihilation_residual"] < 1e-6 for rec in rep["records"])


@pytest.mark.parametrize("rates", ["nan", "1,inf", "-inf,1", "1e400"])
@pytest.mark.parametrize("numeric", [[], ["--numeric"]])
def test_rates_must_be_finite(tmp_path, capsys, rates, numeric):
    from susyq import cli

    out = tmp_path / "o"
    assert cli.main(["bs-classify", f"--r-values={rates}", *numeric, "--grid-n", "65",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("susyq: r_values entry must be finite")
    assert not (out / "bs-classification.csv").exists()


def test_bs_classification_table(tmp_path):
    out = tmp_path / "o"
    r = run_cli("bs-classify", "--numeric", "--grid-n", "1025",
                "--out", str(out))
    assert r.returncode == 0
    rows = read_csv(out / "bs-classification.csv")
    assert rows[0] == ["r", "phi0_1", "phi0_2", "psi0_1", "psi0_2",
                       "numeric_agrees"]
    assert [row[0] for row in rows[1:]] == ["2", "1", "0.5", "-0.5", "-1", "-2"]
    assert all(row[-1] == "true" for row in rows[1:])


def test_json_format_keeps_native_types(tmp_path):
    out = tmp_path / "o"
    r = run_cli("bs-classify", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    rows = read_json(out / "bs-classification.json")
    assert rows[0]["r"] == 2.0
    assert rows[0]["phi0_2"] is True


def test_expression_valued_binding_reaches_the_model(tmp_path):
    out = tmp_path / "o"
    r = run_cli("potentials", "--model", "deformed-harmonic",
                "--bind", "q=0.4 * tanh(x) + 0.5", "--grid-n", "257",
                "--out", str(out))
    assert r.returncode == 0
    meta = read_json(out / "potentials-meta.json")
    assert meta["params"]["q"] == "0.4 * tanh(x) + 0.5"
