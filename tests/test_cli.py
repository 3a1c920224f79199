"""End-to-end CLI behaviour: exit codes, artifacts, determinism."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fbflows import analysis, certificates, cli, flows, integrate, problems

IDENTITY_2D = {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return cli.main(args)


def test_list_prints_registry(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) >= 3
    text = "\n".join(out)
    for name in ("quadratic-2d", "sc-lasso-20d", "skew-rotation"):
        assert name in text


def test_certify_writes_certificate(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"alpha": 0.5, "eta": 1.0, "lambda": 1.0},
    })
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["system"] == "fb1"
    assert doc["derived"]["C"] == 0.5


def test_certify_failure_names_inequality(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"alpha": 2.0, "eta": 1.0, "lambda": 1.0},
    })
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "alpha < 2*rho*beta^2*lambda_lower violated" in err


def test_certify_accepts_a_ramp_that_rounds_at_its_start(tmp_path):
    # lambda(0) of this exp_ramp misses its start by an ulp of its end (1.5e-8)
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "gamma": 1e5,
                   "lambda": {"profile": "exp_ramp", "start": 38036474.43400834,
                              "end": 133040443.7345683, "rate": 0.5}},
    })
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert round(doc["derived"]["gamma_lower"], 2) == 10071.78


def test_unknown_problem_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "rosenbrock",
        "system": "fb1",
        "params": {"alpha": 0.5, "eta": 1.0, "lambda": 1.0},
    })
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_incompatible_system_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "grad1",
        "params": {"alpha": 0.5, "lambda": 1.0},
    })
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "incompatible system" in capsys.readouterr().err


def test_nonsmooth_instance_rejected_for_gradient_flows(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "sc-lasso-20d",
        "system": "grad2",
        "params": {"alpha": 1.5, "lambda": 1.6875, "gamma": 2.45},
    })
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "nonsmooth" in capsys.readouterr().err


@pytest.mark.parametrize("doc, fragment", [
    ({"problem": "quadratic-2d", "system": "fb1",
      "params": {"rho": 2.0, "alpha": 0.5, "eta": 1.0, "lambda": 1.0}},
     "cannot be overridden"),
    ({"problem": "quadratic-2d", "system": "warp",
      "params": {}}, "'system'"),
    ({"problem": "quadratic-2d", "system": "grad1",
      "params": {"eta": 1.0, "alpha": 0.5, "lambda": 1.0}}, "do not apply"),
    ({"system": "fb1", "params": {}}, "'problem'"),
    ({"problem": {"kind": "quadratic", "Q": [[1.0]]}, "system": "grad1",
      "params": {"alpha": 0.5, "lambda": 1.0}}, "bad inline problem descriptor"),
    ({"problem": "quadratic-2d", "system": "grad1",
      "params": {"alpha": 0.5, "lambda": 1.0}, "seed": -1}, "'seed'"),
    # a misspelt block is not silently replaced by the defaults
    ({"problem": "skew-rotation", "system": "fb2",
      "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0, "gamma": 11.0},
      "integrater": {"t_end": -5}}, "unknown config keys ['integrater']"),
    ({"problem": "skew-rotation", "system": "fb1",
      "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0},
      "initial": {"x0": [3.0, -1.0], "x1": [0.0, 0.0]}}, "unknown 'initial' keys ['x1']"),
], ids=["rho-override", "bad-system", "foreign-param", "no-problem",
        "bad-descriptor", "bad-seed", "unknown-top-level-key", "unknown-initial-key"])
def test_malformed_configs_exit_4(tmp_path, capsys, doc, fragment):
    cfg = write_config(tmp_path, doc)
    assert run(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("entries, fragment", [
    ({"output_dir": 5}, "'output_dir' must be a string"),
    ({"output_dir": ["a"]}, "'output_dir' must be a string"),
    ({"seed": True}, "'seed' must be a nonnegative integer"),
], ids=["output_dir-int", "output_dir-list", "seed-bool"])
def test_output_dir_and_seed_are_validated(tmp_path, monkeypatch, capsys, entries,
                                           fragment):
    # no --out, so the config's output_dir is the one used
    monkeypatch.chdir(tmp_path)
    doc = {"problem": "skew-rotation", "system": "fb1",
           "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0}, **entries}
    assert cli.execute(doc, "certify", quiet=True) == 4
    assert fragment in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_seed_override_follows_the_config_rule(tmp_path, capsys):
    # --seed -1 is rejected like "seed": -1, before any work and any output
    cfg = write_config(tmp_path, FB1_VERIFY)
    out = tmp_path / "o"
    assert run(["verify", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 4
    assert "'seed' must be a nonnegative integer" in capsys.readouterr().err
    assert cli.execute(FB1_VERIFY, "certify", out_dir=str(out), seed=True,
                       quiet=True) == 4
    assert not out.exists()
    assert run(["certify", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0


def test_invalid_json_exit_4(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["certify", "--config", str(path)]) == 4
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_flag_exit_4(capsys):
    assert run(["certify"]) == 4
    assert "--config is required" in capsys.readouterr().err


def test_unreadable_config_exit_4(tmp_path, capsys):
    assert run(["certify", "--config", str(tmp_path / "absent.json")]) == 4
    assert "cannot read" in capsys.readouterr().err


def _exit_code(args):
    """main's exit code, also when the argument parser exits."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, message", [
    (["frobnicate"], "unknown command 'frobnicate'\n"),
    (["certify", "--seed", "x"], "config error: 'seed' must be a nonnegative integer"),
    (["certify", "--frobnicate"], "fbflows: error: unrecognized arguments: --frobnicate"),
], ids=["unknown-command", "seed-not-an-integer", "unknown-flag"])
def test_command_line_errors_exit_4(tmp_path, capsys, args, message):
    # exit 2 is the unknown-problem code, so the parser's usage errors exit 4
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {**FB1_VERIFY, "output_dir": str(out)})
    assert _exit_code(args + ["--config", cfg]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert _exit_code(["--help"]) == 0
    assert "usage: fbflows" in capsys.readouterr().out


@pytest.mark.parametrize("rho, alpha, delta, message", [
    (3.0, 0.5, 0.5, "step scale eta must be positive and finite, got nan"),
    (1.0, 0.0, 0.5, "alpha must lie in (0, 1), got 0.0"),
    (1.0, 0.5, 1.0, "delta must lie in (0, 1), got 1.0"),
    (1.0, 1.5, 0.5, "alpha must lie in (0, 1), got 1.5"),
], ids=["eta-nan", "alpha-zero", "delta-one", "alpha-above-1"])
def test_fb2_simulate_without_a_step_scale_exits_1(tmp_path, capsys, rho, alpha, delta,
                                                   message):
    # simulate with a t_end certifies nothing; fb2_eta validates (alpha, delta)
    # as certify_fb2 does, and its nan (1/eta = 7/3 - 3 at rho 3) stops the flow
    doc = {**FB2_VERIFY, "problem": {"kind": "skew_rotation", "rho": rho, "c": [1.0, 0.0]},
           "params": {**FB2_VERIFY["params"], "alpha": alpha, "delta": delta}}
    assert cli.execute(doc, "simulate", out_dir=str(tmp_path / "o"), quiet=True) == 1
    assert "run failed: " + message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_an_integration_error_writes_error_json(tmp_path, capsys, monkeypatch, command):
    # a step budget of 5 on a lambda ramp, which runs the step loop: the run stops
    # with "step budget exhausted"; the stderr line and exit 1 stay, and
    # error.json holds the message and its diagnostics
    monkeypatch.setattr(integrate, "MAX_STEPS", 5)
    out = tmp_path / "o"
    assert cli.execute(FB1_RAMP, command, out_dir=str(out), quiet=True) == 1
    assert "run failed: step budget exhausted" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["error.json"]
    doc = json.loads((out / "error.json").read_text())
    assert doc["command"] == command and doc["error"] == "step budget exhausted"
    diag = doc["diagnostics"]
    assert set(diag) == {"t", "accepted", "rejected"}
    assert diag["accepted"] + diag["rejected"] == 5 and 0.0 < diag["t"] < 20.0


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_an_overflowing_first_rhs_exits_1_with_error_json(tmp_path, capsys, command):
    # x0 = (1e300, 0) overflows the starting-step estimate of the step loop that
    # a lambda ramp runs: an IntegrationError with exit 1 and error.json, not an
    # exception escaping execute.  The overflow itself is the input
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert cli.execute({**FB1_RAMP, "initial": {"x0": [1e300, 0.0]}}, command,
                           out_dir=str(out), quiet=True) == 1
    assert "run failed: no finite starting step" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["error.json"]
    doc = json.loads((out / "error.json").read_text(), parse_constant=_not_rfc_8259)
    assert doc["command"] == command and doc["error"] == "no finite starting step"
    # RFC 8259 JSON has no Infinity: the overflowed d1 is the string "inf"
    assert doc["diagnostics"]["t"] == 0.0 and doc["diagnostics"]["d1"] == "inf"


def _not_rfc_8259(constant):
    raise ValueError("%s is not RFC 8259 JSON" % constant)


def test_initial_state_validation(tmp_path, capsys):
    base = {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0},
        "integrator": {"t_end": 1.0},
    }
    cfg = write_config(tmp_path, {**base, "initial": {"x0": [3.0, -1.0],
                                                      "v0": [0.0, 0.0]}})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "first order" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**base, "initial": {"x0": [1.0, 2.0, 3.0]}})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "dimension 2" in capsys.readouterr().err


FB1_VERIFY = {
    "problem": "skew-rotation",
    "system": "fb1",
    "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0},
    "integrator": {"t_end": 20.0, "rel_tol": 1e-9, "abs_tol": 1e-12},
    "initial": {"x0": [3.0, -1.0]},
}


# a ramp keeps a constant-coefficient config on the step loop, not the eig route
FB1_RAMP = {**FB1_VERIFY, "params": {**FB1_VERIFY["params"], "lambda": {
    "profile": "exp_ramp", "start": 2.0, "end": 1.0, "rate": 0.5}}}


FB2_VERIFY = {
    "problem": "skew-rotation",
    "system": "fb2",
    "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0, "gamma": 11.0},
    "integrator": {"t_end": 23.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
    "initial": {"x0": [3.0, -1.0], "v0": [0.0, 0.0]},
}
FB2_RAMP = {**FB2_VERIFY, "params": {**FB2_VERIFY["params"], "lambda": 60.0, "gamma": {
    "profile": "exp_ramp", "start": 15, "end": 14, "rate": 0.5}}}


GRAD1_VERIFY = {
    "problem": IDENTITY_2D,
    "system": "grad1",
    "params": {"alpha": 2.0, "lambda": 1.0},
    "integrator": {"t_end": 12.0, "rel_tol": 1e-11, "abs_tol": 1e-14},
    "initial": {"x0": [3.0, 0.0]},
}


GRAD2_VERIFY = {
    "problem": IDENTITY_2D,
    "system": "grad2",
    "params": {"alpha_bar": 1.5, "lambda": 1.6875, "gamma": 2.4519716382329886},
    "integrator": {"t_end": 22.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
    "initial": {"x0": [2.0, 1.0], "v0": [0.0, 0.0]},
}


def _patched(doc, block, **entries):
    return {**doc, block: {**doc[block], **entries}}


SKEW_INLINE = {"kind": "skew_rotation", "rho": 1.0, "c": [1.0, 0.0]}
LASSO_INLINE = {"kind": "sc_lasso", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [-2.0, 0.5],
                "w": 1.0}


def _inline(problem, **entries):
    """FB1_VERIFY (certifiable at rho = beta = 1) on an inline problem, patched."""
    return {**FB1_VERIFY, "problem": {**problem, **entries}}


@pytest.mark.parametrize("doc, code, fragment", [
    (_patched(FB2_VERIFY, "initial", x0=["a", "b"]), 4, "'x0' must be a nonempty list"),
    (_patched(FB2_VERIFY, "initial", x0=[float("nan"), 0.0]), 4,
     "'x0' must be a nonempty list"),
    (_patched(FB2_VERIFY, "initial", v0=["x", 0.0]), 4, "'v0' must be a nonempty list"),
    (_patched(FB1_VERIFY, "initial", x0=[True, 0.0]), 4, "'x0' must be a nonempty list"),
    (_patched(FB2_VERIFY, "initial", v0=[True, 0.0]), 4, "'v0' must be a nonempty list"),
    (_patched(FB2_VERIFY, "integrator", t_end="long"), 4, "'t_end' must be"),
    (_patched(FB2_VERIFY, "integrator", rel_tol="tight"), 4, "'rel_tol' must be"),
    (_patched(FB2_VERIFY, "integrator", abs_tol="tiny"), 4, "'abs_tol' must be"),
    (_patched(FB2_VERIFY, "integrator", n_dense="many"), 4, "'n_dense' must be"),
    (_patched(GRAD2_VERIFY, "params", alpha_bar="1.5"), 4, "'alpha_bar' must be"),
    (_patched(GRAD2_VERIFY, "params", alpha_bar=-1.0), 4, "'alpha_bar' must be"),
    (_patched(GRAD2_VERIFY, "params", alpha=1.5, alpha_bar=-1.0), 4,
     "'alpha_bar' must be"),
    (_patched(GRAD2_VERIFY, "params", alpha=1.5, alpha_bar=0.5), 1,
     "alpha_bar > 1 violated"),
    (_patched(FB2_VERIFY, "integrator", t_end=0.0), 4, "'t_end' must be positive"),
    (_patched(FB1_VERIFY, "integrator", t_end=-1.0), 4, "'t_end' must be positive"),
    (_patched(FB2_VERIFY, "integrator", rel_tol=-1.0), 4, "'rel_tol' must be positive"),
    (_patched(FB2_VERIFY, "integrator", abs_tol=0.0), 4, "'abs_tol' must be positive"),
    (_patched(FB1_VERIFY, "integrator", fixed_step=-0.1), 4,
     "unknown integrator settings ['fixed_step']"),
    (_patched(FB1_VERIFY, "integrator", fixed_step=0.0), 4,
     "unknown integrator settings ['fixed_step']"),
    (_patched(FB2_VERIFY, "integrator", n_dense=0), 4, "'n_dense' must be an integer"),
    (_patched(FB2_VERIFY, "integrator", n_dense=-5), 4, "'n_dense' must be an integer"),
    (_patched(FB2_VERIFY, "integrator", n_dense=2.7), 4, "'n_dense' must be an integer"),
    (_patched(FB2_VERIFY, "integrator", t_end=10 ** 400), 4, "'t_end' must be a finite"),
    (_patched(FB1_VERIFY, "params", **{"lambda": 10 ** 400}), 4,
     "'lambda' must be a finite number"),
    (_patched(FB1_VERIFY, "params", alpha=10 ** 400), 4, "'alpha' must be a finite number"),
    (_patched(FB1_VERIFY, "params", eta=10 ** 400), 4, "'eta' must be a finite number"),
    (_patched(FB2_VERIFY, "params", gamma={"profile": "exp_ramp", "start": 10 ** 400,
                                           "end": 11.0, "rate": 0.5}), 4,
     "'gamma' exp_ramp 'start' must be a finite number"),
    (_inline(IDENTITY_2D, Q=[[10 ** 400, 0.0], [0.0, 1.0]]), 4, "'Q' must hold finite"),
    (_inline(IDENTITY_2D, b=[10 ** 400, 0.0]), 4, "'b' must hold finite"),
    (_inline(SKEW_INLINE, c=[10 ** 400, 0.0]), 4, "'c' must hold finite"),
    (_inline(SKEW_INLINE, rho=10 ** 400), 4, "'rho' must be a finite number"),
    (_inline(LASSO_INLINE, w=10 ** 400), 4, "'w' must be a finite number"),
    (_inline(SKEW_INLINE, rho="1.0"), 4, "'rho' must be a finite number"),
    (_inline(SKEW_INLINE, rho=True), 4, "'rho' must be a finite number"),
    (_inline(LASSO_INLINE, w="0.5"), 4, "'w' must be a finite number"),
    (_inline(LASSO_INLINE, w=True), 4, "'w' must be a finite number"),
    (_inline(SKEW_INLINE, rho=float("inf")), 4, "'rho' must be a finite number"),
    (_inline(LASSO_INLINE, w=float("inf")), 4, "'w' must be a finite number"),
], ids=["x0-strings", "x0-nan", "v0-string", "x0-bool", "v0-bool", "t_end-string",
        "rel_tol-string", "abs_tol-string", "n_dense-string", "alpha_bar-string",
        "alpha_bar-negative",
        "alpha_bar-negative-with-alpha", "alpha_bar-below-one", "t_end-zero-fb2",
        "t_end-negative-fb1", "rel_tol-negative", "abs_tol-zero", "fixed_step-negative",
        "fixed_step-zero", "n_dense-zero", "n_dense-negative", "n_dense-fraction",
        "t_end-huge-int", "lambda-huge-int", "alpha-huge-int", "eta-huge-int",
        "exp_ramp-start-huge-int", "Q-huge-int", "b-huge-int", "c-huge-int",
        "rho-huge-int", "w-huge-int", "rho-string", "rho-bool", "w-string", "w-bool",
        "rho-inf", "w-inf"])
def test_number_validation_exit_codes(tmp_path, capsys, doc, code, fragment):
    # a malformed or out-of-range number is a config error (4); an alpha_bar
    # in (0, 1] is well formed and fails its certificate (1)
    cfg = write_config(tmp_path, doc)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == code
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "simulate", "verify", "sweep"])
@pytest.mark.parametrize("block, entry, fragment", [
    ("integrator", {"t_end": -1}, "'t_end' must be positive"),
    ("integrator", {"n_dense": -3}, "'n_dense' must be an integer"),
    ("integrator", {"rel_tol": "x"}, "'rel_tol' must be a finite number"),
    ("initial", {"x0": ["a", 0.0]}, "'x0' must be a nonempty list"),
    ("sweep", {"gamma": {"values": [1.0]}}, "does not apply"),
    ("sweep", {"eta": {"min": 1.0}}, "min/max/num"),
    ("params", {"eta": "x"}, "'eta' must be a finite number"),
    ("params", {"lambda": {"profile": "bogus"}}, "unknown profile"),
    ("sweep", {"lambda": {"values": [-1.0]}}, "'lambda' must be positive and finite"),
    ("sweep", {"eta": {"min": 0.25, "max": 1.0, "num": 3, "lgo": True}},
     "unknown sweep 'eta' keys ['lgo']"),
    ("sweep", {"eta": {"min": 0.25, "max": 1.0, "num": 3, "log": "no"}},
     "sweep 'eta' 'log' must be true or false"),
    ("sweep", {"eta": {"values": [0.5], "log": True, "num": 7}},
     "sweep 'eta' mixes 'values' with ['log', 'num']"),
], ids=["t_end-negative", "n_dense-negative", "rel_tol-string", "x0-string",
        "sweep-foreign-param", "sweep-no-num", "params-eta-string",
        "params-unknown-profile", "sweep-negative-lambda", "sweep-unknown-axis-key",
        "sweep-log-not-bool", "sweep-values-mixed"])
def test_every_command_validates_the_whole_config(tmp_path, capsys, command, block,
                                                  entry, fragment):
    # the config is parsed before any command runs, including the blocks that
    # the command does not use, every params value and every swept value
    doc = _patched({**FB1_VERIFY, "sweep": {"eta": {"values": [0.5, 1.0]}}},
                   block, **entry)
    out = tmp_path / "o"
    assert cli.execute(doc, command, out_dir=str(out), quiet=True) == 4
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_cli_imports_numpy_only():
    # numpy is the only runtime dependency: importing the CLI pulls in no scipy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fbflows.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_simulate_writes_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "quadratic-2d",
        "system": "grad1",
        "params": {"lambda": 1.0},
        "integrator": {"t_end": 5.0},
        "initial": {"x0": [4.0, -2.0]},
    })
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "plot_metrics.gp").exists()
    assert not (out / "report.json").exists()
    assert "simulated grad1 on quadratic-2d" in capsys.readouterr().out


def test_verify_passes_and_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, FB1_VERIFY)
    out = tmp_path / "run1"
    assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    for name in ("certificate.json", "trajectory.csv", "envelope.csv",
                 "plot_metrics.gp", "report.json"):
        assert (out / name).exists(), name
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["system"] == "fb1"
    assert doc["envelope"]["which"] == "h"
    assert doc["envelope"]["violating_samples"] == 0
    assert doc["audit"]["passed"] is True
    assert doc["audit"]["cocoercivity_violation_fraction"] > 0.9
    assert "chain" not in doc and "lyapunov" not in doc
    # envelope table starts at or above the metric
    env = np.genfromtxt(out / "envelope.csv", delimiter=",", names=True)
    traj = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert env["envelope"][0] >= traj["h"][0] - 1e-12


@pytest.mark.parametrize("n_dense", [500, 64])
def test_verify_writes_the_even_grid_and_checks_every_sample(tmp_path, n_dense):
    # the README fb2 config with its gamma ramp, which runs the step loop
    doc = {**FB2_RAMP, "integrator": {**FB2_RAMP["integrator"], "n_dense": n_dense}}
    out = tmp_path / "run"
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 0
    t_end = doc["integrator"]["t_end"]
    traj = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    # the rows are the grid times, or the step ends standing in for them
    assert traj.size == n_dense
    assert np.all(np.abs(traj["t"] - np.linspace(0.0, t_end, n_dense))
                  <= 1e-12 * t_end)
    assert np.all(np.diff(traj["t"]) > 0.0)
    table = [line.split(",")[0] for line in (out / "trajectory.csv").read_text().splitlines()]
    envelope = [line.split(",")[0] for line in (out / "envelope.csv").read_text().splitlines()]
    assert envelope[1:] == table[1:]
    report = json.loads((out / "report.json").read_text())
    # the checks also read the accepted step ends that the table leaves out
    assert report["envelope"]["n_samples"] > n_dense
    assert report["lyapunov"]["n_samples"] == report["envelope"]["n_samples"]
    assert report["integrator"]["solver"] == "dop853(5,3)"
    assert sorted(report["integrator"]) == ["abs_tol", "accepted", "field", "h_max", "h_min",
                                            "rejected", "rel_tol", "rhs_evaluations",
                                            "solver"]
    assert report["integrator"]["accepted"] > 0
    assert report["integrator"]["field"] == "matrix"
    assert 0.0 < report["integrator"]["h_min"] <= report["integrator"]["h_max"] <= t_end


DETERMINISM_CASES = {  # name: (config, integrator.field)
    "eig-route": (FB1_VERIFY, "matrix"),
    "ramp-stage-loop": (FB2_RAMP, "matrix"),
    "kinked-loop": ({"problem": "sc-lasso-20d", "system": "fb1",
                     "params": {"alpha": 0.05, "eta": 0.07, "lambda": 1.0},
                     "initial": {"x0": np.linspace(-2.0, 2.0, 20).tolist()}}, "kinked"),
}


def test_verify_is_deterministic(tmp_path):
    # one config per integrator path, whose stage sums follow BLAS order: a
    # second run writes the same report.json, certificate.json and CSVs
    for name, (doc, field) in DETERMINISM_CASES.items():
        cfg = write_config(tmp_path, doc, name + ".json")
        out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
        assert run(["verify", "--config", cfg, "--out", str(out1), "--quiet"]) == 0, name
        assert run(["verify", "--config", cfg, "--out", str(out2), "--quiet"]) == 0, name
        report = json.loads((out1 / "report.json").read_text())
        assert report["integrator"]["field"] == field, name
        for artifact in ("trajectory.csv", "envelope.csv", "report.json", "certificate.json"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), name


def constant(v):
    return {"profile": "constant", "value": v}


@pytest.mark.parametrize("spell", [float, constant], ids=["number", "constant-profile"])
def test_verify_grad2_passes_on_smooth_instance(tmp_path, capsys, spell):
    # a number and {"profile": "constant"} are the same schedule, alpha_bar included
    cfg = write_config(tmp_path, {
        "problem": IDENTITY_2D,
        "system": "grad2",
        "params": {"alpha": spell(1.5), "lambda": spell(1.6875),
                   "gamma": spell(2.4519716382329886)},
        "integrator": {"t_end": 22.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
        "initial": {"x0": [2.0, 1.0], "v0": [0.0, 0.0]},
    })
    out = tmp_path / "g2"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["certificate"]["inputs"]["alpha_bar"] == 1.5
    assert doc["envelope"]["which"] == "gap"
    assert doc["chain"]["passed"] is True
    assert doc["m_raw"] > 0.0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("doc, x_star", [(FB1_VERIFY, [0.5, 0.5]),
                                          (GRAD1_VERIFY, [0.0, 0.0]),
                                          (FB2_VERIFY, [0.5, 0.5]),
                                          (GRAD2_VERIFY, [0.0, 0.0])],
                         ids=["fb1", "grad1", "fb2", "grad2"])
def test_verify_passes_at_rest_at_solution(tmp_path, doc, x_star):
    # x0 = x*, v0 = 0 gives the lemma constant M = 0, which the bound admits
    cfg = write_config(tmp_path, _patched(doc, "initial", x0=x_star))
    out = tmp_path / "rest"
    assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    if doc["system"] in ("fb2", "grad2"):  # a first-order report has no M
        assert report["m_raw"] == 0.0
    assert report["passed"] is True
    # the matrix field is anchored at x0, where the oracles' field is exactly
    # zero, so the state never leaves x0 by a single bit
    assert report["integrator"]["field"] == "matrix"
    traj = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    for i, xi in enumerate(x_star):
        assert np.all(traj["x_%d" % i] == xi)


def test_verify_grad2_within_ulps_of_the_solution(tmp_path, capsys):
    # the gap at x0 = x* + 2 ulps rounds to -1.1e-16; the envelope anchors at 0
    problem = {"kind": "quadratic", "Q": [[1.2, 0.3], [0.3, 1.0]], "b": [0.5, -1.0]}
    inst = problems.from_descriptor(problem)
    s = certificates.suggest_constants_grad2(inst.rho, inst.beta)
    x_star = inst.x_star
    x0 = [float(x_star[0] - 2.0 * np.spacing(x_star[0])), float(x_star[1])]
    doc = {"problem": problem, "system": "grad2",
           "params": {"alpha": s.alpha, "lambda": s.lam, "gamma": s.gamma},
           "initial": {"x0": x0}}
    out = tmp_path / "near"
    # the exit code stays 1: the fitted-rate gate fits the gap's noise floor
    cli.execute(doc, "verify", out_dir=str(out), quiet=True)
    assert "run failed" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["envelope"]["violating_samples"] == 0
    assert report["m_raw"] == 0.0


def test_verify_grad1_far_from_the_origin_keeps_the_gap_within_its_floor(tmp_path, capsys):
    # F(x*) is about -1.8e6, so the gap's rounding reaches 2 ulps of it, 4.7e-10:
    # below a fixed -1e-10 floor, but within -(1e-10 + 4 eps (|F(x)| + |F(x*)|))
    doc = {"problem": {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.5]],
                       "b": [1e3, -2e3]},
           "system": "grad1", "params": {"alpha": 1.0, "lambda": 1.0},
           "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-13},
           "initial": {"x0": [2.0, -3.0]}}
    out = tmp_path / "far"
    # the exit code stays 1: the fitted-rate gate fits the gap's rounding floor
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 1
    assert "run failed" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["envelope"]["violating_samples"] == 0
    assert report["envelope"]["rate_ok"] is False
    assert report["chain"]["passed"] and report["audit"]["passed"]
    gap = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)["gap"]
    assert gap.min() < -1e-10


def test_verify_fb2_m_is_the_initial_lyapunov_value(tmp_path):
    doc = _patched(FB2_VERIFY, "initial", v0=[1.0, -2.0])
    out = tmp_path / "moving"
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 0
    report = json.loads((out / "report.json").read_text())
    # x0 - x* = (2.5, -1.5): h(0) = 8.5/2, h'(0) = 2.5 + 3 = 5.5, u(0) = 5, and
    # b2(0) = (gamma/lambda)*(rho + 1/eta - S)/(2*rho + 1/eta) = (11/40)*(3/8)
    hand = 5.5 + (11.0 - 1.0) * 4.25 + (11.0 / 40.0) * 0.375 * 5.0
    assert report["m_raw"] == report["lyapunov"]["initial"] == hand == 48.515625


def test_verify_grad1_on_zero_weight_lasso(tmp_path):
    # w = 0 leaves no nonsmooth part, so the gradient flows accept the instance
    cfg = write_config(tmp_path, {
        "problem": {"kind": "sc_lasso", "Q": [[1.0, 0.0], [0.0, 4.0]],
                    "b": [-1.0, -4.0], "w": 0.0},
        "system": "grad1",
        "params": {"alpha": 0.5, "lambda": 1.0},
        "integrator": {"t_end": 20.0},
        "initial": {"x0": [3.0, -1.0]},
    })
    out = tmp_path / "lasso0"
    assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["chain"]["passed"] is True


def test_verify_rate_gate_fails_at_value_noise_floor(tmp_path):
    # nonzero optimal value: the gap of the step loop that a lambda ramp runs
    # bottoms out at cancellation noise, so the fitted tail rate cannot reach the
    # certified exponent (the eig route of a constant lambda lands on x* exactly,
    # and a tail of zero gaps skips the rate comparison)
    cfg = write_config(tmp_path, {
        "problem": "quadratic-2d",
        "system": "grad2",
        "params": {"alpha": 40.0, "gamma": 40.0, "lambda": {
            "profile": "exp_ramp", "start": 160.0, "end": 170.0, "rate": 0.5}},
        "integrator": {"t_end": 24.0},
        "initial": {"x0": [2.0, 1.0], "v0": [0.0, 0.0]},
    })
    out = tmp_path / "floor"
    assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is False
    assert doc["envelope"]["rate_ok"] is False


def test_verify_fb2_reports_lyapunov(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0,
                   "gamma": {"profile": "constant", "value": 11.0}},
        "integrator": {"t_end": 23.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
        "initial": {"x0": [3.0, -1.0], "v0": [0.0, 0.0]},
    })
    out = tmp_path / "fb2"
    assert run(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["lyapunov"]["passed"] is True
    assert doc["m_raw"] > 0.0
    assert doc["certificate"]["derived"]["gamma_lower"] == pytest.approx(
        10.840051579497398, rel=1e-12)


@pytest.mark.parametrize("ramp", [False, True], ids=["constant-gamma", "gamma-ramp"])
def test_verify_fb2_at_a_long_horizon_writes_only_finite_numbers(tmp_path, ramp):
    # t_end 800, on the eig route and on the step loop: e^t overflows past
    # t = 709.78, so the drift check reads e^-T L with T = t_end, and report.json
    # parses as RFC 8259 JSON.  The exit code is 1: h sits at its rounding floor
    # for hundreds of time units, so the fitted-rate gate fits a slope near 0, and
    # e^t turns that floor's noise into a drift the Lyapunov check reports
    doc = _patched(FB2_RAMP if ramp else README_FB2, "integrator", t_end=800.0)
    out = tmp_path / "long"
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 1
    report = json.loads((out / "report.json").read_text(), parse_constant=_not_rfc_8259)
    assert report["integrator"]["solver"] == ("dop853(5,3)" if ramp else "eig")
    assert report["envelope"]["violating_samples"] == 0
    assert report["envelope"]["rate_ok"] is False
    assert report["lyapunov"]["shift"] == 800.0 and report["lyapunov"]["passed"] is False
    assert report["m_raw"] == report["lyapunov"]["initial"] > 0.0


def test_certificate_states_its_horizon(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0, "gamma": 11.0},
        "integrator": {"t_end": 23.0},
    })
    out = tmp_path / "horizon"
    assert run(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    inputs = json.loads((out / "certificate.json").read_text())["inputs"]
    assert inputs["t_grid_end"] == 23.0
    assert inputs["n_grid"] == 2000


def test_certify_accepts_exp_ramp_profile(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0,
                   "gamma": {"profile": "exp_ramp", "start": 11.0,
                             "end": 10.9, "rate": 0.2}},
    })
    out = tmp_path / "ramp"
    assert run(["certify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["derived"]["gamma_lower"] < 10.9


def test_sweep_writes_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"eta": 1.0, "lambda": 1.0},
        "sweep": {"alpha": {"values": [0.5, 1.0, 2.5]}},
    })
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,feasible,decay_exponent,gamma_lower,failure"
    assert len(lines) == 4
    assert lines[1].startswith("0.5,1,0.5")
    assert lines[3].startswith("2.5,0,nan")
    assert "alpha < 2*rho*beta^2*lambda_lower violated" in lines[3]
    stdout = capsys.readouterr().out
    assert "2/3 cells feasible" in stdout
    assert "best decay exponent 0.5" in stdout


def test_sweep_validation(tmp_path, capsys):
    base = {"problem": "skew-rotation", "system": "fb1",
            "params": {"eta": 1.0, "lambda": 1.0}}
    cfg = write_config(tmp_path, base)
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "needs a 'sweep' block" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**base, "sweep": {"gamma": {"values": [1.0]}}})
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "does not apply" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**base, "sweep": {"alpha": {"min": 1.0}}})
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "min/max/num" in capsys.readouterr().err
    cfg = write_config(tmp_path, {**base, "integrator": {"t_end": 0.0},
                                  "sweep": {"alpha": {"values": [1.0]}}})
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "'t_end' must be positive" in capsys.readouterr().err
    # values must be a nonempty list of finite numbers, min/max finite
    # numbers and num an integer; each of these used to crash, exit 1 or run
    for spec in [{"values": [None]}, {"values": 5}, {"values": ["abc"]},
                 {"values": "0.5"}, {"values": [True]}, {"values": [float("nan")]},
                 {"values": [10 ** 400]},
                 {"min": "0.1", "max": 1.0, "num": 2},
                 {"min": 0.1, "max": 1.0, "num": 2.7},
                 {"min": 0.1, "max": float("inf"), "num": 2}]:
        cfg = write_config(tmp_path, {**base, "sweep": {"alpha": spec}})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 4, spec
        assert "config error: sweep 'alpha'" in capsys.readouterr().err


def test_sweep_missing_parameter_exit_4(tmp_path, capsys):
    # a parameter that is neither in params nor swept is missing from every
    # cell: a config error, not a grid of infeasible rows
    doc = {"problem": "skew-rotation", "system": "fb1", "params": {"lambda": 1.0},
           "sweep": {"alpha": {"values": [0.5, 1.0]}}}
    out = tmp_path / "o"
    assert cli.execute(doc, "sweep", out_dir=str(out), quiet=True) == 4
    assert "system parameter 'eta' is required" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_parameter_only_in_sweep_block(tmp_path):
    # a swept parameter needs no base value in params
    doc = {"problem": "skew-rotation", "system": "fb1",
           "params": {"alpha": 0.5, "eta": 1.0},
           "sweep": {"lambda": {"values": [0.5, 1.0]}}}
    out = tmp_path / "o"
    assert cli.execute(doc, "sweep", out_dir=str(out), quiet=True) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,feasible,decay_exponent,gamma_lower,failure"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["0.5", "1"], ["1", "1"]]
    assert [float(row[2]) for row in rows] == pytest.approx([1 / 6, 1 / 2], rel=1e-12)


def test_sweep_range_grid(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb1",
        "params": {"lambda": 1.0},
        "sweep": {"alpha": {"min": 0.25, "max": 1.0, "num": 2},
                  "eta": {"values": [0.5, 1.0]}},
    })
    out = tmp_path / "grid"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,eta,feasible,decay_exponent,gamma_lower,failure"
    assert len(lines) == 5


def test_sweep_fb2_golden(tmp_path):
    # pinned sha256 of sweep.csv; explicit values lists keep linspace out of
    # the grid, so the bytes depend only on the certificate arithmetic
    cfg = write_config(tmp_path, {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0, "gamma": 11.0},
        "sweep": {"alpha": {"values": [0.05, 0.2, 0.35, 0.5, 0.65]},
                  "delta": {"values": [0.2, 0.35, 0.5, 0.65, 0.8]}},
    })
    out = tmp_path / "golden"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "c47e669de1132e0d11184dcbe68924469966d48930dcfb4c8801e684764a129c"


def test_sweep_grad2_golden(tmp_path):
    # pinned sha256 of a grad2 sweep.csv over lambda x gamma with feasible
    # cells and cells failing four different inequalities
    cfg = write_config(tmp_path, {
        "problem": "quadratic-2d",
        "system": "grad2",
        "params": {"alpha": 40.0, "lambda": 180.0, "gamma": 40.0},
        "sweep": {"lambda": {"values": [150.0, 165.0, 180.0, 195.0, 210.0]},
                  "gamma": {"values": [36.0, 38.5, 39.5, 40.5, 41.5]}},
    })
    out = tmp_path / "golden"
    assert run(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "a2871842484ca9bcbf1b7026dbdaa616a994ee8e703f399f2797ab3758f21182"


# Goldens over every system: feasible cells, input-range failures and checks
# failing at a ramp's far end.  Each pins the sweep.csv sha256 and the summary lines.
SWEEP_GOLDENS = {
    "fb1-positive": (
        {"problem": "skew-rotation", "system": "fb1",
         "params": {"alpha": 0.5, "eta": 1.0,
                    "lambda": {"profile": "exp_ramp", "start": 1.2, "end": 0.8,
                               "rate": 0.3}},
         "sweep": {"alpha": {"values": [-0.5, 0.25, 0.5, 1.0, 1.6, 2.5]},
                   "eta": {"values": [-1.0, 0.0, 0.25, 0.5, 1.0, 4.0]}}},
        "91f04985a0a056a7ec8917e44d05ff30aebd0e680f6f276f670179528a56ce31",
        ["sweep over alpha+eta: 6/36 cells feasible",
         "best decay exponent 0.275 at {'alpha': 0.5, 'eta': 0.5}"]),
    "grad1": (
        {"problem": "quadratic-2d", "system": "grad1",
         "params": {"alpha": 0.5, "lambda": 1.0},
         "sweep": {"alpha": {"values": [-0.1, 0.1, 0.25, 0.5, 1.0]},
                   "lambda": {"values": [0.5, 1.0, 2.0]}}},
        "f634c3e32e36974c233c524cb38321dc960212132038ac44efae089b5d8a9c9d",
        ["sweep over alpha+lambda: 9/15 cells feasible",
         "best decay exponent 1 at {'alpha': 1.0, 'lambda': 2.0}"]),
    "fb2-gamma-ramp": (
        {"problem": "skew-rotation", "system": "fb2",
         "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0,
                    "gamma": {"profile": "exp_ramp", "start": 11.5, "end": 10.9,
                              "rate": 0.2}},
         "sweep": {"alpha": {"values": [0.05, 0.3, 0.5, 0.75, 1.0]},
                   "delta": {"values": [0.2, 0.5, 0.8, 1.0]}}},
        "cd6fba71646cf5504d5f483b7a7ebe573b11e44f307b5e75a3d24395a5f8e8ad",
        ["sweep over alpha+delta: 1/20 cells feasible",
         "best decay exponent 1 at {'alpha': 0.3, 'delta': 0.5}"]),
    "grad2-alpha-ramp": (
        {"problem": "quadratic-2d", "system": "grad2",
         "params": {"alpha": {"profile": "exp_ramp", "start": 40.0, "end": 39.0,
                              "rate": 0.5},
                    "alpha_bar": 39.0, "lambda": 180.0, "gamma": 40.0},
         "sweep": {"alpha_bar": {"values": [0.5, 1.0, 20.0, 39.0, 39.5]},
                   "gamma": {"values": [36.0, 38.5, 40.0, 40.5]},
                   "lambda": {"values": [170.0, 180.0]}}},
        "a05810861e08439a81519314ce3591e9edc5eb0d8499492f771a82136fc5be5f",
        ["sweep over alpha_bar+gamma+lambda: 8/40 cells feasible",
         "best decay exponent 1 at {'alpha_bar': 20.0, 'gamma': 38.5, 'lambda': 170.0}"]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDENS))
def test_sweep_goldens(tmp_path, capsys, name):
    doc, sha, summary = SWEEP_GOLDENS[name]
    out = tmp_path / "golden"
    assert cli.execute(doc, "sweep", out_dir=str(out)) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == sha
    assert capsys.readouterr().out.splitlines()[:2] == summary


GRAD2_RAMP = {**GRAD2_VERIFY, "params": {
    "alpha": {"profile": "exp_ramp", "start": 1.6, "end": 1.5, "rate": 0.5},
    "lambda": 1.6875, "gamma": 2.4519716382329886},
    "sweep": {"gamma": {"values": [2.4, 2.45]}}}


@pytest.mark.parametrize("command", ["certify", "verify", "sweep"])
def test_grad2_varying_alpha_needs_alpha_bar(tmp_path, capsys, command):
    # a varying alpha(t) is no floor of its own: a config error before any
    # output under every command that certifies, also in every sweep cell
    out = tmp_path / "o"
    assert cli.execute(GRAD2_RAMP, command, out_dir=str(out), quiet=True) == 4
    assert ("config error: grad2 needs 'alpha_bar' when 'alpha' is not constant"
            in capsys.readouterr().err)
    assert not out.exists()
    with_floor = _patched(GRAD2_RAMP, "params", alpha_bar=1.5)
    assert cli.execute(with_floor, command, out_dir=str(tmp_path / "a"), quiet=True) == 0
    # simulate with a t_end certifies nothing, so it needs no floor
    assert cli.execute(GRAD2_RAMP, "simulate", out_dir=str(tmp_path / "s"),
                       quiet=True) == 0


@pytest.mark.parametrize("doc", [
    {**FB1_VERIFY, "problem": "nope"},
    {**FB1_VERIFY, "params": {"alpha": 1.0, "eta": 1.0}},
], ids=["unknown-problem", "no-lambda"])
def test_unknown_command_exits_4_before_any_work(tmp_path, capsys, doc):
    out = tmp_path / "o"
    assert cli.execute(doc, "frobnicate", out_dir=str(out)) == 4
    assert capsys.readouterr().err == "unknown command 'frobnicate'\n"
    assert not out.exists()


def test_simulate_plots_the_certified_metric(tmp_path):
    # fb1 certifies h = |x - x*|^2, also on an instance that has a value gap
    col = integrate.trajectory_columns(2).index("h") + 1
    for command in ("simulate", "verify"):
        out = tmp_path / command
        assert cli.execute(_inline(LASSO_INLINE), command, out_dir=str(out),
                           quiet=True) == 0
        plot = (out / "plot_metrics.gp").read_text()
        assert "using 1:%d with lines title 'h'" % col in plot, command


def test_the_benchmark_tracer_installs_and_restores_its_patches(monkeypatch):
    # benchmarks/tracing.py looks up each name it patches by attribute, so one
    # deleted or renamed under src/ fails here, not only in a traced run
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir,
                                             "benchmarks"))
    import tracing

    def integrator_meta(name, eta):
        # the run path's calls: each is a patch point while the tracer is installed;
        # a lambda ramp, so that the smooth field runs a pair, not the eig route
        inst = problems.get_problem(name)
        flow = flows.fb1_rhs(inst.a, inst.b, eta, flows.Schedule(
            lam=flows.Profile(2.0, 1.0, 0.5), lambda_lower=1.0, lambda_upper=2.0))
        x0 = np.linspace(-2.0, 2.0, inst.dim)
        return integrate.integrate(flow, x0, t_end=2.0).meta

    cases = [("skew-rotation", 1.0), ("sc-lasso-20d", 0.07)]
    before = (cli.execute, flows.Schedule.check, certificates.certify_fb2)
    with tracing.instrumented(tracing.Tracer()):
        assert cli.execute is not before[0]
        traced = [integrator_meta(*case) for case in cases]
    assert (cli.execute, flows.Schedule.check, certificates.certify_fb2) == before
    # a traced flow keeps its smoothness, so it runs the pair (and the steps) of
    # an untraced run: DOP853 on the smooth field, DOPRI5 on the kinked one
    assert traced == [integrator_meta(*case) for case in cases]
    assert [meta["solver"] for meta in traced] == ["dop853(5,3)", "dopri5(4)"]


# The benchmark's tracer replaces these attributes while a request runs, so a
# run path must look each one up at call time, never bind it at import.
PATCH_POINTS = [
    (certificates, "certify_fb1"), (certificates, "certify_grad1"),
    (certificates, "certify_fb2"), (certificates, "certify_grad2"),
    (flows, "fb1_rhs"), (flows, "grad1_rhs"), (flows, "fb2_rhs"), (flows, "grad2_rhs"),
    (flows.Schedule, "check"),
    (integrate, "integrate"), (integrate, "record_metrics"), (integrate, "to_csv"),
    (analysis, "verify_envelope"), (analysis, "verify_lyapunov"),
    (problems, "audit_instance"), (cli, "_cmd_sweep"), (certificates, "certify_grid"),
]
README_FB2 = {**FB2_VERIFY,
              "params": {**FB2_VERIFY["params"],
                         "gamma": {"profile": "constant", "value": 11.0}}}


@pytest.mark.parametrize("doc, own", [
    (FB1_VERIFY, {"certify_fb1", "fb1_rhs"}),
    (GRAD1_VERIFY, {"certify_grad1", "grad1_rhs"}),
    (README_FB2, {"certify_fb2", "fb2_rhs", "verify_lyapunov"}),
    (GRAD2_VERIFY, {"certify_grad2", "grad2_rhs"}),
], ids=["fb1", "grad1", "fb2", "grad2"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_run_paths_reach_the_patch_points(tmp_path, monkeypatch, command, doc, own):
    # each system's run reaches its own certify_* and *_rhs, and a sweep only the grid
    reached = ({"certify_grid", "_cmd_sweep"} if command == "sweep" else
               own | {"integrate", "record_metrics", "to_csv", "verify_envelope",
                      "audit_instance"})
    calls = []
    for owner, name in PATCH_POINTS:
        def counting(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    doc = {**doc, "sweep": {"alpha": {"values": [0.3, 0.5]}}}
    assert cli.execute(doc, command, out_dir=str(tmp_path), quiet=True) == 0
    assert set(calls) == reached


# --- the config rules: one rule per kind of input number ---------------------

def _ramp(**field):
    return {"profile": "exp_ramp", "start": 15.0, "end": 14.0, "rate": 0.5, **field}


# each site of a positive number: (label in the error text, config with v there)
POSITIVE_SITES = {
    "lambda": ("'lambda'", lambda v: _patched(FB2_VERIFY, "params", **{"lambda": v})),
    "gamma": ("'gamma'", lambda v: _patched(FB2_VERIFY, "params", gamma=v)),
    "exp_ramp-start": ("'gamma' exp_ramp 'start'",
                       lambda v: _patched(FB2_VERIFY, "params", gamma=_ramp(start=v))),
    "exp_ramp-end": ("'gamma' exp_ramp 'end'",
                     lambda v: _patched(FB2_VERIFY, "params", gamma=_ramp(end=v))),
    "exp_ramp-rate": ("'gamma' exp_ramp 'rate'",
                      lambda v: _patched(FB2_VERIFY, "params", gamma=_ramp(rate=v))),
    "alpha_bar": ("'alpha_bar'", lambda v: _patched(GRAD2_VERIFY, "params", alpha_bar=v)),
    "t_end": ("integrator 't_end'", lambda v: _patched(FB2_VERIFY, "integrator", t_end=v)),
    "rel_tol": ("integrator 'rel_tol'",
                lambda v: _patched(FB2_VERIFY, "integrator", rel_tol=v)),
    "abs_tol": ("integrator 'abs_tol'",
                lambda v: _patched(FB2_VERIFY, "integrator", abs_tol=v)),
    "sweep-min": ("sweep 'alpha' 'min'", lambda v: {
        **FB2_VERIFY, "sweep": {"alpha": {"min": v, "max": 0.5, "num": 3}}}),
    "sweep-max": ("sweep 'alpha' 'max'", lambda v: {
        **FB2_VERIFY, "sweep": {"alpha": {"min": 0.1, "max": v, "num": 3}}}),
    "swept-lambda": ("'lambda'", lambda v: {
        **FB2_VERIFY, "sweep": {"lambda": {"values": [40.0, v]}}}),
}


@pytest.mark.parametrize("v", [0, -1.0])
@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_every_positive_config_number_takes_the_library_rule(site, v):
    # the config states no positive rule of its own: each site raises
    # operators.positive's text as a ConfigError
    label, doc = POSITIVE_SITES[site]
    cli.ExperimentConfig.from_dict(doc(0.2))  # well formed at a positive value
    with pytest.raises(cli.ConfigError) as exc:
        cli.ExperimentConfig.from_dict(doc(v))
    assert str(exc.value) == "%s must be positive and finite, got %r" % (label, float(v))


@pytest.mark.parametrize("doc, command, fragment", [
    ([FB1_VERIFY], "verify", "config root must be a JSON object"),
    ({**FB1_VERIFY, "params": [1.0]}, "certify", "'params' must be an object"),
    ({**FB1_VERIFY, "integrator": 20.0}, "verify", "'integrator' must be an object"),
    ({**FB1_VERIFY, "initial": [3.0, -1.0]}, "simulate", "'initial' must be an object"),
    ({**FB1_VERIFY, "sweep": "eta"}, "sweep", "'sweep' must be an object"),
    ({**GRAD2_VERIFY, "params": {"lambda": 1.6875, "gamma": 2.45}}, "verify",
     "grad2 needs 'alpha' (profile) or 'alpha_bar'"),
    ({**FB1_VERIFY, "initial": {}}, "simulate", "'initial' block needs x0"),
    ({**FB1_VERIFY, "initial": {}}, "verify", "'initial' block needs x0"),
    (_patched(FB1_VERIFY, "initial", x0=[]), "certify",
     "initial 'x0' must be a nonempty list of finite numbers, got []"),
    ({**FB1_VERIFY, "sweep": {"eta": [0.5, 1.0]}}, "sweep",
     "sweep 'eta' needs min/max/num or values"),
    ({**FB1_VERIFY, "sweep": {"eta": {"min": 1.0, "max": 0.5, "num": 3}}}, "sweep",
     "sweep 'eta' needs min <= max, got 1.0 > 0.5"),
    ({**FB1_VERIFY, "sweep": {"eta": {"min": 0.5, "max": 1.0, "num": 0}}}, "sweep",
     "sweep 'eta' 'num' must be an integer in [1, 1000000], got 0.0"),
    (_inline(LASSO_INLINE, b=[1.0, 2.0, 3.0]), "verify",
     "bad inline problem descriptor: b has dimension 3, Q is 2-dimensional"),
    # a system name that is not a string is looked up as no system, not hashed
    ({**FB1_VERIFY, "system": ["fb1"]}, "certify",
     "config needs 'system' in fb1/fb2/grad1/grad2, got ['fb1']"),
    ({**FB1_VERIFY, "system": {"name": "fb1"}}, "verify",
     "config needs 'system' in fb1/fb2/grad1/grad2, got {'name': 'fb1'}"),
    ({**FB1_VERIFY, "system": 1}, "sweep", "config needs 'system' in fb1/fb2/grad1/grad2, got 1"),
    ({key: v for key, v in FB1_VERIFY.items() if key != "system"}, "simulate",
     "config needs 'system' in fb1/fb2/grad1/grad2, got None"),
    # a profile key that no field reads is an error, not a silently plainer profile
    (_patched(FB2_VERIFY, "params", gamma={"profile": "constant", "value": 11.0,
                                           "start": 3.0}), "certify",
     "unknown 'gamma' constant keys ['start']; allowed: ['profile', 'value']"),
    (_patched(FB2_VERIFY, "params", gamma=_ramp(strat=1.0)), "verify",
     "unknown 'gamma' exp_ramp keys ['strat']; allowed: ['end', 'profile', 'rate', 'start']"),
    (_patched(FB2_VERIFY, "params", gamma={"profile": "constant", "value": _ramp()}), "certify",
     "'gamma' must be a finite number, got %r" % (_ramp(),)),
], ids=["root-list", "params-list", "integrator-number", "initial-list", "sweep-string",
        "grad2-no-alpha", "simulate-no-x0", "verify-no-x0", "x0-empty",
        "sweep-axis-list", "sweep-min-above-max", "sweep-num-zero", "lasso-b-length",
        "system-list", "system-object", "system-number", "system-missing",
        "constant-profile-start", "exp_ramp-strat", "constant-profile-of-a-ramp"])
def test_config_rules_exit_4(tmp_path, capsys, doc, command, fragment):
    out = tmp_path / "o"
    assert cli.execute(doc, command, out_dir=str(out), quiet=True) == 4
    assert "config error: %s" % fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, fragment", [
    ({**GRAD1_VERIFY, "problem": {**IDENTITY_2D, "w": 5.0}},
     "unknown quadratic keys ['w']; allowed: ['Q', 'b', 'kind']"),
    (_inline(LASSO_INLINE, wieght=1.0),
     "unknown sc_lasso keys ['wieght']; allowed: ['Q', 'b', 'kind', 'w']"),
    (_inline(SKEW_INLINE, Q=[[1.0]]),
     "unknown skew_rotation keys ['Q']; allowed: ['c', 'kind', 'rho']"),
], ids=["quadratic-w", "lasso-misspelt-weight", "skew-Q"])
def test_an_unknown_descriptor_key_exits_4(tmp_path, capsys, doc, fragment):
    # a key that no builder reads is a config error, not a silently plainer instance
    out = tmp_path / "o"
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 4
    err = capsys.readouterr().err
    assert err == "config error: bad inline problem descriptor: %s\n" % fragment
    assert not out.exists()


def test_a_ground_truth_that_does_not_converge_exits_4(tmp_path, capsys, monkeypatch):
    # Q = diag(1, 1000) contracts the fixed-point iteration by 1 - 1e-6 a step, so
    # the budget of 10^6 iterations runs out (about 17 s); a budget of 1000 runs
    # out the same way at once.  One stderr line and exit 4, not a traceback
    monkeypatch.setattr(problems, "GROUND_TRUTH_ITERATIONS", 1000)
    out = tmp_path / "o"
    doc = _inline(LASSO_INLINE, Q=[[1.0, 0.0], [0.0, 1000.0]])
    assert cli.execute(doc, "verify", out_dir=str(out), quiet=True) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: bad inline problem descriptor: fixed-point "
                          "iteration did not reach residual 1e-12 within 1000 iterations")
    assert err.count("\n") == 1
    assert not out.exists()


def _not_reached(*args, **kwargs):
    raise AssertionError("an oversized sweep reached a step it must not reach")


@pytest.mark.parametrize("log", [False, True])
def test_an_oversized_sweep_axis_exits_4_before_any_array(tmp_path, capsys, monkeypatch,
                                                          log):
    monkeypatch.setattr(cli.np, "linspace", _not_reached)
    monkeypatch.setattr(cli.np, "geomspace", _not_reached)
    doc = {**FB1_VERIFY, "sweep": {"eta": {"min": 0.5, "max": 1.0, "num": 10 ** 12,
                                           "log": log}}}
    out = tmp_path / "o"
    assert cli.execute(doc, "sweep", out_dir=str(out), quiet=True) == 4
    assert ("config error: sweep 'eta' 'num' must be an integer in [1, 1000000], "
            "got 1000000000000.0" in capsys.readouterr().err)
    assert not out.exists()


def test_an_oversized_sweep_grid_exits_4_before_the_sweep(tmp_path, capsys, monkeypatch):
    # each axis is within the cap, their product is not; a grid at the cap parses
    monkeypatch.setattr(cli, "_cmd_sweep", _not_reached)
    axis = {"min": 0.5, "max": 1.0, "num": 1000}
    at_cap = {**FB1_VERIFY, "sweep": {"eta": axis, "alpha": axis}}
    assert len(cli.ExperimentConfig.from_dict(at_cap).sweep["eta"]) == 1000
    doc = {**at_cap, "sweep": {"eta": axis, "alpha": {**axis, "num": 1001}}}
    out = tmp_path / "o"
    assert cli.execute(doc, "sweep", out_dir=str(out), quiet=True) == 4
    assert ("config error: the sweep grid has more than 1000000 cells"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_log_sweep_axis_takes_geometric_points(tmp_path):
    doc = {"problem": "skew-rotation", "system": "fb1",
           "params": {"alpha": 0.5, "lambda": 1.0},
           "sweep": {"eta": {"min": 0.1, "max": 10.0, "num": 5, "log": True}}}
    points = cli.ExperimentConfig.from_dict(doc).sweep["eta"]
    assert points == list(np.geomspace(0.1, 10.0, 5))
    out = tmp_path / "o"
    assert cli.execute(doc, "sweep", out_dir=str(out), quiet=True) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "24ee08094aac84830d34fab8648a66bac923c62c400ea2e6c5e60a3da36026e4"


def test_verify_fails_the_audit_of_a_b_that_is_not_monotone(tmp_path, monkeypatch):
    # b(x) = Sx - x/2 has monotone quotient -1/2: the instance audit fails, so
    # verify exits 1 and report.json names the failure
    skew = problems.get_problem("skew-rotation")
    bad = dataclasses.replace(skew.b, eval=lambda x: skew.b.eval(x) - 0.5 * np.asarray(x))
    monkeypatch.setattr(problems, "get_problem",
                        lambda name: dataclasses.replace(skew, b=bad))
    out = tmp_path / "o"
    assert cli.execute(FB1_VERIFY, "verify", out_dir=str(out), quiet=True) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["audit"]["passed"] is False
    assert "b is not monotone on samples" in report["audit"]["failures"]
