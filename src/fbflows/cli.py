"""Config-driven experiment runner: certify, simulate, verify, sweep, list.

Configs are JSON documents (schema documented in the README).  Artifacts are
CSV tables, JSON reports (both through ``integrate``'s writer) and a gnuplot
script per run.  Exit codes: 0 all checks pass, 1 a certificate or
verification failed, 2 unknown problem, 3 system kind incompatible with the
instance, 4 malformed config or command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, analysis, certificates, flows, integrate, problems
from .certificates import CertificateError
from .flows import Profile, Schedule
from .operators import positive
from .problems import finite_number

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_UNKNOWN_PROBLEM = 2
EXIT_INCOMPATIBLE = 3
EXIT_BAD_CONFIG = 4


class ConfigError(ValueError):
    """The configuration document is malformed."""


class IncompatibleSystemError(ValueError):
    """The requested system kind cannot run on the chosen instance."""


_SYSTEMS = ("fb1", "fb2", "grad1", "grad2")
_COMMANDS = ("certify", "simulate", "verify", "sweep")  # the commands that take a config
_TOP_KEYS = {"problem", "system", "params", "integrator", "initial", "sweep", "seed",
             "output_dir"}


def _unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError("unknown %s %s; allowed: %s"
                          % (where, sorted(unknown), sorted(allowed)))


def _integrator(block: dict):
    """(t_end, control, n_dense) from the integrator block; an absent or null
    setting takes its default, and t_end None means each command's default."""
    _unknown(block, {"t_end", "rel_tol", "abs_tol", "n_dense"}, "integrator settings")
    values = {"t_end": None, "rel_tol": integrate.Adaptive.rel_tol,
              "abs_tol": integrate.Adaptive.abs_tol, "n_dense": integrate.N_DENSE}
    for key in values:
        v = block.get(key)
        if v is None:
            continue
        if not finite_number(v):
            raise ConfigError("integrator '%s' must be a finite number, got %r"
                              % (key, v))
        values[key] = (float(v) if key == "n_dense"
                       else positive(v, "integrator '%s'" % key, ConfigError))
    n_dense = values["n_dense"]
    if n_dense < 2 or n_dense != int(n_dense):
        raise ConfigError("integrator 'n_dense' must be an integer >= 2, got %r"
                          % n_dense)
    return (values["t_end"], integrate.Adaptive(values["rel_tol"], values["abs_tol"]),
            int(n_dense))


def _number(spec, name: str) -> float:
    if not finite_number(spec):
        raise ConfigError("'%s' must be a finite number, got %r" % (name, spec))
    return float(spec)


def _positive(spec, name: str) -> float:
    if not (finite_number(spec) and spec > 0):
        raise ConfigError("'%s' must be a positive finite number, got %r" % (name, spec))
    return float(spec)


def _profile(spec, name: str) -> Profile:
    """Parse a positive number, a constant profile or an exp_ramp profile to a Profile."""
    if not isinstance(spec, dict):
        v = _positive(spec, name)
        return Profile(v, v)
    kind = spec.get("profile")
    if kind == "constant":
        return _profile(spec.get("value"), name)
    if kind != "exp_ramp":
        raise ConfigError("unknown profile %r for '%s'" % (kind, name))
    values = [spec.get(key) for key in ("start", "end", "rate")]
    if not all(map(finite_number, values)):
        raise ConfigError("'%s' exp_ramp needs finite numbers start/end/rate" % name)
    start, end, rate = map(float, values)
    if rate <= 0.0 or start <= 0.0 or end <= 0.0:
        raise ConfigError("'%s' exp_ramp needs positive start/end/rate" % name)
    return Profile(start, end, rate)


# each system's parameters and the parser of a value, swept values included
_PARAMS = {
    "fb1": {"alpha": _number, "eta": _number, "lambda": _profile},
    "grad1": {"alpha": _number, "lambda": _profile},
    "fb2": {"alpha": _number, "delta": _number, "lambda": _profile, "gamma": _profile},
    "grad2": {"alpha_bar": _positive, "alpha": _profile, "lambda": _profile,
              "gamma": _profile},
}


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    problem: object           # registry name or inline descriptor dict
    system: str
    params: dict              # parameter -> parsed value (a float or a Profile)
    initial: dict             # x0 (and v0): lists of finite numbers
    sweep: dict               # swept parameter -> its (grid point, parsed value) pairs
    seed: int
    output_dir: Optional[str]
    t_end: Optional[float]    # None: each command's default horizon
    control: integrate.Adaptive
    n_dense: int

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        _unknown(doc, _TOP_KEYS, "config keys")
        problem = doc.get("problem")
        if not isinstance(problem, (str, dict)) or not problem:
            raise ConfigError("config needs a 'problem' (registry name or descriptor)")
        system = doc.get("system")
        if system not in _SYSTEMS:
            raise ConfigError("config needs 'system' in %s, got %r"
                              % ("/".join(_SYSTEMS), system))
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("'params' must be an object")
        for banned in ("rho", "beta"):
            if banned in params:
                raise ConfigError(
                    "'%s' cannot be overridden; it is read from the instance" % banned)
        parsers = _PARAMS[system]
        unknown = set(params) - set(parsers)
        if unknown:
            raise ConfigError("parameters %s do not apply to system '%s'"
                              % (sorted(unknown), system))
        params = {name: parsers[name](v, name) for name, v in params.items()}
        integrator = doc.get("integrator", {})
        initial = doc.get("initial", {})
        sweep = doc.get("sweep", {})
        for name, blk in [("integrator", integrator), ("initial", initial),
                          ("sweep", sweep)]:
            if not isinstance(blk, dict):
                raise ConfigError("'%s' must be an object" % name)
        _unknown(initial, {"x0", "v0"}, "'initial' keys")
        for key, vec in initial.items():
            if not isinstance(vec, list) or not all(map(finite_number, vec)):
                raise ConfigError("%s must be a list of finite numbers, got %r"
                                  % (key, vec))
        if "v0" in initial and system in ("fb1", "grad1"):
            raise ConfigError("v0 given but system '%s' is first order" % system)
        grids = {}
        for name, spec in sweep.items():
            if name not in parsers:
                raise ConfigError("sweep parameter '%s' does not apply to '%s'"
                                  % (name, system))
            grids[name] = [(v, parsers[name](v, name)) for v in _sweep_values(name, spec)]
        t_end, control, n_dense = _integrator(integrator)
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("'seed' must be a nonnegative integer")
        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("'output_dir' must be a string, got %r" % (output_dir,))
        return cls(problem=problem, system=system, params=params, initial=initial,
                   sweep=grids, seed=seed, output_dir=output_dir, t_end=t_end,
                   control=control, n_dense=n_dense)


def _require(params: dict, key: str):
    if key not in params:
        raise ConfigError("system parameter '%s' is required" % key)
    return params[key]


def _build_schedule(system: str, params: dict) -> Schedule:
    lam = _require(params, "lambda")
    gamma = alpha = None
    if system in ("fb2", "grad2"):
        gamma = _require(params, "gamma")
    if system == "grad2":
        alpha = params.get("alpha")
        if alpha is None and "alpha_bar" in params:
            alpha = Profile(params["alpha_bar"], params["alpha_bar"])
    return Schedule(lam=lam, lambda_lower=min(lam.start, lam.end),
                    lambda_upper=max(lam.start, lam.end), gamma=gamma, alpha=alpha)


def _load_problem(cfg: ExperimentConfig) -> problems.ProblemInstance:
    if isinstance(cfg.problem, str):
        return problems.get_problem(cfg.problem)
    try:
        return problems.from_descriptor(cfg.problem)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("bad inline problem descriptor: %s" % exc)


def _check_compat(cfg: ExperimentConfig, inst: problems.ProblemInstance) -> None:
    if cfg.system in ("grad1", "grad2"):
        if inst.g is None or inst.g.gradient is None:
            raise IncompatibleSystemError(
                "system '%s' needs a smooth objective; instance '%s' has none"
                % (cfg.system, inst.name))
        if inst.f is not None:
            raise IncompatibleSystemError(
                "system '%s' minimizes g alone, but instance '%s' has a nonsmooth "
                "part; its ground truth solves f+g" % (cfg.system, inst.name))


def _certify(cfg: ExperimentConfig, inst, params: dict, sched: Schedule):
    grid_end = cfg.t_end or certificates.GRID_END
    if cfg.system == "fb1":
        return certificates.certify_fb1(inst.rho, inst.beta, sched.lambda_lower,
                                        sched.lambda_upper, _require(params, "alpha"),
                                        _require(params, "eta"))
    if cfg.system == "grad1":
        return certificates.certify_grad1(inst.rho, inst.beta, sched.lambda_lower,
                                          _require(params, "alpha"))
    if cfg.system == "fb2":
        return certificates.certify_fb2(inst.rho, inst.beta, _require(params, "alpha"),
                                        _require(params, "delta"), sched,
                                        t_grid_end=grid_end)
    if sched.alpha is None:
        raise ConfigError("grad2 needs 'alpha' (profile) or 'alpha_bar'")
    if "alpha_bar" not in params and sched.alpha.start != sched.alpha.end:
        raise ConfigError("grad2 needs 'alpha_bar' when 'alpha' is not constant")
    return certificates.certify_grad2(inst.rho, inst.beta, sched,
                                      alpha_bar=params.get("alpha_bar"),
                                      t_grid_end=grid_end)


def _build_flow(cfg: ExperimentConfig, inst, sched: Schedule) -> flows.FlowRHS:
    if cfg.system == "fb1":
        return flows.fb1_rhs(inst.a, inst.b, _require(cfg.params, "eta"), sched)
    if cfg.system == "fb2":
        # eta is derived from (alpha, delta), never configured; a nan eta (1/eta
        # not positive) is rejected by fb2_rhs
        eta = certificates.fb2_eta(inst.rho, inst.beta, _require(cfg.params, "alpha"),
                                   _require(cfg.params, "delta"))
        return flows.fb2_rhs(inst.a, inst.b, eta, sched)
    if cfg.system == "grad1":
        return flows.grad1_rhs(inst.g, sched)
    return flows.grad2_rhs(inst.g, sched)


def _default_t_end(cert) -> float:
    # long enough for the envelope to fall below 1e-10 of its initial value
    return math.ceil(math.log(1e10) / cert.decay_exponent)


def _vector(spec: list, name: str, dim: int) -> np.ndarray:
    """A list of ``dim`` numbers as a float array."""
    if len(spec) != dim:
        raise ConfigError("%s must have dimension %d" % (name, dim))
    return np.array(spec, dtype=float)


def _initial_state(cfg: ExperimentConfig, inst, order: int):
    init = cfg.initial
    if "x0" not in init:
        raise ConfigError("'initial' block needs x0")
    x0 = _vector(init["x0"], "x0", inst.dim)
    v0 = _vector(init.get("v0", [0.0] * inst.dim), "v0", inst.dim) if order == 2 else None
    return x0, v0


def _simulate(cfg: ExperimentConfig, inst, sched, t_end: float):
    flow = _build_flow(cfg, inst, sched)
    x0, v0 = _initial_state(cfg, inst, flow.order)
    traj = integrate.integrate(flow, x0, v0=v0, t_end=t_end, control=cfg.control,
                               n_dense=cfg.n_dense)
    metrics = integrate.record_metrics(traj, inst)
    return traj, metrics, x0, v0


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _write_run_artifacts(out_dir, traj, metrics, which, envelope=None):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    integrate.to_csv(traj, metrics, csv_path)
    env_csv = None
    if envelope is not None:
        env_csv = os.path.join(out_dir, "envelope.csv")
        analysis.write_envelope_csv(env_csv, metrics.t, envelope)
    analysis.emit_plot_script(
        os.path.join(out_dir, "plot_metrics.gp"), "trajectory.csv",
        dim=traj.x.shape[1], which=which,
        envelope_csv="envelope.csv" if env_csv else None)
    return csv_path


def _verify_reports(cfg, inst, cert, sched, traj, metrics, x0, v0):
    """The envelope report, the chain report of a value-gap certificate and the
    Lyapunov report of fb2; the envelope; and the lemma constant M of a
    second-order system (None for first order)."""
    which = analysis.CERTIFIED_METRIC[cfg.system]
    coeffs = m_raw = m = None
    if cfg.system == "fb2":
        coeffs = certificates.fb2_lemma_coefficients(
            inst.rho, inst.beta, cert.inputs["alpha"], cert.inputs["delta"], sched)
        m_raw = certificates.fb2_initial_M(coeffs, x0, v0, inst.x_star)
        m = 2.0 * m_raw
    elif cfg.system == "grad2":
        coeffs = certificates.grad2_lemma_coefficients(inst.beta, sched)
        m_raw = m = certificates.grad2_initial_M(coeffs, inst.g, x0, v0, inst.x_star)
    gap0 = None if metrics.gap is None else float(metrics.gap[0])
    env = analysis.build_envelope(cert, h0=float(metrics.h[0]), gap0=gap0, m=m)
    reports = {"envelope": analysis.verify_envelope(metrics, which, env,
                                                    rate=cert.decay_exponent)}
    if which == "gap":
        reports["chain"] = analysis.verify_value_chain(metrics, inst.rho, inst.beta)
    if cfg.system == "fb2":
        reports["lyapunov"] = analysis.verify_lyapunov(traj, coeffs, metrics)
    return reports, env, m_raw


def _sweep_values(name: str, spec) -> list:
    """The points of one sweep axis: a ``values`` list alone, or ``min``/``max``/
    ``num`` with an optional boolean ``log``."""
    if not isinstance(spec, dict):
        raise ConfigError("sweep '%s' needs min/max/num or values" % name)
    _unknown(spec, {"values", "min", "max", "num", "log"}, "sweep '%s' keys" % name)
    if "values" in spec:
        if len(spec) > 1:
            raise ConfigError("sweep '%s' mixes 'values' with %s"
                              % (name, sorted(set(spec) - {"values"})))
        vals = spec["values"]
        if not isinstance(vals, list) or not vals or not all(map(finite_number, vals)):
            raise ConfigError("sweep '%s' values must be a nonempty list of finite "
                              "numbers, got %r" % (name, vals))
        return [float(v) for v in vals]
    try:
        lo, hi, num = spec["min"], spec["max"], spec["num"]
    except KeyError:
        raise ConfigError("sweep '%s' needs min/max/num or values" % name)
    log = spec.get("log", False)
    if not isinstance(log, bool):
        raise ConfigError("sweep '%s' 'log' must be true or false, got %r" % (name, log))
    if not (all(map(finite_number, (lo, hi, num))) and num == int(num)):
        raise ConfigError("sweep '%s' needs finite numbers min/max and an integer num, "
                          "got %r" % (name, spec))
    if num < 1 or not (0.0 < lo <= hi):
        raise ConfigError("sweep '%s' needs 0 < min <= max and num >= 1" % name)
    lo, hi, num = float(lo), float(hi), int(num)
    if log:
        return list(np.geomspace(lo, hi, num))
    return list(np.linspace(lo, hi, num))


def execute(config, command: str, out_dir: Optional[str] = None,
            seed: Optional[int] = None, quiet: bool = False) -> int:
    """Run one command against a config dict; returns the exit code."""
    if command == "list":
        for name in problems.list_problems():
            inst = problems.get_problem(name)
            print("%-16s dim=%-3d rho=%-8g beta=%-8g %s"
                  % (name, inst.dim, inst.rho, inst.beta, inst.description))
        return EXIT_OK
    if command not in _COMMANDS:
        print("unknown command %r" % command, file=sys.stderr)
        return EXIT_BAD_CONFIG

    if seed is not None and isinstance(config, dict):
        config = {**config, "seed": seed}   # the override obeys the config's rule
    try:
        cfg = ExperimentConfig.from_dict(config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    out_dir = out_dir or cfg.output_dir or "out"

    try:
        inst = _load_problem(cfg)
        _check_compat(cfg, inst)
        if command == "sweep":
            return _cmd_sweep(cfg, inst, out_dir, quiet)
        sched = _build_schedule(cfg.system, cfg.params)
        if command == "certify":
            return _cmd_certify(cfg, inst, sched, out_dir, quiet)
        if command == "simulate":
            return _cmd_simulate(cfg, inst, sched, out_dir, quiet)
        return _cmd_verify(cfg, inst, sched, out_dir, quiet)
    except KeyError as exc:
        print("unknown problem: %s" % exc, file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    except IncompatibleSystemError as exc:
        print("incompatible system: %s" % exc, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CertificateError as exc:
        print("certificate failed:", file=sys.stderr)
        for failure in exc.failures:
            print("  - %s" % failure, file=sys.stderr)
        return EXIT_FAILED
    except (integrate.IntegrationError, ValueError) as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return EXIT_FAILED


def _cmd_certify(cfg, inst, sched, out_dir, quiet) -> int:
    cert = _certify(cfg, inst, cfg.params, sched)
    os.makedirs(out_dir, exist_ok=True)
    integrate.write_json(os.path.join(out_dir, "certificate.json"), cert)
    _say(quiet, "certified %s on %s: decay exponent %.6g%s"
         % (cfg.system, inst.name, cert.decay_exponent,
            "" if cert.transient_exponent is None
            else ", transient %.6g" % cert.transient_exponent))
    _say(quiet, "wrote %s" % os.path.join(out_dir, "certificate.json"))
    return EXIT_OK


def _cmd_simulate(cfg, inst, sched, out_dir, quiet) -> int:
    t_end = cfg.t_end or _default_t_end(_certify(cfg, inst, cfg.params, sched))
    traj, metrics, _, _ = _simulate(cfg, inst, sched, float(t_end))
    csv_path = _write_run_artifacts(out_dir, traj, metrics,
                                    analysis.CERTIFIED_METRIC[cfg.system])
    _say(quiet, "simulated %s on %s for t_end=%g (%d samples, %d accepted steps)"
         % (cfg.system, inst.name, float(t_end), traj.t.size,
            traj.meta["accepted"]))
    _say(quiet, "wrote %s" % csv_path)
    return EXIT_OK


def _cmd_verify(cfg, inst, sched, out_dir, quiet) -> int:
    cert = _certify(cfg, inst, cfg.params, sched)
    t_end = cfg.t_end or _default_t_end(cert)
    traj, metrics, x0, v0 = _simulate(cfg, inst, sched, float(t_end))
    reports, env, m_raw = _verify_reports(cfg, inst, cert, sched, traj, metrics, x0, v0)
    audit = problems.audit_instance(inst, seed=cfg.seed)

    passed = audit.passed and all(rep.passed for rep in reports.values())
    doc = {
        "version": __version__,
        "command": "verify",
        "problem": inst.name,
        "system": cfg.system,
        "t_end": float(t_end),
        "certificate": cert,
        "audit": {
            "passed": audit.passed,
            "failures": list(audit.failures),
            "residual_at_x_star": audit.residual_at_x_star,
            "cocoercivity_violation_fraction":
                audit.b_audit.cocoercivity_violation_fraction,
        },
        "passed": passed,
    }
    doc.update(reports)
    if m_raw is not None:
        doc["m_raw"] = m_raw
    os.makedirs(out_dir, exist_ok=True)
    integrate.write_json(os.path.join(out_dir, "certificate.json"), cert)
    _write_run_artifacts(out_dir, traj, metrics, reports["envelope"].which,
                         envelope=env)
    integrate.write_json(os.path.join(out_dir, "report.json"), doc)

    rep = reports["envelope"]
    _say(quiet, "verify %s on %s: envelope %s (%d/%d violations, max ratio %.3g), "
         "fitted rate %s vs certified %.3g"
         % (cfg.system, inst.name, "PASS" if rep.passed else "FAIL",
            rep.violating_samples, rep.n_samples, rep.max_ratio,
            "n/a" if rep.fitted_exponent is None else "%.4g" % rep.fitted_exponent,
            cert.decay_exponent))
    for extra in ("chain", "lyapunov"):
        if extra in reports:
            _say(quiet, "  %s: %s" % (extra,
                 "PASS" if reports[extra].passed else "FAIL"))
    _say(quiet, "  audit: %s" % ("PASS" if audit.passed else "FAIL"))
    _say(quiet, "wrote %s" % os.path.join(out_dir, "report.json"))
    return EXIT_OK if passed else EXIT_FAILED


def _cmd_sweep(cfg, inst, out_dir, quiet) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep command needs a 'sweep' block")
    names = sorted(cfg.sweep)
    rows = []
    best = None
    for cell in itertools.product(*(cfg.sweep[name] for name in names)):
        combo = tuple(v for v, _ in cell)
        params = {**cfg.params, **{name: p for name, (_, p) in zip(names, cell)}}
        try:
            sched = _build_schedule(cfg.system, params)
            cert = _certify(cfg, inst, params, sched)
            rate = cert.decay_exponent
            gamma_lower = cert.derived.get("gamma_lower", math.nan)
            rows.append(combo + (1, rate, gamma_lower, ""))
            if best is None or rate > best[0]:
                best = (rate, {k: float(v) for k, v in zip(names, combo)})
        except ConfigError:
            raise   # a missing parameter is missing from every cell
        except ValueError as exc:
            first = exc.failures[0] if isinstance(exc, CertificateError) else str(exc)
            rows.append(combo + (0, math.nan, math.nan, first))

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    header = names + ["feasible", "decay_exponent", "gamma_lower", "failure"]
    row_format = ",".join([integrate.FLOAT] * len(names)
                          + ["%d", integrate.FLOAT, integrate.FLOAT, '"%s"'])
    integrate.write_csv(path, header, row_format, rows)
    n_feasible = sum(r[len(names)] for r in rows)
    _say(quiet, "sweep over %s: %d/%d cells feasible"
         % ("+".join(names), n_feasible, len(rows)))
    if best is not None:
        _say(quiet, "best decay exponent %.6g at %s" % (best[0], best[1]))
    _say(quiet, "wrote %s" % path)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 4, not argparse's 2: that is the unknown-problem code
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, "%s: error: %s\n" % (self.prog, message))


def _seed_arg(text: str):
    # an integer literal as an int; any other text goes to execute's seed rule
    try:
        return int(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    parser = _Parser(
        prog="fbflows",
        description="Certify and verify exponential decay of forward-backward "
                    "and gradient flows.")
    parser.add_argument("command", help="one of %s" % ", ".join(_COMMANDS + ("list",)))
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (default: config, then ./out)")
    parser.add_argument("--seed", type=_seed_arg, default=None,
                        help="override the audit seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    if args.command not in _COMMANDS:   # list, or an unknown command for execute to reject
        return execute({}, args.command, quiet=args.quiet)
    if not args.config:
        print("config error: --config is required for '%s'" % args.command,
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print("config error: cannot read %s: %s" % (args.config, exc), file=sys.stderr)
        return EXIT_BAD_CONFIG
    except json.JSONDecodeError as exc:
        print("config error: %s is not valid JSON: %s" % (args.config, exc),
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    return execute(doc, args.command, out_dir=args.out, seed=args.seed,
                   quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
