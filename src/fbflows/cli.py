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
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, analysis, certificates, flows, integrate, problems
from .certificates import CertificateError
from .flows import Profile, Schedule
from .operators import finite_number, number, positive

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_UNKNOWN_PROBLEM = 2
EXIT_INCOMPATIBLE = 3
EXIT_BAD_CONFIG = 4

MAX_SWEEP_CELLS = 10 ** 6  # about 300 MB to parse, mesh and certify


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
        if block.get(key) is not None:
            parse = _number if key == "n_dense" else _positive
            values[key] = parse(block[key], "integrator '%s'" % key)
    n_dense = values["n_dense"]
    if n_dense < 2 or n_dense != int(n_dense):
        raise ConfigError("integrator 'n_dense' must be an integer >= 2, got %r"
                          % n_dense)
    return (values["t_end"], integrate.Adaptive(values["rel_tol"], values["abs_tol"]),
            int(n_dense))


# A parser takes a value and its label, the name as an error shows it: "'lambda'"

def _number(spec, label: str) -> float:
    return number(spec, label, ConfigError)


def _positive(spec, label: str) -> float:
    return positive(number(spec, label, ConfigError), label, ConfigError)


def _numbers(spec, label: str) -> list:
    """A nonempty list of finite numbers, as floats."""
    if not isinstance(spec, list) or not spec or not all(map(finite_number, spec)):
        raise ConfigError("%s must be a nonempty list of finite numbers, got %r"
                          % (label, spec))
    return [float(v) for v in spec]


def _profile(spec, label: str) -> Profile:
    """Parse a positive number, a constant profile or an exp_ramp profile to a Profile."""
    if not isinstance(spec, dict):
        v = _positive(spec, label)
        return Profile(v, v)
    kind = spec.get("profile")
    if kind == "constant":
        return _profile(spec.get("value"), label)
    if kind != "exp_ramp":
        raise ConfigError("unknown profile %r for %s" % (kind, label))
    return Profile(*(_positive(spec.get(key), "%s exp_ramp '%s'" % (label, key))
                     for key in ("start", "end", "rate")))


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
    initial: dict             # x0 (and v0): nonempty lists of floats
    sweep: dict               # swept parameter -> its grid points, each a float
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
        blocks = {name: doc.get(name, {}) for name in ("params", "integrator", "initial", "sweep")}
        for name, blk in blocks.items():
            if not isinstance(blk, dict):
                raise ConfigError("'%s' must be an object" % name)
        params, integrator, initial, sweep = blocks.values()
        for banned in ("rho", "beta"):
            if banned in params:
                raise ConfigError(
                    "'%s' cannot be overridden; it is read from the instance" % banned)
        parsers = _PARAMS[system]
        unknown = set(params) - set(parsers)
        if unknown:
            raise ConfigError("parameters %s do not apply to system '%s'"
                              % (sorted(unknown), system))
        params = {name: parsers[name](v, "'%s'" % name) for name, v in params.items()}
        _unknown(initial, {"x0", "v0"}, "'initial' keys")
        initial = {key: _numbers(vec, "initial '%s'" % key) for key, vec in initial.items()}
        if "v0" in initial and system in ("fb1", "grad1"):
            raise ConfigError("v0 given but system '%s' is first order" % system)
        grids = {}
        for name, spec in sweep.items():
            if name not in parsers:
                raise ConfigError("sweep parameter '%s' does not apply to '%s'"
                                  % (name, system))
            label = "'%s'" % name
            grids[name] = _sweep_values(label, spec)
            for v in grids[name]:
                parsers[name](v, label)
        if math.prod(map(len, grids.values())) > MAX_SWEEP_CELLS:
            raise ConfigError("the sweep grid has more than %d cells" % MAX_SWEEP_CELLS)
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


def _schedule_fields(system: str, params: dict) -> dict:
    """The Schedule's fields from params, where a swept parameter is a column of
    numbers, one per cell; grad2's alpha(t) is alpha_bar when 'alpha' is absent."""
    lam = _require(params, "lambda")
    bounds = ((min(lam.start, lam.end), max(lam.start, lam.end))
              if isinstance(lam, Profile) else (lam, lam))
    fields = {"lam": lam, "lambda_lower": bounds[0], "lambda_upper": bounds[1]}
    if system in ("fb2", "grad2"):
        fields["gamma"] = _require(params, "gamma")
    if system == "grad2":
        alpha = params.get("alpha", params.get("alpha_bar"))
        fields["alpha"] = Profile(alpha, alpha) if isinstance(alpha, float) else alpha
    return fields


def _certify_inputs(system: str, params: dict, alpha) -> dict:
    """The arguments of certify_<system> other than rho, beta, the schedule and
    t_grid_end; a missing or inconsistent parameter is a ConfigError.  alpha is
    the schedule's alpha(t)."""
    if system == "grad2":
        if alpha is None:
            raise ConfigError("grad2 needs 'alpha' (profile) or 'alpha_bar'")
        if ("alpha_bar" not in params and isinstance(alpha, Profile)
                and alpha.start != alpha.end):
            raise ConfigError("grad2 needs 'alpha_bar' when 'alpha' is not constant")
        return {"alpha_bar": params.get("alpha_bar")}
    keys = {"fb1": ("alpha", "eta"), "grad1": ("alpha",), "fb2": ("alpha", "delta")}
    return {key: _require(params, key) for key in keys[system]}


def _load_problem(cfg: ExperimentConfig) -> problems.ProblemInstance:
    if isinstance(cfg.problem, str):
        return problems.get_problem(cfg.problem)
    try:
        return problems.from_descriptor(cfg.problem)
    # a RuntimeError is an sc_lasso ground truth that did not converge
    except (ValueError, KeyError, TypeError, RuntimeError) as exc:
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


def _certify(cfg: ExperimentConfig, inst, sched: Schedule):
    args = _certify_inputs(cfg.system, cfg.params, sched.alpha)
    if cfg.system == "fb1":
        return certificates.certify_fb1(inst.rho, inst.beta, sched.lambda_lower,
                                        sched.lambda_upper, **args)
    if cfg.system == "grad1":
        return certificates.certify_grad1(inst.rho, inst.beta, sched.lambda_lower, **args)
    certify = (certificates.certify_fb2 if cfg.system == "fb2"
               else certificates.certify_grad2)
    return certify(inst.rho, inst.beta, sched=sched, t_grid_end=_grid_end(cfg), **args)


def _grid_end(cfg: ExperimentConfig) -> float:
    return cfg.t_end or certificates.GRID_END


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
    return traj, integrate.record_metrics(traj, inst)


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
        analysis.write_envelope_csv(env_csv, traj.t[traj.grid], envelope)
    analysis.emit_plot_script(
        os.path.join(out_dir, "plot_metrics.gp"), "trajectory.csv",
        dim=traj.x.shape[1], which=which,
        envelope_csv="envelope.csv" if env_csv else None)
    return csv_path


def _verify_reports(cfg, inst, cert, sched, traj, metrics):
    """The envelope report, the chain report of a value-gap certificate and the
    Lyapunov report of fb2; the envelope; and the decay lemma's M = L(0) of a
    second-order system (None for first order)."""
    which = analysis.CERTIFIED_METRIC[cfg.system]
    anchor = max(float(getattr(metrics, which)[0]), 0.0)
    reports = {}
    if cert.transient_exponent is None:
        m_raw = m = None
    elif which == "h":
        # the lemma's h is ||x - x*||^2/2, so h' = <x - x*, v> and the envelope takes 2M
        err = traj.x - metrics.x_star[None, :]
        lyap = certificates.lyapunov(cert, sched, traj.t, 0.5 * metrics.h,
                                     np.einsum("ij,ij->i", err, traj.v), metrics.u)
        reports["lyapunov"] = analysis.verify_lyapunov(traj.t, lyap)
        m_raw = float(lyap[0])
        m = 2.0 * m_raw
    else:
        # the lemma's h is the value gap, so h'(0) = <grad g(x0), v0>
        hdot0 = float(np.dot(inst.g.gradient(traj.x[0]), traj.v[0]))
        m_raw = m = float(certificates.lyapunov(cert, sched, 0.0, anchor, hdot0,
                                                metrics.u[0]))
    env = analysis.build_envelope(cert, anchor, m)
    reports["envelope"] = analysis.verify_envelope(metrics, which, env,
                                                   rate=cert.decay_exponent)
    if which == "gap":
        reports["chain"] = analysis.verify_value_chain(metrics, inst.rho, inst.beta)
    return reports, env, m_raw


def _sweep_values(label: str, spec) -> list:
    """The points of one sweep axis: a ``values`` list alone, or ``min``/``max``/
    ``num`` with an optional boolean ``log``, num at most ``MAX_SWEEP_CELLS``."""
    axis = "sweep " + label
    if not (isinstance(spec, dict) and ("values" in spec or {"min", "max", "num"} <= set(spec))):
        raise ConfigError(axis + " needs min/max/num or values")
    _unknown(spec, {"values", "min", "max", "num", "log"}, axis + " keys")
    if "values" in spec:
        if len(spec) > 1:
            raise ConfigError("%s mixes 'values' with %s" % (axis, sorted(set(spec) - {"values"})))
        return _numbers(spec["values"], axis + " values")
    log = spec.get("log", False)
    if not isinstance(log, bool):
        raise ConfigError("%s 'log' must be true or false, got %r" % (axis, log))
    lo, hi = _positive(spec["min"], axis + " 'min'"), _positive(spec["max"], axis + " 'max'")
    num = _number(spec["num"], axis + " 'num'")
    if not (1 <= num <= MAX_SWEEP_CELLS and num == int(num)):
        raise ConfigError("%s 'num' must be an integer in [1, %d], got %r"
                          % (axis, MAX_SWEEP_CELLS, num))
    if lo > hi:
        raise ConfigError("%s needs min <= max, got %r > %r" % (axis, lo, hi))
    return list((np.geomspace if log else np.linspace)(lo, hi, int(num)))


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
        sched = Schedule(**_schedule_fields(cfg.system, cfg.params))
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
        if isinstance(exc, integrate.IntegrationError):
            # RFC 8259 has no inf or nan: a non-finite diagnostic becomes "inf", "-inf", "nan"
            diagnostics = json.loads(json.dumps(exc.diagnostics), parse_constant={
                "Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}.get)
            os.makedirs(out_dir, exist_ok=True)
            integrate.write_json(os.path.join(out_dir, "error.json"), {
                "command": command, "error": str(exc), "diagnostics": diagnostics})
        return EXIT_FAILED


def _cmd_certify(cfg, inst, sched, out_dir, quiet) -> int:
    cert = _certify(cfg, inst, sched)
    os.makedirs(out_dir, exist_ok=True)
    integrate.write_json(os.path.join(out_dir, "certificate.json"), cert)
    _say(quiet, "certified %s on %s: decay exponent %.6g%s"
         % (cfg.system, inst.name, cert.decay_exponent,
            "" if cert.transient_exponent is None
            else ", transient %.6g" % cert.transient_exponent))
    _say(quiet, "wrote %s" % os.path.join(out_dir, "certificate.json"))
    return EXIT_OK


def _cmd_simulate(cfg, inst, sched, out_dir, quiet) -> int:
    t_end = cfg.t_end or _default_t_end(_certify(cfg, inst, sched))
    traj, metrics = _simulate(cfg, inst, sched, float(t_end))
    csv_path = _write_run_artifacts(out_dir, traj, metrics,
                                    analysis.CERTIFIED_METRIC[cfg.system])
    _say(quiet, "simulated %s on %s for t_end=%g (%d samples, %d accepted steps)"
         % (cfg.system, inst.name, float(t_end), traj.t.size,
            traj.meta["accepted"]))
    _say(quiet, "wrote %s" % csv_path)
    return EXIT_OK


def _cmd_verify(cfg, inst, sched, out_dir, quiet) -> int:
    cert = _certify(cfg, inst, sched)
    t_end = cfg.t_end or _default_t_end(cert)
    traj, metrics = _simulate(cfg, inst, sched, float(t_end))
    reports, env, m_raw = _verify_reports(cfg, inst, cert, sched, traj, metrics)
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
        "integrator": traj.meta,
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
    # one column per axis, its cells in itertools.product order
    columns = [c.ravel() for c in np.meshgrid(*(cfg.sweep[name] for name in names),
                                              indexing="ij")]
    params = {**cfg.params, **dict(zip(names, columns))}
    cells = _schedule_fields(cfg.system, params)
    cells.update(_certify_inputs(cfg.system, params, cells.get("alpha")))
    grid = certificates.certify_grid(cfg.system, inst.rho, inst.beta, cells,
                                     t_grid_end=_grid_end(cfg))

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    header = names + ["feasible", "decay_exponent", "gamma_lower", "failure"]
    row_format = ",".join([integrate.FLOAT] * len(names)
                          + ["%d", integrate.FLOAT, integrate.FLOAT, '"%s"'])
    integrate.write_csv(path, header, row_format, zip(
        *(c.tolist() for c in columns), grid.feasible.tolist(),
        grid.decay_exponent.tolist(), grid.gamma_lower.tolist(), grid.failure))
    feasible = np.flatnonzero(grid.feasible)
    _say(quiet, "sweep over %s: %d/%d cells feasible"
         % ("+".join(names), feasible.size, grid.feasible.size))
    if feasible.size:
        best = feasible[np.argmax(grid.decay_exponent[feasible])]  # the first maximum
        _say(quiet, "best decay exponent %.6g at %s"
             % (grid.decay_exponent[best], {k: float(c[best]) for k, c in zip(names, columns)}))
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
