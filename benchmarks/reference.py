"""Independent trajectory reference: scipy DOP853 on the same field.

The field is built with the public ``flows.*_rhs`` builders from the config
(the fb2 step eta from the closed-form constants in gates.py), integrated with
``solve_ivp(method="DOP853", rtol=1e-13, dense_output=True)`` and evaluated at
the artifact's own ``t`` column.  Runs in run.py, never in the timed process.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp

from fbflows import flows, problems

import gates

REF_RTOL = 1e-13
REF_ATOL = 1e-15
# Accepted ||x - x_ref(t)||_inf / ||x0 - x*||; the seed commit stays below
# 1e-7 on every config (DOPRI5 at rel_tol 1e-9 and tighter).
X_ERR_TOL = 1e-6


def _profile(spec):
    """(fn, lo, hi) of a number, a constant profile or an exp_ramp profile."""
    if isinstance(spec, dict):
        if spec["profile"] == "constant":
            return _profile(spec["value"])
        a, b, r = float(spec["start"]), float(spec["end"]), float(spec["rate"])
        return (lambda t: b + (a - b) * math.exp(-r * t)), min(a, b), max(a, b)
    v = float(spec)
    return (lambda t: v), v, v


def _field(config):
    problem = config["problem"]
    inst = problems.get_problem(problem) if isinstance(problem, str) \
        else problems.from_descriptor(problem)
    params = config["params"]
    lam, lo, hi = _profile(params["lambda"])
    gamma = _profile(params["gamma"])[0] if "gamma" in params else None
    sched = flows.Schedule(lam=lam, lambda_lower=lo, lambda_upper=hi, gamma=gamma)
    system = config["system"]
    if system == "fb1":
        flow = flows.fb1_rhs(inst.a, inst.b, float(params["eta"]), sched)
    elif system == "fb2":
        _, inv_eta, _, _ = gates.fb2_constants(inst.rho, inst.beta, float(params["alpha"]),
                                               float(params["delta"]))
        flow = flows.fb2_rhs(inst.a, inst.b, 1.0 / inv_eta, sched)
    elif system == "grad1":
        flow = flows.grad1_rhs(inst.g, sched)
    else:
        flow = flows.grad2_rhs(inst.g, sched)
    return inst, flow


def read_trajectory(path, dim):
    """t, x and v columns of a trajectory.csv, looked up by column name."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    cols = [header.index(c) for c in
            ["t"] + ["x_%d" % i for i in range(dim)] + ["v_%d" % i for i in range(dim)]]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return data[:, 0], data[:, 1:dim + 1], data[:, dim + 1:]


def x_error(config, trajectory_csv) -> float:
    """max over samples of ||x - x_ref(t)||_inf / ||x0 - x*||_2."""
    inst, flow = _field(config)
    dim = inst.dim
    t, x, v = read_trajectory(trajectory_csv, dim)
    x0 = np.asarray(config["initial"]["x0"], dtype=float)
    if flow.order == 2:
        y0 = np.concatenate([x0, np.asarray(config["initial"].get("v0", np.zeros(dim)),
                                            dtype=float)])

        def fun(s, y):
            return np.concatenate([y[dim:], flow.rhs(s, y[:dim], y[dim:])])
    else:
        y0 = x0

        def fun(s, y):
            return flow.rhs(s, y)
    sol = solve_ivp(fun, (0.0, float(t[-1])), y0, method="DOP853", rtol=REF_RTOL,
                    atol=REF_ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError("reference integration failed: %s" % sol.message)
    x_ref = sol.sol(t)[:dim].T
    scale = float(np.linalg.norm(x0 - inst.x_star))
    return float(np.max(np.abs(x - x_ref))) / scale
