"""Workload definitions: the config dicts each request hands to ``fbflows``.

Everything here is generated from the workload seed with numpy only, so the
set-up probes, the timed worker and the reference check build identical
inputs.  fbflows itself only ever sees the generated config dicts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List

import numpy as np

# Moduli of the built-in "skew-rotation" instance (rho*x - c plus a rotation);
# the sweep gate evaluates the fb2 inequalities with them in closed form.
SKEW_RHO = 1.0
SKEW_BETA = 1.0

SWEEP_GAMMA = 11.0
SWEEP_GRID = 10        # alpha x delta points per request
SWEEP_LAMBDAS = 10     # requests per cycle, one lambda each

LASSO_DIM = 100        # problems.MAX_DIM
LASSO_INSTANCES = 4    # requests per verify-lasso cycle


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str          # fbflows command every request runs
    why: str              # one line: what the workload stresses
    recipe: str           # how the configs are generated from the seed
    build: Callable[[int], List[dict]]   # seed -> one cycle of configs
    work_unit: str        # what throughput_per_s counts


def _audit_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 7]).integers(0, 2**31 - 1))


def readme_configs() -> List[dict]:
    """The four README configs plus an fb2 run with a time-varying damping."""
    identity = {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}
    fb2 = {
        "problem": "skew-rotation",
        "system": "fb2",
        "params": {"alpha": 0.5, "delta": 0.5, "lambda": 40.0,
                   "gamma": {"profile": "constant", "value": 11.0}},
        "integrator": {"t_end": 23.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
        "initial": {"x0": [3.0, -1.0], "v0": [0.0, 0.0]},
    }
    fb2_ramp = dict(fb2, params={
        "alpha": 0.5, "delta": 0.5, "lambda": 60.0,
        "gamma": {"profile": "exp_ramp", "start": 15, "end": 14, "rate": 0.5}})
    return [
        {"problem": "skew-rotation", "system": "fb1",
         "params": {"alpha": 1.0, "eta": 1.0, "lambda": 1.0},
         "integrator": {"t_end": 20.0, "rel_tol": 1e-9, "abs_tol": 1e-12},
         "initial": {"x0": [3.0, -1.0]}},
        {"problem": identity, "system": "grad1",
         "params": {"alpha": 2.0, "lambda": 1.0},
         "integrator": {"t_end": 12.0, "rel_tol": 1e-11, "abs_tol": 1e-14},
         "initial": {"x0": [3.0, 0.0]}},
        fb2,
        {"problem": identity, "system": "grad2",
         "params": {"alpha": 1.5, "lambda": 1.6875, "gamma": 2.4519716382329886},
         "integrator": {"t_end": 22.0, "rel_tol": 1e-10, "abs_tol": 1e-13},
         "initial": {"x0": [2.0, 1.0], "v0": [0.0, 0.0]}},
        fb2_ramp,
    ]


def build_verify_desk(seed: int) -> List[dict]:
    configs = readme_configs()
    audit = _audit_seed(seed)
    start = seed % len(configs)
    return [dict(c, seed=audit) for c in configs[start:] + configs[:start]]


def lasso_instance(rng: np.random.Generator, dim: int) -> dict:
    """The sc-lasso-20d recipe at another dimension, as an inline descriptor."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = basis @ np.diag(np.linspace(1.0, 5.0, dim)) @ basis.T
    q = 0.5 * (q + q.T)
    b = 2.0 * rng.standard_normal(dim)
    return {"kind": "sc_lasso", "Q": q.tolist(), "b": b.tolist(), "w": 1.0}


def build_verify_lasso(seed: int) -> List[dict]:
    rng = np.random.default_rng([seed, 100])
    configs = []
    for _ in range(LASSO_INSTANCES):
        problem = lasso_instance(rng, LASSO_DIM)
        x0 = rng.standard_normal(LASSO_DIM)
        configs.append({
            "problem": problem,
            "system": "fb1",
            "params": {"alpha": 0.05, "eta": 0.07, "lambda": 1.0},
            "initial": {"x0": x0.tolist()},
            "seed": _audit_seed(seed),
        })
    return configs


def build_sweep_fb2(seed: int) -> List[dict]:
    rng = np.random.default_rng([seed, 200])
    # ranges around the feasible region of skew-rotation at gamma 11, so
    # that every request mixes feasible and infeasible cells
    lambdas = np.sort(np.exp(rng.uniform(np.log(30.0), np.log(70.0), SWEEP_LAMBDAS)))
    a_lo, a_hi = rng.uniform(0.05, 0.1), rng.uniform(0.5, 0.6)
    d_lo, d_hi = rng.uniform(0.15, 0.25), rng.uniform(0.6, 0.7)
    grid = {"alpha": {"min": float(a_lo), "max": float(a_hi), "num": SWEEP_GRID},
            "delta": {"min": float(d_lo), "max": float(d_hi), "num": SWEEP_GRID}}
    return [{"problem": "skew-rotation", "system": "fb2",
             "params": {"alpha": 0.5, "delta": 0.5, "lambda": float(lam),
                        "gamma": SWEEP_GAMMA},
             "sweep": grid}
            for lam in lambdas]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="verify-desk",
            command="verify",
            why="dim-2 verify of the README configs plus an fb2 damping ramp: "
                "interpreter-bound integrate and audit, the only second-order, "
                "Lyapunov and chain checks",
            recipe="the four README verify configs (fb1, grad1, fb2 gamma 11, grad2) "
                   "and fb2 with lambda 60, gamma exp_ramp 15->14 rate 0.5; the seed "
                   "rotates their order and sets the audit seed",
            build=build_verify_desk,
            work_unit="verify runs",
        ),
        Workload(
            name="verify-lasso",
            command="verify",
            why="fb1 verify of seeded dim-100 sc_lasso instances: per-call numpy "
                "work, rejected steps at prox kinks and 6 MB of CSV per request",
            recipe="%d inline sc_lasso instances of dim %d per seed: Q a random "
                   "rotation of linspace(1,5,d), b = 2*N(0,1), w = 1, x0 = N(0,1); "
                   "alpha 0.05, eta 0.07, lambda 1, default t_end"
                   % (LASSO_INSTANCES, LASSO_DIM),
            build=build_verify_lasso,
            work_unit="verify runs",
        ),
        Workload(
            name="sweep-fb2",
            command="sweep",
            why="fb2 sweep on skew-rotation with constant gamma 11: bulk "
                "certification and Schedule.check, no integration or audit",
            recipe="%d requests per cycle, one lambda each (log-uniform in [30, 70]), "
                   "each a %dx%d linspace grid: alpha from U(0.05,0.1) to U(0.5,0.6), "
                   "delta from U(0.15,0.25) to U(0.6,0.7); gamma %g"
                   % (SWEEP_LAMBDAS, SWEEP_GRID, SWEEP_GRID, SWEEP_GAMMA),
            build=build_sweep_fb2,
            work_unit="certified cells",
        ),
    ]
}


def work_per_request(workload: Workload, config: dict) -> int:
    """Units of work one request does: a verify run, or the cells of a sweep grid."""
    if workload.command == "sweep":
        return math.prod(spec["num"] for spec in config["sweep"].values())
    return 1
