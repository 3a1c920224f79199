"""Integrator behaviour: closed-form and reference accuracy, aborts, CSV."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import integrate as integrate_module
from fbflows import problems
from fbflows.flows import FlowRHS, Profile, Schedule, fb1_rhs, fb2_rhs, grad1_rhs, grad2_rhs
from fbflows.integrate import (
    FLOAT,
    Adaptive,
    IntegrationError,
    integrate,
    record_metrics,
    to_csv,
    write_table,
)
from fbflows.operators import (MonotoneMap, ResolventOracle, box_indicator, l1_norm,
                               prox_resolvent, row_blocks, zero_operator)

DECAY = FlowRHS(order=1, rhs=lambda t, x: -x)                         # dx/dt = -x
ZERO = FlowRHS(order=1, rhs=lambda t, x: np.zeros_like(x))            # dx/dt = 0
DAMPED = FlowRHS(order=2, rhs=lambda t, x, v: -3.0 * v - 2.0 * x)     # x'' + 3x' + 2x = 0
DOPRI5, DOP853 = "dopri5(4)", "dop853(5,3)"
PAIRS = (integrate_module._DOPRI5, integrate_module._DOP853)


def test_adaptive_exponential_decay():
    traj = integrate(DECAY, np.array([1.0]), t_end=1.0,
                     control=Adaptive(rel_tol=1e-9, abs_tol=1e-12))
    assert traj.t[0] == 0.0 and traj.x[0, 0] == 1.0
    assert traj.t.size >= 500
    assert np.all(np.diff(traj.t) > 0.0)
    assert abs(traj.t[-1] - 1.0) <= 1e-12
    assert abs(traj.x[-1, 0] - math.exp(-1.0)) <= 1e-8
    # dense samples track the analytic solution, not just the endpoint
    assert_allclose(traj.x[:, 0], np.exp(-traj.t), rtol=1e-7, atol=1e-12)
    # first-order velocity is the rhs itself
    assert_allclose(traj.v, -traj.x, rtol=0, atol=0)
    meta = traj.meta
    assert meta["solver"] == "dopri5(4)"
    assert meta["rhs_evaluations"] == 2 + 6 * (meta["accepted"] + meta["rejected"])


def test_adaptive_zero_rhs_is_exact():
    traj = integrate(ZERO, np.array([3.0, -1.0]), t_end=5.0)
    assert np.all(traj.x[:, 0] == 3.0)
    assert np.all(traj.x[:, 1] == -1.0)
    assert np.all(traj.v == 0.0)


def test_adaptive_second_order_closed_form():
    # roots -1 and -2; x0=1, v0=-1 selects x(t) = exp(-t)
    traj = integrate(DAMPED, np.array([1.0]), v0=np.array([-1.0]), t_end=2.0,
                     control=Adaptive(rel_tol=1e-9, abs_tol=1e-12))
    assert abs(traj.x[-1, 0] - math.exp(-2.0)) <= 1e-8
    assert_allclose(traj.x[:, 0], np.exp(-traj.t), rtol=1e-6, atol=1e-10)
    assert_allclose(traj.v[:, 0], -np.exp(-traj.t), rtol=1e-6, atol=1e-10)


def test_step_size_underflow_aborts_with_diagnostics():
    # x(t) = -log(1-t): the derivative blows up at t=1, steps shrink to nothing
    def singular(t, x):
        return np.array([1.0 / (1.0 - t)]) if t < 1.0 else np.array([1e30])

    # each abort holds for both pairs: a flow declared smooth runs DOP853
    for smooth in (False, True):
        flow = FlowRHS(order=1, rhs=singular, smooth=smooth)
        with pytest.raises(IntegrationError, match="step size underflow") as exc:
            integrate(flow, np.array([0.0]), t_end=2.0,
                      control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
        diag = exc.value.diagnostics
        assert {"t", "h", "accepted", "rejected"} <= set(diag)
        assert 0.9 < diag["t"] <= 1.0


def test_non_finite_state_aborts():
    for smooth in (False, True):
        flow = FlowRHS(order=1, smooth=smooth,
                       rhs=lambda t, x: np.array([1.0]) if t < 0.1 else np.array([np.nan]))
        with pytest.raises(IntegrationError, match="non-finite state"):
            integrate(flow, np.array([0.0]), t_end=1.0)


def _affine_b(k, d):
    """B(x) = -k x + d, declared affine: fb1 with A = 0 and eta 1 gives F(x) = k x - d."""
    return MonotoneMap(eval=lambda x: -k * np.asarray(x, dtype=float) + d, beta=1.0,
                       smooth=True, affine=True)


RAMP_SCHED = Schedule(lam=Profile(2.0, 1.5, 0.7), lambda_lower=1.5, lambda_upper=2.0,
                      gamma=Profile(15.0, 14.0, 0.5))
# (flow of B, v0 or None, path): one per path that forms stages from a probe
PROBED_PATHS = {
    "power": (lambda b: fb1_rhs(zero_operator(), b, 1.0, Schedule.constant(1.0)), None,
              "matrix"),
    "ramp": (lambda b: fb2_rhs(zero_operator(), b, 1.0, RAMP_SCHED), np.zeros(2), "matrix"),
    "kinked": (lambda b: fb1_rhs(prox_resolvent(l1_norm(0.5)), b, 1.0, Schedule.constant(1.0)),
               None, "kinked"),
}


def _assert_non_finite_abort(flow, x0, v0, t_end, field):
    with np.errstate(all="ignore"), pytest.raises(IntegrationError,
                                                  match="non-finite state") as exc:
        integrate(flow, x0, v0=v0, t_end=t_end)
    diag = exc.value.diagnostics
    assert set(diag) == {"t", "h", "accepted", "rejected"}
    assert 0.0 < diag["t"] < t_end and diag["h"] > 0.0 and diag["accepted"] > 0
    assert integrate_module._field(flow, np.concatenate([x0, v0]) if flow.order == 2
                                   else x0)[0] == field


@pytest.mark.parametrize("path", list(PROBED_PATHS))
def test_a_state_run_past_overflow_aborts_on_every_probed_path(path):
    # F(x) = 100 x: a large positive eigenvalue, so the state overflows long before t_end
    build, v0, field = PROBED_PATHS[path]
    _assert_non_finite_abort(build(_affine_b(100.0, np.zeros(2))), np.array([3.0, -1.0]),
                             v0, 200.0, field)


@pytest.mark.parametrize("path", ["power", "ramp", "oracle"])
def test_a_state_turned_infinite_aborts_while_the_error_rows_stay_finite(monkeypatch, path):
    # a constant field from near the largest float: the state turns +inf and -inf,
    # while every stage is the constant, so on the power form and the oracle path
    # (where no stage is evaluated at the new state) the error rows stay finite
    seen = []
    error_norm = integrate_module._error_norm

    def spy(h, sc, errors):
        seen.append((np.isfinite(sc).all(), np.isfinite(errors).all()))
        return error_norm(h, sc, errors)

    monkeypatch.setattr(integrate_module, "_error_norm", spy)
    x0, c = np.array([1.7e308, -1.7e308]), np.array([1e306, -1e306])
    if path == "oracle":
        flow, v0, field = FlowRHS(order=1, rhs=lambda t, x: c), None, "oracle"
    else:
        build, v0, field = PROBED_PATHS[path]
        flow, v0 = build(_affine_b(0.0, -c)), None if v0 is None else c
    _assert_non_finite_abort(flow, x0, v0, 1e4, field)
    if path != "ramp":  # a stage at the infinite state makes the ramp's error rows nan
        assert seen[-1] == (False, True)


def test_non_finite_initial_rhs_aborts():
    for smooth in (False, True):
        flow = FlowRHS(order=1, rhs=lambda t, x: np.array([np.nan]), smooth=smooth)
        with pytest.raises(IntegrationError, match="non-finite rhs at the initial point"):
            integrate(flow, np.array([0.0]), t_end=1.0)


def test_step_budget_aborts_after_max_steps():
    # dx/dt = -x over [0, 100] at tight tolerances needs far more than 5 steps
    for pair in PAIRS:
        with pytest.raises(IntegrationError, match="step budget exhausted") as exc:
            integrate_module._accepted_steps(pair, lambda t, y: -y, np.array([1.0]),
                                             100.0, 1e-10, 1e-13, max_steps=5)
        diag = exc.value.diagnostics
        assert diag["accepted"] + diag["rejected"] == 5
        assert 0.0 < diag["t"] < 100.0


@pytest.mark.parametrize("field", ["matrix", "oracle"])
def test_a_first_rhs_past_overflow_has_no_starting_step(field):
    # fb1 on skew-rotation from x0 = (1e300, 0): the zero component's tolerance
    # scale is abs_tol, so f0/sc overflows, d1 is inf and the trial step
    # 0.01 d0/d1 would be 0.  The overflow itself is the input
    flow = fb1_rhs(SKEW.a, SKEW.b, 1.0, Schedule.constant(1.0))
    if field == "oracle":
        flow = dataclasses.replace(flow, state_map=None)
    with np.errstate(all="ignore"), pytest.raises(IntegrationError,
                                                  match="no finite starting step") as exc:
        integrate(flow, np.array([1e300, 0.0]), t_end=20.0)
    diag = exc.value.diagnostics
    assert set(diag) == {"t", "d0", "d1"} and diag["t"] == 0.0
    assert math.isfinite(diag["d0"]) and diag["d1"] == math.inf


def test_integrate_argument_validation():
    with pytest.raises(ValueError):
        integrate(DECAY, np.array([1.0]), t_end=0.0)
    with pytest.raises(ValueError):
        integrate(DAMPED, np.array([1.0]), t_end=1.0)  # v0 missing
    with pytest.raises(ValueError):
        integrate(DECAY, np.array([1.0]), v0=np.array([0.0]), t_end=1.0)
    with pytest.raises(ValueError):
        integrate(DECAY, np.array([1.0]), t_end=1.0,
                  control=Adaptive(rel_tol=0.0, abs_tol=1e-12))
    with pytest.raises(ValueError):
        integrate(FlowRHS(order=3, rhs=lambda t, x: x), np.array([1.0]), t_end=1.0)


@pytest.mark.parametrize("n_dense", [1, 0, -5, 2.7])
def test_integrate_rejects_an_n_dense_that_is_not_an_integer_above_1(n_dense):
    # the CLI's integrator rule, with no silent clamp to 2 grid points
    with pytest.raises(ValueError, match=r"^n_dense must be an integer >= 2, got "):
        integrate(DECAY, np.array([1.0]), t_end=1.0, n_dense=n_dense)


def test_integrate_takes_a_numpy_integer_n_dense():
    traj = integrate(ZERO, np.array([1.0]), t_end=1.0, n_dense=np.int64(3))
    assert np.isin(np.linspace(0.0, 1.0, 3), traj.t).all()


def test_grid_indexes_the_even_grid_among_the_samples():
    traj = integrate(DECAY, np.array([1.0]), t_end=2.0, n_dense=50)
    assert traj.t.size > 50
    assert traj.grid.size == 50 and np.all(np.diff(traj.grid) > 0)
    assert traj.grid[0] == 0 and traj.grid[-1] == traj.t.size - 1
    assert np.all(np.abs(traj.t[traj.grid] - np.linspace(0.0, 2.0, 50)) <= 1e-12)


def test_grid_below_the_sample_resolution_keeps_one_row_per_sample():
    # every time of [0, 1e-13] is within 1e-12 of t = 0, so one sample stands in
    # for the whole grid, once
    traj = integrate(DECAY, np.array([1.0]), t_end=1e-13)
    assert traj.t.tolist() == [0.0]
    assert traj.grid.tolist() == [0]
    # below the step loop's resolution no step is taken, so no step width either
    meta = integrate(DECAY, np.array([1.0]), t_end=1e-15).meta
    assert meta["accepted"] == meta["rejected"] == 0
    assert meta["h_min"] is None and meta["h_max"] is None


def _readme_fb1():
    inst = problems.get_problem("skew-rotation")
    flow = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    return inst, flow, np.array([3.0, -1.0]), None, 20.0, Adaptive(1e-9, 1e-12)


def _readme_fb2(sched=None):
    inst = problems.get_problem("skew-rotation")
    # the derived step: 1/eta = S/delta - rho = 2 at alpha = delta = 0.5
    flow = fb2_rhs(inst.a, inst.b, eta=0.5,
                   sched=sched or Schedule.constant(40.0, gamma=11.0))
    return inst, flow, np.array([3.0, -1.0]), np.zeros(2), 23.0, Adaptive(1e-10, 1e-13)


def _readme_fb2_exp_ramp():
    return _readme_fb2(Schedule(lam=Profile(60.0, 60.0), lambda_lower=60.0,
                                lambda_upper=60.0, gamma=Profile(15.0, 14.0, 0.5)))


IDENTITY_2D = problems.make_quadratic(np.eye(2), np.zeros(2))


def _readme_grad1():
    flow = grad1_rhs(IDENTITY_2D.g, Schedule.constant(1.0))
    return IDENTITY_2D, flow, np.array([3.0, 0.0]), None, 12.0, Adaptive(1e-11, 1e-14)


def _readme_grad2():
    flow = grad2_rhs(IDENTITY_2D.g, Schedule.constant(1.6875, gamma=2.4519716382329886))
    return IDENTITY_2D, flow, np.array([2.0, 1.0]), np.zeros(2), 22.0, Adaptive(1e-10, 1e-13)


def _lasso_20d_fb1():
    inst = problems.get_problem("sc-lasso-20d")
    flow = fb1_rhs(inst.a, inst.b, eta=0.07, sched=Schedule.constant(1.0))
    return inst, flow, np.linspace(-2.0, 2.0, 20), None, 30.0, Adaptive()


REFERENCE_CASES = {"fb1": _readme_fb1, "fb2": _readme_fb2, "grad1": _readme_grad1,
                   "grad2": _readme_grad2, "fb2-exp-ramp": _readme_fb2_exp_ramp,
                   "sc-lasso-20d": _lasso_20d_fb1}


@pytest.mark.parametrize("case", list(REFERENCE_CASES.values()), ids=list(REFERENCE_CASES))
def test_trajectory_matches_scipy_dop853_reference(case):
    # an independent integrator at far tighter tolerances, read at integrate's
    # own sample times: max |x - x_ref| / ||x0 - x*|| <= 1e-6
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    inst, flow, x0, v0, t_end, control = case()
    traj = integrate(flow, x0, v0=v0, t_end=t_end, control=control)
    dim = x0.size
    if flow.order == 2:
        y0 = np.concatenate([x0, v0])

        def fun(t, y):
            return np.concatenate([y[dim:], flow.rhs(t, y[:dim], y[dim:])])
    else:
        y0, fun = x0, flow.rhs
    sol = solve_ivp(fun, (0.0, t_end), y0, method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    assert sol.success, sol.message
    x_ref = sol.sol(traj.t)[:dim].T
    scale = np.linalg.norm(x0 - inst.x_star)
    assert np.max(np.abs(traj.x - x_ref)) / scale <= 1e-6


def _affine_field(fun, n):
    """(M, c) with fun(y) = M @ y + c, read off fun at 0 and at the unit vectors."""
    c = fun(np.zeros(n))
    return np.column_stack([fun(e) - c for e in np.eye(n)]), c


def _exact_solution_error(name):
    """max |x - exact| / ||x0 - x*|| over every sample of a reference case.

    These fields are affine with constant coefficients, so the solution is
    y* + V exp(L t) V^-1 (y0 - y*) from one eigendecomposition of the field
    matrix, read off ``flow.rhs`` (the oracles, not integrate's probe).  Every
    sample is checked, the step ends trajectory.csv leaves out too.
    """
    inst, flow, x0, v0, t_end, control = REFERENCE_CASES[name]()
    traj = integrate(flow, x0, v0=v0, t_end=t_end, control=control)
    assert traj.t.size > traj.grid.size
    assert traj.meta["field"] == "matrix"
    dim = x0.size
    if flow.order == 2:
        y0 = np.concatenate([x0, v0])

        def fun(y):
            return np.concatenate([y[dim:], flow.rhs(0.0, y[:dim], y[dim:])])
    else:
        y0 = x0

        def fun(y):
            return flow.rhs(0.0, y)
    m, c = _affine_field(fun, y0.size)
    y_star = np.linalg.solve(m, -c)
    assert_allclose(y_star[:dim], inst.x_star, rtol=0, atol=1e-12)
    lam, vec = np.linalg.eig(m)
    coef = np.linalg.solve(vec, y0 - y_star)
    exact = (y_star + (np.exp(np.outer(traj.t, lam)) * coef) @ vec.T).real
    return np.max(np.abs(traj.x - exact[:, :dim])) / np.linalg.norm(x0 - inst.x_star)


AFFINE_CASES = ["fb1", "grad1", "grad2", "fb2"]


@pytest.mark.parametrize("name", AFFINE_CASES)
def test_affine_flows_match_the_exact_solution_at_every_sample(name):
    assert _exact_solution_error(name) <= 1e-8


@pytest.mark.parametrize("name", AFFINE_CASES)
def test_a_perturbed_probe_fails_the_exact_solution_check(monkeypatch, name):
    # a seeded defect in the matrix path: its probed G off by 1e-6 relative
    probe = integrate_module._probe

    def perturbed(state_map, x0):
        g, f0 = probe(state_map, x0)
        return g * (1.0 + 1e-6), f0

    monkeypatch.setattr(integrate_module, "_probe", perturbed)
    assert _exact_solution_error(name) > 1e-8


@pytest.mark.parametrize("name", AFFINE_CASES)
def test_a_perturbed_power_table_fails_the_exact_solution_check(monkeypatch, name):
    # a seeded defect in the power form: its table of A^p 1 off by 1e-6 relative
    table = integrate_module._power_table
    monkeypatch.setattr(integrate_module, "_power_table", lambda pair: table(pair) * (1.0 + 1e-6))
    assert _exact_solution_error(name) > 1e-8


SKEW = problems.get_problem("skew-rotation")
TILTED = problems.make_quadratic(np.array([[1.2, 0.3], [0.3, 1.0]]), np.array([0.5, -1.0]))
MATRIX_FLOWS = {
    "fb1-skew": lambda sched: fb1_rhs(SKEW.a, SKEW.b, 0.5, sched),
    "fb2-skew": lambda sched: fb2_rhs(SKEW.a, SKEW.b, 0.5, sched),
    "fb1-quadratic": lambda sched: fb1_rhs(TILTED.a, TILTED.b, 0.7, sched),
    "fb2-quadratic": lambda sched: fb2_rhs(TILTED.a, TILTED.b, 0.7, sched),
    "grad1-quadratic": lambda sched: grad1_rhs(TILTED.g, sched),
    "grad2-quadratic": lambda sched: grad2_rhs(TILTED.g, sched),
}
MATRIX_SCHEDULES = {
    "constant": Schedule.constant(1.7, gamma=3.0),
    "exp-ramp-gamma": Schedule(lam=Profile(1.7, 1.7), lambda_lower=1.7, lambda_upper=1.7,
                               gamma=Profile(15.0, 14.0, 0.5)),
    "exp-ramp-both": Schedule(lam=Profile(2.0, 1.5, 0.7), lambda_lower=1.5, lambda_upper=2.0,
                              gamma=Profile(15.0, 14.0, 0.5)),
    # constant in value, but plain callables: not read as constants
    "callable-constant": Schedule(lam=lambda t: 1.7, lambda_lower=1.7, lambda_upper=1.7,
                                  gamma=lambda t: 3.0),
}


def _oracle_field(flow):
    """The augmented field of ``flow.rhs``, as integrate's oracle path forms it."""
    if flow.order == 1:
        return flow.rhs
    dim = 2
    return lambda t, y: np.concatenate([y[dim:], flow.rhs(t, y[:dim], y[dim:])])


def _field_gaps(flow, y0, fun, stages=None):
    """Whether ``fun`` has the oracle field's bits at y0, and the largest gap
    |fun - oracle| / |oracle| over 50 seeded random (t, y), and that of the
    attempt form ``stages(ts, base)`` at ts[i] and y = base + u, base between y0
    and y (its ramps sampled by np.exp)."""
    rng, oracle = np.random.default_rng(21), _oracle_field(flow)
    exact, gap = True, 0.0
    for t, y in zip(rng.uniform(0.0, 20.0, 50), rng.uniform(-5.0, 5.0, (50, y0.size))):
        ts = t + rng.uniform(0.0, 1.0, 16)
        i = int(rng.integers(16))
        ref = oracle(t, y)
        gap = max(gap, np.linalg.norm(fun(t, y) - ref) / np.linalg.norm(ref))
        if stages is not None:
            ref = oracle(ts[i], y)
            base = (y0 + y) / 2
            gap = max(gap, np.linalg.norm(stages(ts, base)(i, y - base) - ref)
                      / np.linalg.norm(ref))
        exact &= np.array_equal(fun(t, y0), oracle(t, y0))
    return exact, gap


@pytest.mark.parametrize("sched", list(MATRIX_SCHEDULES))
@pytest.mark.parametrize("name", list(MATRIX_FLOWS))
def test_matrix_field_equals_the_oracle_field(name, sched):
    flow = MATRIX_FLOWS[name](MATRIX_SCHEDULES[sched])
    assert flow.state_map is not None and flow.kernel is None
    y0 = np.random.default_rng(21).uniform(-5.0, 5.0, 2 * flow.order)
    path, fun, m, stages = integrate_module._field(flow, y0)
    # the power form's constant matrix when every coefficient the flow reads is a
    # constant Profile; else (a ramp, or a plain callable) M is None and the stage
    # loop runs.  At the anchor the field is the oracles' own value, bit for bit
    stage_loop = sched in ("exp-ramp-both", "callable-constant") or (
        flow.order == 2 and sched == "exp-ramp-gamma")
    assert path == "matrix" and (m is None) == (stages is not None) == stage_loop
    exact, gap = _field_gaps(flow, y0, fun, stages)
    assert exact and gap <= 1e-13


KINKED_PROXES = {"l1": l1_norm(0.5), "box": box_indicator(-1.0, 1.0)}
KINKED_FLOWS = {"fb1": fb1_rhs, "fb2": fb2_rhs}


def _kinked_flow(prox, system, sched):
    return KINKED_FLOWS[system](prox_resolvent(KINKED_PROXES[prox]), TILTED.b, 0.7,
                                MATRIX_SCHEDULES[sched])


def _kinked_field_gaps(flow):
    y0 = np.random.default_rng(21).uniform(-5.0, 5.0, 2 * flow.order)
    path, fun, m, stages = integrate_module._field(flow, y0)
    assert path == "kinked" and m is None
    return _field_gaps(flow, y0, fun, stages)


@pytest.mark.parametrize("sched", list(MATRIX_SCHEDULES))
@pytest.mark.parametrize("system", list(KINKED_FLOWS))
@pytest.mark.parametrize("prox", list(KINKED_PROXES))
def test_kinked_field_equals_the_oracle_field(prox, system, sched):
    # lambda (J(G (x - x0) + P(x0)) - x), and x' = v and -gamma v for fb2, against
    # flow.rhs; y and the 16 stage times are drawn across the kinks
    flow = _kinked_flow(prox, system, sched)
    assert flow.kernel is not None and not flow.smooth
    exact, gap = _kinked_field_gaps(flow)
    assert exact and gap <= 1e-13


def _perturbed_probe(monkeypatch, defect):
    probe = integrate_module._probe
    monkeypatch.setattr(integrate_module, "_probe", lambda state_map, x0: defect(
        state_map, x0, *probe(state_map, x0)))


KINKED_DEFECTS = {
    # G off by 1e-6 relative
    "probe": lambda mp, flow: _perturbed_probe(mp, lambda s, x0, g, p0: (g * (1 + 1e-6), p0)),
    # the anchor value as G x0 + P(0), not the oracles' own P(x0)
    "anchor": lambda mp, flow: _perturbed_probe(
        mp, lambda s, x0, g, p0: (g, g @ x0 + s(np.zeros_like(x0)))),
    # the soft threshold eta*w off by 1e-6 relative
    "threshold": lambda mp, flow: dataclasses.replace(
        flow, kernel=functools.partial(KINKED_PROXES["l1"].kernel, 0.7 * (1 + 1e-6))),
}


@pytest.mark.parametrize("defect", list(KINKED_DEFECTS))
def test_a_seeded_defect_fails_the_kinked_field_check(monkeypatch, defect):
    flow = _kinked_flow("l1", "fb1", "constant")
    flow = KINKED_DEFECTS[defect](monkeypatch, flow) or flow
    exact, gap = _kinked_field_gaps(flow)
    assert not (exact and gap <= 1e-13)


def _constant_case(name):
    inst = TILTED if "quadratic" in name else SKEW
    return lambda: (inst, MATRIX_FLOWS[name](MATRIX_SCHEDULES["constant"]), 10.0)


def _stiff_grad2():
    # a dim-20 quadratic with spectrum [50, 100] under lambda 252 and gamma 50.9:
    # h*||M|| reaches about 1.5e3, so (h M)^p spans dozens of decades over 16 powers
    basis, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((20, 20)))
    inst = problems.make_quadratic((basis * np.linspace(50.0, 100.0, 20)) @ basis.T,
                                   np.linspace(-1.0, 1.0, 20))
    return inst, grad2_rhs(inst.g, Schedule.constant(252.0, gamma=50.9)), 2.0


def _fb2_dopri5():
    # an affine map declared without smooth: the power form of DOPRI5's tableau
    spiral = np.array([[0.1, 1.0], [-1.0, 0.1]])
    b = MonotoneMap(eval=lambda x: (spiral @ np.asarray(x)[..., None])[..., 0], beta=1.0,
                    affine=True)
    flow = fb2_rhs(zero_operator(), b, 0.5, Schedule.constant(1.0, gamma=3.0))
    return SimpleNamespace(dim=2, x_star=np.zeros(2)), flow, 10.0


POWER_CASES = {**{name: _constant_case(name) for name in MATRIX_FLOWS},
               "grad2-stiff-20d": _stiff_grad2, "fb2-dopri5": _fb2_dopri5}


@pytest.mark.parametrize("name", list(POWER_CASES))
def test_power_form_matches_the_stage_loop(monkeypatch, name):
    # a constant-coefficient field runs the power form; the same field, its matrix
    # withheld, runs the stage loop: the two agree to 1e-10 at every grid row
    inst, flow, t_end = POWER_CASES[name]()
    x0 = np.linspace(3.0, -1.0, inst.dim)
    v0 = np.linspace(-1.0, 1.0, inst.dim) if flow.order == 2 else None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        power = integrate(flow, x0, v0=v0, t_end=t_end)
    field = integrate_module._field

    def withheld(flow, y0):
        path, fun, m, stages = field(flow, y0)
        assert m is not None
        return path, fun, None, stages

    monkeypatch.setattr(integrate_module, "_field", withheld)
    loop = integrate(flow, x0, v0=v0, t_end=t_end)
    assert power.meta["field"] == loop.meta["field"] == "matrix"
    assert power.meta["solver"] == (DOPRI5 if name == "fb2-dopri5" else DOP853)
    assert np.array_equal(power.t[power.grid], loop.t[loop.grid])
    gap = np.max(np.abs(power.x[power.grid] - loop.x[loop.grid]))
    assert gap <= 1e-10 * np.linalg.norm(x0 - inst.x_star)


ONE_PROBE_RUNS = {
    "fb1-constant": _readme_fb1, "fb2-constant": _readme_fb2,
    "fb2-exp-ramp": _readme_fb2_exp_ramp,
    "l1-fb1-kinked": lambda: (TILTED, _kinked_flow("l1", "fb1", "constant"),
                              np.array([3.0, -1.0]), None, 10.0, Adaptive()),
}


@pytest.mark.parametrize("name", list(ONE_PROBE_RUNS))
def test_integrate_probes_the_state_map_once_and_no_stage_calls_the_oracles(name):
    # one state_map call, the probe; flow.rhs is called only by the first-order
    # velocity pass, once per row block of the samples, and never at order 2
    inst, flow, x0, v0, t_end, control = ONE_PROBE_RUNS[name]()
    calls = {"state_map": 0, "rhs": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    flow = dataclasses.replace(flow, state_map=counted("state_map", flow.state_map),
                               rhs=counted("rhs", flow.rhs))
    traj = integrate(flow, x0, v0=v0, t_end=t_end, control=control)
    assert traj.meta["field"] == ("kinked" if flow.kernel else "matrix")
    velocity = len(row_blocks(traj.t.size, x0.size)) if flow.order == 1 else 0
    assert calls == {"state_map": 1, "rhs": velocity}


def _lasso_20d_run(system, sched):
    inst = problems.get_problem("sc-lasso-20d")
    flow = KINKED_FLOWS[system](inst.a, inst.b, 0.07, MATRIX_SCHEDULES[sched])
    return flow, np.linspace(-2.0, 2.0, 20), np.zeros(20) if system == "fb2" else None, 30.0


def _tilted_run(prox, system):
    v0 = np.array([0.5, 0.5]) if system == "fb2" else None
    return _kinked_flow(prox, system, "exp-ramp-both"), np.array([3.0, -1.0]), v0, 10.0


KINKED_RUNS = {
    "sc-lasso-20d-fb1": functools.partial(_lasso_20d_run, "fb1", "constant"),
    "sc-lasso-20d-fb2-ramps": functools.partial(_lasso_20d_run, "fb2", "exp-ramp-both"),
    **{"%s-%s-ramps" % key: functools.partial(_tilted_run, *key)
       for key in itertools.product(KINKED_PROXES, KINKED_FLOWS)},
}


@pytest.mark.parametrize("name", list(KINKED_RUNS))
def test_kinked_loop_matches_the_oracle_loop(name):
    # the kinked loop against the same flow with its state_map and kernel withheld:
    # at every grid row within 1e-7 of the distance the oracle run travels
    # (measured up to 1.3e-8, on the dim-20 lasso at the default tolerances)
    flow, x0, v0, t_end = KINKED_RUNS[name]()
    kinked = integrate(flow, x0, v0=v0, t_end=t_end)
    oracle = integrate(dataclasses.replace(flow, state_map=None, kernel=None), x0, v0=v0,
                       t_end=t_end)
    assert (kinked.meta["field"], oracle.meta["field"]) == ("kinked", "oracle")
    assert kinked.meta["solver"] == oracle.meta["solver"] == DOPRI5
    assert np.array_equal(kinked.t[kinked.grid], oracle.t[oracle.grid])
    gap = np.max(np.abs(kinked.x[kinked.grid] - oracle.x[oracle.grid]))
    assert gap <= 1e-7 * np.linalg.norm(x0 - oracle.x[-1])


def _ramp_grad2_20d():
    basis, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((20, 20)))
    inst = problems.make_quadratic((basis * np.linspace(1.0, 2.0, 20)) @ basis.T,
                                   np.linspace(-1.0, 1.0, 20))
    return inst, grad2_rhs(inst.g, MATRIX_SCHEDULES["exp-ramp-both"])


RAMP_RUNS = {
    **{"%s-%s" % (name, sched): functools.partial(
        lambda name, sched: (TILTED if "quadratic" in name else SKEW,
                             MATRIX_FLOWS[name](MATRIX_SCHEDULES[sched])), name, sched)
       for name in MATRIX_FLOWS for sched in ("exp-ramp-gamma", "exp-ramp-both")},
    "grad2-20d-exp-ramp-both": _ramp_grad2_20d,
}


@pytest.mark.parametrize("name", list(RAMP_RUNS))
def test_ramp_loop_matches_the_oracle_loop(name):
    # a field with a ramp (its stages from per-attempt stacks of [M | b], or the
    # power form when the ramp is a gamma that a first-order flow does not read)
    # against the same flow with its state_map withheld: within 1e-10 of
    # ||x0 - x*|| at every grid row, n = 40 state components on the 20d run
    inst, flow = RAMP_RUNS[name]()
    x0 = np.linspace(3.0, -1.0, inst.dim)
    v0 = np.linspace(-1.0, 1.0, inst.dim) if flow.order == 2 else None
    ramp = integrate(flow, x0, v0=v0, t_end=10.0)
    oracle = integrate(dataclasses.replace(flow, state_map=None), x0, v0=v0, t_end=10.0)
    assert (ramp.meta["field"], oracle.meta["field"]) == ("matrix", "oracle")
    assert ramp.meta["solver"] == oracle.meta["solver"] == DOP853
    assert np.array_equal(ramp.t[ramp.grid], oracle.t[oracle.grid])
    gap = np.max(np.abs(ramp.x[ramp.grid] - oracle.x[oracle.grid]))
    assert gap <= 1e-10 * np.linalg.norm(x0 - inst.x_star)


SAMPLED_RUNS = {
    "fb2-ramp-gamma": (lambda: MATRIX_FLOWS["fb2-skew"](MATRIX_SCHEDULES["exp-ramp-gamma"]),
                       DOP853),
    "fb2-constant": (lambda: MATRIX_FLOWS["fb2-skew"](MATRIX_SCHEDULES["constant"]), DOP853),
    "l1-fb1-constant": (lambda: _kinked_flow("l1", "fb1", "constant"), DOPRI5),
    "l1-fb2-ramps": (lambda: _kinked_flow("l1", "fb2", "exp-ramp-both"), DOPRI5),
}


@pytest.mark.parametrize("name", list(SAMPLED_RUNS))
def test_the_step_loop_samples_a_ramp_once_per_attempt_and_no_constant(monkeypatch, name):
    # Profile calls made inside the step loop: none by a constant; by a ramp on
    # the matrix path, one call on each attempt's array of stage times, and on
    # the kinked path one on each stage's float time; and two more on a float t
    # (the initial stage and the first step's estimate)
    build, solver = SAMPLED_RUNS[name]
    calls, in_loop = [], []
    profile_call, accepted_steps = Profile.__call__, integrate_module._accepted_steps

    def counted(self, t):
        if in_loop:
            calls.append((self, t))
        return profile_call(self, t)

    def looped(*args, **kwargs):
        in_loop.append(True)
        try:
            return accepted_steps(*args, **kwargs)
        finally:
            in_loop.clear()

    monkeypatch.setattr(Profile, "__call__", counted)
    monkeypatch.setattr(integrate_module, "_accepted_steps", looped)
    flow = build()
    v0 = np.zeros(2) if flow.order == 2 else None
    meta = integrate(flow, np.array([3.0, -1.0]), v0=v0, t_end=5.0).meta
    assert meta["solver"] == solver
    coefs = (flow.sched.lam, flow.sched.gamma)[:flow.order]
    ramps = [coef for coef in coefs if coef.start != coef.end]
    assert {id(coef) for coef, _ in calls} == {id(coef) for coef in ramps}
    n_stages = len(PAIRS[solver == DOP853].c)
    attempts = meta["accepted"] + meta["rejected"]
    for ramp in ramps:
        ts = [t for coef, t in calls if coef is ramp]
        arrays = [t for t in ts if isinstance(t, np.ndarray)]
        if meta["field"] == "kinked":
            assert not arrays and len(ts) == attempts * (n_stages - 1) + 2
            continue
        assert len(arrays) == attempts
        assert all(t.shape == (n_stages,) for t in arrays)
        assert len(ts) - len(arrays) == 2


@pytest.mark.parametrize("prox", list(KINKED_PROXES))
def test_kinked_oracles_take_the_kinked_loop_when_they_declare_a_kernel(prox):
    # the catalog's l1 and box resolvents declare a kernel; the same resolvent
    # without one stays on the oracle path.  Both run DOPRI5
    f = KINKED_PROXES[prox]
    for a, field in ((prox_resolvent(f), "kinked"),
                     (ResolventOracle(resolve=f.prox), "oracle")):
        assert not a.affine and (a.kernel is None) == (field == "oracle")
        for flow in (fb1_rhs(a, TILTED.b, 0.7, Schedule.constant(1.0)),
                     fb2_rhs(a, TILTED.b, 0.7, Schedule.constant(1.0, gamma=3.0))):
            assert (flow.state_map is None) == (field == "oracle")
            v0 = np.zeros(2) if flow.order == 2 else None
            meta = integrate(flow, np.array([3.0, -1.0]), v0=v0, t_end=1.0).meta
            assert meta["field"] == field
            assert meta["solver"] == DOPRI5


def test_a_user_oracle_opts_in_by_declaring_affine():
    rotate = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for affine, field in ((False, "oracle"), (True, "matrix")):
        b = MonotoneMap(eval=lambda x: (rotate @ np.asarray(x)[..., None])[..., 0], beta=1.0,
                        smooth=True, affine=affine)
        flow = fb1_rhs(zero_operator(), b, 0.5, Schedule.constant(1.0))
        assert integrate(flow, np.array([3.0, -1.0]), t_end=1.0).meta["field"] == field


def _sc_lasso_fb1(w):
    inst = problems.make_sc_lasso(np.diag([1.0, 2.0]), np.array([1.0, -1.0]), w)
    return fb1_rhs(inst.a, inst.b, eta=0.5, sched=Schedule.constant(1.0))


SELECTION = {
    "fb1-skew": (lambda: _readme_fb1()[1], DOP853),
    "fb2-skew": (lambda: _readme_fb2()[1], DOP853),
    "grad1-quadratic": (lambda: _readme_grad1()[1], DOP853),
    "grad2-quadratic": (lambda: _readme_grad2()[1], DOP853),
    "fb1-sc-lasso-w0": (lambda: _sc_lasso_fb1(0.0), DOP853),
    "fb1-sc-lasso-w1": (lambda: _sc_lasso_fb1(1.0), DOPRI5),
}


@pytest.mark.parametrize("name", list(SELECTION))
def test_flows_pick_the_pair_from_the_declared_smoothness(name):
    build, solver = SELECTION[name]
    flow = build()
    assert flow.smooth == (solver == DOP853)
    v0 = np.zeros(2) if flow.order == 2 else None
    meta = integrate(flow, np.array([3.0, -1.0]), v0=v0, t_end=2.0).meta
    assert meta["solver"] == solver
    # DOP853: 12 stages per step plus the 3 dense-output stages per accepted step
    per_step, per_accepted = (12, 3) if solver == DOP853 else (6, 0)
    assert meta["rhs_evaluations"] == (2 + per_step * (meta["accepted"] + meta["rejected"])
                                       + per_accepted * meta["accepted"])


def test_record_metrics_at_rest():
    traj = integrate(ZERO, np.zeros(1), t_end=2.0)
    m = record_metrics(traj, SimpleNamespace(x_star=np.zeros(1), f=None, g=None))
    assert np.all(m.h == 0.0)
    assert np.all(m.u == 0.0)
    assert m.gap is None and m.gradnorm is None


def test_record_metrics_quadratic_decay():
    inst = problems.make_quadratic(np.array([[1.0]]), np.array([0.0]))
    traj = integrate(DECAY, np.array([1.0]), t_end=3.0,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    m = record_metrics(traj, inst)
    decay = np.exp(-2.0 * m.t)
    assert_allclose(m.h, decay, rtol=1e-7, atol=1e-12)
    assert_allclose(m.u, decay, rtol=1e-7, atol=1e-12)
    assert_allclose(m.gap, 0.5 * decay, rtol=1e-7, atol=1e-12)
    assert_allclose(m.gradnorm, np.exp(-m.t), rtol=1e-7, atol=1e-12)


def test_record_metrics_velocity_norm():
    drift = FlowRHS(order=2, rhs=lambda t, x, v: np.zeros_like(v))
    traj = integrate(drift, np.zeros(2), v0=np.array([3.0, 4.0]), t_end=2.0)
    m = record_metrics(traj, SimpleNamespace(x_star=np.zeros(2), f=None, g=None))
    assert_allclose(m.u, 25.0, rtol=1e-9)
    assert_allclose(m.h, 25.0 * m.t ** 2, rtol=1e-7, atol=1e-12)


def test_record_metrics_requires_ground_truth():
    traj = integrate(ZERO, np.zeros(1), t_end=1.0)
    with pytest.raises(ValueError, match="x_star"):
        record_metrics(traj, SimpleNamespace(f=None, g=None))


def test_record_metrics_rejects_bogus_solution():
    inst = problems.make_quadratic(np.array([[1.0]]), np.array([0.0]))
    traj = integrate(ZERO, np.zeros(1), t_end=1.0)
    fake = SimpleNamespace(x_star=np.array([1.0]), f=None, g=inst.g)
    with pytest.raises(ValueError, match="x_star is suspect"):
        record_metrics(traj, fake)


def test_fb1_trajectory_contracts_without_rebound():
    inst = problems.get_problem("skew-rotation")
    flow = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    traj = integrate(flow, np.array([5.0, -3.0]), t_end=20.0,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    m = record_metrics(traj, inst)
    assert np.all(np.diff(m.h) <= 1e-9)
    assert m.h[-1] <= 1e-7 * m.h[0]


def test_csv_round_trip_and_determinism(tmp_path):
    inst = problems.make_quadratic(np.array([[1.0]]), np.array([0.0]))

    def run(path):
        traj = integrate(DECAY, np.array([1.0]), t_end=2.0)
        to_csv(traj, record_metrics(traj, inst), path)
        return traj

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    traj = run(p1)
    run(p2)
    assert p1.read_bytes() == p2.read_bytes()

    header = p1.read_text().splitlines()[0]
    assert header == "t,x_0,v_0,h,u,gap,gradnorm"
    data = np.genfromtxt(p1, delimiter=",", names=True)
    # the rows are the even-grid samples, and %.17g round-trips doubles exactly
    assert data.size == traj.grid.size < traj.t.size
    assert np.array_equal(data["t"], traj.t[traj.grid])
    assert np.array_equal(data["x_0"], traj.x[traj.grid, 0])


def test_csv_missing_metrics_are_nan(tmp_path):
    traj = integrate(ZERO, np.zeros(2), t_end=1.0)
    path = tmp_path / "plain.csv"
    to_csv(traj, None, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,v_0,v_1,h,u,gap,gradnorm"
    assert lines[1].endswith("nan,nan,nan,nan")


def _near_ties(js):
    """Doubles v whose 17 significant digits end about 2**-52 units from a rounding
    tie, one per decade 10**-j and binary exponent: v = m 2**-(s + j), m of 53
    bits, scales to v 10**(j) = m 5**j / 2**s in [1e16, 1e17), and m 5**j mod
    2**s lies near 2**(s - 1).  The lattice of (w m, m 5**j mod 2**s), w
    weighing m's range against the residue, is Gauss-reduced, and the point
    nearest (w 1.5 2**52, 2**(s - 1)) is found by rounding its coordinates (Babai)."""
    out = []
    for j in js:
        for s in range(int(2.32 * j) - 4, int(2.33 * j) + 5):
            n = 1 << s
            if (5 ** j << 53) > (10 ** 17 << s) or (5 ** j << 52) < (10 ** 16 << s):
                continue
            w = max(1, n >> 103)
            b1, b2 = (w, pow(5, j, n)), (0, n)
            while True:
                if b1[0] ** 2 + b1[1] ** 2 > b2[0] ** 2 + b2[1] ** 2:
                    b1, b2 = b2, b1
                mu = round(Fraction(b1[0] * b2[0] + b1[1] * b2[1], b1[0] ** 2 + b1[1] ** 2))
                if mu == 0:
                    break
                b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
            det, t = b1[0] * b2[1] - b1[1] * b2[0], (w * (3 << 51), n // 2)
            x = round(Fraction(t[0] * b2[1] - t[1] * b2[0], det))
            y = round(Fraction(b1[0] * t[1] - b1[1] * t[0], det))
            m = (x * b1[0] + y * b2[0]) // w
            if 1 << 52 <= m < 1 << 53:
                out.append(math.ldexp(m, -(s + j)))
    return out


def _exact_ties(rng):
    """Doubles whose 17 significant digits are followed by exactly 5: v 10**j =
    m 5**j / 2 for odd m, with m 5**j in [2e16, 2e17) and m below 2**53."""
    out = [1234567890123456.75]
    for j in range(1, 25):
        lo, hi = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        out += [(m | 1) / 2 ** (j + 1) for m in rng.integers(lo, hi, 10).tolist()
                if (m | 1) < hi]
    return out


def test_write_table_writes_the_bytes_of_the_float_format(tmp_path):
    # every cell against FLOAT % v: random bit patterns, subnormals, magnitudes
    # from 1e-300 to 1e300, integers and eighths, exact and near rounding ties,
    # each power of ten with its neighbours one ulp away, and the literals, each
    # with both signs, over several row blocks
    rng = np.random.default_rng(34)
    powers = np.array([float("1e%d" % k) for k in range(-300, 301)])
    cells = np.concatenate([
        rng.integers(0, 2 ** 64, 6000, dtype=np.uint64).view(float),
        rng.integers(1, 2 ** 52, 500, dtype=np.uint64).view(float),
        rng.random(6000) * 10.0 ** rng.uniform(-300, 300, 6000),
        rng.integers(-2 ** 53, 2 ** 53, 1000).astype(float),
        rng.integers(-10 ** 6, 10 ** 6, 1000) / 8.0,
        _exact_ties(rng), _near_ties(range(23, 297, 3)),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        [0.0, math.nan, math.inf]])
    cells = np.concatenate([cells, -cells, np.zeros(-2 * cells.size % 7)])
    table = cells.reshape(-1, 7)
    assert len(row_blocks(len(table), 8 * 7)) > 1
    path = tmp_path / "table.csv"
    write_table(path, list("abcdefg"), table)
    expected = "a,b,c,d,e,f,g\n" + "".join(
        ",".join(FLOAT % c for c in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode()


def test_the_oracle_path_aborts_a_diverging_run_with_an_integration_error():
    # fb2 on skew-rotation at lambda 40, gamma 0.01 diverges; without a state_map
    # a stage past the overflow reaches the catalog oracles, whose own check of
    # the stage state raises ValueError
    flow = dataclasses.replace(
        fb2_rhs(SKEW.a, SKEW.b, 1.0, Schedule.constant(40.0, gamma=0.01)), state_map=None)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            IntegrationError, match="non-finite state during integration") as exc:
        integrate(flow, np.array([1.0, 0.0]), v0=np.zeros(2), t_end=500.0)
    assert 0.0 < exc.value.diagnostics["t"] < 500.0
    assert isinstance(exc.value.__cause__, ValueError)


def _interp_reference(steps, tau):
    """The per-sample dense output that the batched path replaced: one
    searchsorted and one evaluation of the pair's interpolant per sample time,
    DOPRI5's 4th-order one or DOP853's 7th-order one (Hairer's CONTD8)."""
    lefts, widths, *coeffs = steps
    idx = int(np.searchsorted(np.array(lefts), tau, side="right")) - 1
    idx = min(max(idx, 0), len(lefts) - 1)
    c = [column[idx] for column in coeffs]
    s = (tau - lefts[idx]) / widths[idx]
    s1 = 1.0 - s
    if len(c) == 5:
        return c[0] + s * (c[1] + s1 * (c[2] + s * (c[3] + s1 * c[4])))
    conpar = c[4] + s * (c[5] + s1 * (c[6] + s * c[7]))
    return c[0] + s * (c[1] + s1 * (c[2] + s * (c[3] + s1 * conpar)))


def _captured_steps(monkeypatch):
    """The list that each ``_accepted_steps`` call of ``integrate`` appends its result to."""
    captured = []
    accepted_steps = integrate_module._accepted_steps

    def keep_steps(pair, *args):
        captured.append(accepted_steps(pair, *args))
        return captured[-1]

    monkeypatch.setattr(integrate_module, "_accepted_steps", keep_steps)
    return captured


STEP_CASES = [("fb2", DOP853), ("sc-lasso-20d", DOPRI5)]


@pytest.mark.parametrize("name, solver", STEP_CASES, ids=[name for name, _ in STEP_CASES])
def test_dense_output_matches_per_sample_interpolation(name, solver, monkeypatch):
    _, flow, x0, v0, t_end, control = REFERENCE_CASES[name]()
    captured = _captured_steps(monkeypatch)
    traj = integrate(flow, x0, v0=v0, t_end=t_end, control=control, n_dense=700)
    assert traj.meta["solver"] == solver
    steps, t_fin, y_fin, _ = captured[0]
    assert len(steps[0]) > 50
    ys = np.empty((traj.t.size, y_fin.size))
    ys[0] = np.concatenate([x0, v0]) if flow.order == 2 else x0
    for i in range(1, traj.t.size):
        ys[i] = y_fin if traj.t[i] >= t_fin else _interp_reference(steps, traj.t[i])
    got = np.hstack([traj.x, traj.v]) if flow.order == 2 else traj.x
    assert got.tobytes() == ys.tobytes()  # bitwise, signed zeros included


def test_dop853_coefficients_match_scipy():
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    m = integrate_module

    def same(ours, theirs):
        theirs = np.asarray(theirs, dtype=float)
        assert np.array(ours, dtype=float).tobytes() == theirs[:len(ours)].tobytes()
        assert not theirs[len(ours):].any()  # only zeros left out

    for i, row in enumerate(m._A8):
        same(row, coef.A[i])
    same(m._C8, coef.C)
    same(m._E5, coef.E5)
    same(m._E3, coef.E3)
    for row, theirs in zip(m._D8, coef.D, strict=True):
        same(row, theirs)


@pytest.mark.parametrize("pair", PAIRS, ids=[DOPRI5, DOP853])
def test_tableau_rows_are_consistent(pair):
    # row sums of A give c, the solution weights sum to 1 and the error weights
    # to 0; each entry is rounded to double, so the bound scales with sum |a_ij|
    m = integrate_module
    a, c = (m._A, m._C) if pair is m._DOPRI5 else (m._A8, m._C8)
    errors = (m._E,) if pair is m._DOPRI5 else (m._E5, m._E3)
    dense = (m._D,) if pair is m._DOPRI5 else m._D8
    assert len(a) == len(c) == len(pair.c)
    assert math.fsum(a[pair.stages - 1]) == 1.0
    for row, target in list(zip(a[1:], c[1:])) + [(e, 0.0) for e in errors]:
        bound = 1e-15 * math.fsum(abs(x) for x in row)
        assert abs(math.fsum(row) - target) <= bound

    def padded(rows):
        return np.array([list(row) + [0.0] * (len(c) - len(row)) for row in rows])

    # the matrices hold those rows bit for bit, zero padding included: the
    # tableau, then the solution row, the error rows and the dense rows
    assert pair.a.shape == (len(c), len(c)) and pair.a.tobytes() == padded(a).tobytes()
    w = padded((a[pair.stages - 1], *errors, *dense))
    assert pair.n_err == len(errors) and pair.w.shape == w.shape
    for got, want in zip(pair.w, w):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, solver", STEP_CASES, ids=[name for name, _ in STEP_CASES])
def test_both_pairs_grow_the_step_at_most_sixfold(name, solver, monkeypatch):
    # one step-size rule: an accepted width is at most 6 times the one before it
    # (up to the rounding of h / (1/6)); the kinked lasso run reaches that bound
    _, flow, x0, v0, t_end, control = REFERENCE_CASES[name]()
    captured = _captured_steps(monkeypatch)
    assert integrate(flow, x0, v0=v0, t_end=t_end, control=control).meta["solver"] == solver
    widths = np.array(captured[0][0][1])
    growth = widths[1:] / widths[:-1]
    assert growth.max() <= 6.0 * (1.0 + 4.0 * np.finfo(float).eps)
    if solver == DOPRI5:
        assert growth.max() >= 6.0 * (1.0 - 4.0 * np.finfo(float).eps)


@pytest.mark.parametrize("dim", [1, 2, 20, 100])
def test_error_norm_of_one_row_is_the_rms_norm(dim):
    # with a single error row Hairer's estimate h*e/sqrt(n*e) is the RMS norm of
    # h*row/sc; the two roundings differ by at most 3.0 eps in 20000 seeded draws
    # per dim, so the bound is 4 eps of the RMS norm
    rng = np.random.default_rng(dim)
    for _ in range(200):
        row = rng.standard_normal(dim) * 10.0 ** rng.uniform(-12.0, -6.0)
        sc = 1e-12 + 1e-9 * np.abs(rng.standard_normal(dim)) * 10.0 ** rng.uniform(-3.0, 3.0)
        h = 10.0 ** rng.uniform(-4.0, 1.0)
        rms = integrate_module._rms(h * row / sc)
        got = integrate_module._error_norm(h, sc, row[None])
        assert abs(got - rms) <= 4.0 * np.finfo(float).eps * rms
    assert integrate_module._error_norm(0.5, np.ones(dim), np.zeros((1, dim))) == 0.0


def test_error_norm_of_two_rows_keeps_the_dop853_bits():
    # the value of Hairer's DOP853 norm (e3 from the second row alone) on these
    # inputs, pinned before DOPRI5 shared it
    rng = np.random.default_rng(26)
    errors = rng.standard_normal((2, 20)) * 1e-9
    sc = 1e-12 + 1e-9 * np.abs(rng.standard_normal(20))
    assert integrate_module._error_norm(0.37, sc, errors) == 3.348266852492588


def _per_sample_v(flow, traj):
    """The per-sample velocities that the block path replaced: one rhs call each."""
    return np.array([np.asarray(flow.rhs(t, x), dtype=float)
                     for t, x in zip(traj.t, traj.x)])


def _first_order_case(name, sched):
    if name == "fb1-sc-lasso-20d":
        inst = problems.get_problem("sc-lasso-20d")
        return inst, fb1_rhs(inst.a, inst.b, eta=0.07, sched=sched), np.linspace(-2, 2, 20)
    inst = problems.get_problem("quadratic-2d")
    return inst, grad1_rhs(inst.g, sched), np.array([3.0, -1.0])


@pytest.mark.parametrize("name", ["fb1-sc-lasso-20d", "grad1-quadratic-2d"])
def test_first_order_v_from_blocks_matches_per_sample_rhs(name):
    # constant lambda: bitwise; 2000 dense samples span several row blocks at dim 20
    _, flow, x0 = _first_order_case(name, Schedule.constant(1.0))
    traj = integrate(flow, x0, t_end=8.0, n_dense=2000)
    assert len(row_blocks(*traj.x.shape)) >= (3 if x0.size == 20 else 1)
    assert traj.v.tobytes() == _per_sample_v(flow, traj).tobytes()


@pytest.mark.parametrize("name", ["fb1-sc-lasso-20d", "grad1-quadratic-2d"])
def test_first_order_v_with_a_ramp_is_within_4_ulps(name):
    # a block samples the ramp with np.exp, a float t with math.exp: lambda may
    # differ by 1 ulp, which the product v = lambda * (...) turns into at most 4
    sched = Schedule(lam=Profile(2.0, 1.0, 0.5), lambda_lower=1.0, lambda_upper=2.0)
    _, flow, x0 = _first_order_case(name, sched)
    traj = integrate(flow, x0, t_end=8.0, n_dense=2000)
    ref = _per_sample_v(flow, traj)
    assert np.all(np.abs(traj.v - ref) <= 4.0 * np.spacing(np.abs(ref)))


def _metrics_reference(traj, inst):
    """The per-row gap and gradnorm formulas that the block path replaced, with
    the old point formulas of the l1 and quadratic values."""
    d = inst.descriptor
    q, b = np.array(d["Q"]), np.array(d["b"])
    w = d.get("w", 0.0)

    def total(x):
        s = 0.0
        if w > 0.0:
            s += w * float(np.sum(np.abs(x)))
        s += 0.5 * float(x @ q @ x) + float(b @ x)
        return s

    base = total(inst.x_star)
    gap = np.array([total(x) for x in traj.x]) - base
    gradnorm = np.array([float(np.linalg.norm(q @ x + b)) for x in traj.x])
    return gap, gradnorm


@pytest.mark.parametrize("name", ["fb1-sc-lasso-20d", "grad1-quadratic-2d"])
def test_record_metrics_matches_per_row_formulas(name):
    inst, flow, x0 = _first_order_case(name, Schedule.constant(1.0))
    traj = integrate(flow, x0, t_end=8.0, n_dense=2000)
    m = record_metrics(traj, inst)
    gap, gradnorm = _metrics_reference(traj, inst)
    assert m.gap.tobytes() == gap.tobytes()
    assert m.gradnorm.tobytes() == gradnorm.tobytes()
