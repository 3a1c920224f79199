"""Integrator behaviour: closed-form and reference accuracy, aborts, CSV."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import integrate as integrate_module
from fbflows import problems
from fbflows.flows import FlowRHS, Profile, Schedule, fb1_rhs, fb2_rhs, grad1_rhs
from fbflows.integrate import (
    Adaptive,
    IntegrationError,
    integrate,
    record_metrics,
    to_csv,
)
from fbflows.operators import row_blocks

DECAY = FlowRHS(order=1, rhs=lambda t, x: -x, description="dx/dt = -x")
ZERO = FlowRHS(order=1, rhs=lambda t, x: np.zeros_like(x), description="dx/dt = 0")
DAMPED = FlowRHS(order=2, rhs=lambda t, x, v: -3.0 * v - 2.0 * x,
                 description="x'' + 3x' + 2x = 0")


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
    assert meta["solver"] == "dopri5(4)-pi"
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

    flow = FlowRHS(order=1, rhs=singular, description="derivative pole at t=1")
    with pytest.raises(IntegrationError, match="step size underflow") as exc:
        integrate(flow, np.array([0.0]), t_end=2.0,
                  control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    diag = exc.value.diagnostics
    assert {"t", "h", "accepted", "rejected"} <= set(diag)
    assert 0.9 < diag["t"] <= 1.0


def test_non_finite_state_aborts():
    flow = FlowRHS(order=1,
                   rhs=lambda t, x: np.array([1.0]) if t < 0.1 else np.array([np.nan]))
    with pytest.raises(IntegrationError, match="non-finite state"):
        integrate(flow, np.array([0.0]), t_end=1.0)


def test_non_finite_initial_rhs_aborts():
    flow = FlowRHS(order=1, rhs=lambda t, x: np.array([np.nan]))
    with pytest.raises(IntegrationError, match="non-finite rhs at the initial point"):
        integrate(flow, np.array([0.0]), t_end=1.0)


def test_step_budget_aborts_after_max_steps():
    # dx/dt = -x over [0, 100] at tight tolerances needs far more than 5 steps
    with pytest.raises(IntegrationError, match="step budget exhausted") as exc:
        integrate_module._dopri5(lambda t, y: -y, 0.0, np.array([1.0]), 100.0,
                                 1e-10, 1e-13, max_steps=5)
    diag = exc.value.diagnostics
    assert diag["accepted"] + diag["rejected"] == 5
    assert 0.0 < diag["t"] < 100.0


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


def _readme_fb1():
    inst = problems.get_problem("skew-rotation")
    flow = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    return inst, flow, np.array([3.0, -1.0]), None, 20.0, Adaptive(1e-9, 1e-12)


def _readme_fb2():
    inst = problems.get_problem("skew-rotation")
    # the derived step: 1/eta = S/delta - rho = 2 at alpha = delta = 0.5
    flow = fb2_rhs(inst.a, inst.b, eta=0.5, sched=Schedule.constant(40.0, gamma=11.0))
    return inst, flow, np.array([3.0, -1.0]), np.zeros(2), 23.0, Adaptive(1e-10, 1e-13)


@pytest.mark.parametrize("case", [_readme_fb1, _readme_fb2], ids=["fb1", "fb2"])
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
    # %.17g round-trips doubles exactly
    assert np.array_equal(data["t"], traj.t)
    assert np.array_equal(data["x_0"], traj.x[:, 0])


def test_csv_missing_metrics_are_nan(tmp_path):
    traj = integrate(ZERO, np.zeros(2), t_end=1.0)
    path = tmp_path / "plain.csv"
    to_csv(traj, None, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,v_0,v_1,h,u,gap,gradnorm"
    assert lines[1].endswith("nan,nan,nan,nan")


def _interp_reference(steps, tau):
    """The per-sample dense output that the batched path replaced: one
    searchsorted and one Hermite evaluation per sample time."""
    lefts, widths, *coeffs = steps
    idx = int(np.searchsorted(np.array(lefts), tau, side="right")) - 1
    idx = min(max(idx, 0), len(lefts) - 1)
    c1, c2, c3, c4, c5 = (c[idx] for c in coeffs)
    th = (tau - lefts[idx]) / widths[idx]
    return c1 + th * (c2 + (1.0 - th) * (c3 + th * (c4 + (1.0 - th) * c5)))


def _fb2_skew():
    inst = problems.get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=11.0)
    flow = fb2_rhs(inst.a, inst.b, eta=0.25, sched=sched)
    return flow, np.array([3.0, -1.0]), np.zeros(2), 23.0, Adaptive(1e-10, 1e-13)


def _fb1_lasso_20d():
    inst = problems.get_problem("sc-lasso-20d")
    flow = fb1_rhs(inst.a, inst.b, eta=0.07, sched=Schedule.constant(1.0))
    x0 = np.linspace(-2.0, 2.0, 20)
    return flow, x0, None, 30.0, Adaptive()


@pytest.mark.parametrize("case", [_fb2_skew, _fb1_lasso_20d], ids=["fb2", "sc-lasso-20d"])
def test_dense_output_matches_per_sample_interpolation(case, monkeypatch):
    flow, x0, v0, t_end, control = case()
    captured = []
    dopri5 = integrate_module._dopri5

    def keep_steps(*args):
        captured.append(dopri5(*args))
        return captured[-1]

    monkeypatch.setattr(integrate_module, "_dopri5", keep_steps)
    traj = integrate(flow, x0, v0=v0, t_end=t_end, control=control, n_dense=700)
    steps, t_fin, y_fin, _ = captured[0]
    assert len(steps[0]) > 50
    ys = np.empty((traj.t.size, y_fin.size))
    ys[0] = np.concatenate([x0, v0]) if flow.order == 2 else x0
    for i in range(1, traj.t.size):
        ys[i] = y_fin if traj.t[i] >= t_fin else _interp_reference(steps, traj.t[i])
    got = np.hstack([traj.x, traj.v]) if flow.order == 2 else traj.x
    assert got.tobytes() == ys.tobytes()  # bitwise, signed zeros included


@pytest.mark.parametrize("dim", [1, 2, 4, 20])
def test_stage_combination_matches_sequential_sum(dim):
    # the reduce over K[:len(w)] (zero tableau entries included) gives the bits of
    # a left-to-right sum over the nonzero entries, signed zeros and cancellations too
    rng = np.random.default_rng(dim)
    rows = [integrate_module._A[i] for i in range(1, 7)]
    rows += [integrate_module._E, integrate_module._D]
    weights = list(integrate_module._A_W[1:]) + [integrate_module._E_W,
                                                 integrate_module._D_W]
    for _ in range(200):
        K = rng.standard_normal((7, dim)) * 10.0 ** rng.uniform(-8, 8, size=(7, 1))
        K[rng.random((7, dim)) < 0.2] = -0.0
        K[rng.random((7, dim)) < 0.1] = 0.0
        for row, w in zip(rows, weights):
            ref = sum(a * K[j] for j, a in enumerate(row) if a != 0.0)
            got = integrate_module._combine(K, w)
            assert got.tobytes() == np.asarray(ref, dtype=float).tobytes()


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
