"""Right-hand sides of the four flows: hand arithmetic, fixed points, schedules."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import problems
from fbflows.flows import (
    GRID_POINTS,
    LAMBDA_SLACK,
    FlowRHS,
    Profile,
    Schedule,
    ScheduleError,
    fb1_rhs,
    fb2_rhs,
    grad1_rhs,
    grad2_rhs,
    residual,
)
from fbflows.operators import (
    FunctionOracle,
    MonotoneMap,
    l1_norm,
    scaled_sqnorm,
    zero_operator,
)

IDENTITY_MAP = MonotoneMap(eval=lambda x: np.asarray(x, dtype=float), beta=1.0)


def test_fb1_rhs_hand_arithmetic():
    # A = 0 so J is the identity: rhs = lam * ((x - eta*x) - x) = -lam*eta*x
    flow = fb1_rhs(zero_operator(), IDENTITY_MAP, eta=0.5, sched=Schedule.constant(1.0))
    assert flow.order == 1
    assert_allclose(flow.rhs(0.0, np.array([2.0])), [-1.0])
    flow3 = fb1_rhs(zero_operator(), IDENTITY_MAP, eta=0.5, sched=Schedule.constant(3.0))
    assert_allclose(flow3.rhs(0.0, np.array([2.0])), [-3.0])


def test_fb1_rhs_linear_in_lambda():
    inst = problems.get_problem("skew-rotation")
    base = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    scaled = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(3.7))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=2)
        assert_allclose(scaled.rhs(0.0, x), 3.7 * base.rhs(0.0, x), rtol=1e-14)


@pytest.mark.parametrize("name", ["quadratic-2d", "sc-lasso-20d", "skew-rotation"])
@pytest.mark.parametrize("eta", [1.0, 0.37])
def test_fb1_vanishes_at_solution(name, eta):
    inst = problems.get_problem(name)
    flow = fb1_rhs(inst.a, inst.b, eta=eta, sched=Schedule.constant(2.0))
    for t in np.linspace(0.0, 10.0, 7):
        assert np.linalg.norm(flow.rhs(t, inst.x_star)) <= 1e-9


def test_fb2_rhs_equilibrium_and_damping():
    inst = problems.get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=2.0)
    flow = fb2_rhs(inst.a, inst.b, eta=0.5, sched=sched)
    assert flow.order == 2
    assert np.linalg.norm(flow.rhs(0.0, inst.x_star, np.zeros(2))) <= 1e-9
    # at x* only the damping term survives
    assert_allclose(flow.rhs(1.0, inst.x_star, np.array([1.0, 0.0])), [-2.0, 0.0],
                    atol=1e-12)


def test_fb2_rhs_hand_arithmetic():
    sched = Schedule.constant(1.0, gamma=3.0)
    flow = fb2_rhs(zero_operator(), IDENTITY_MAP, eta=0.5, sched=sched)
    # -gamma*v - lam*(x - J(x - eta*x)) = -3*0.5 - (2 - 1) = -2.5
    assert_allclose(flow.rhs(0.0, np.array([2.0]), np.array([0.5])), [-2.5])


def test_grad1_rhs_is_negative_scaled_gradient():
    g = scaled_sqnorm(1.0)
    flow = grad1_rhs(g, Schedule.constant(2.0))
    assert_allclose(flow.rhs(0.0, np.array([1.0, 1.0])), [-2.0, -2.0])
    assert_allclose(flow.rhs(0.0, np.zeros(2)), [0.0, 0.0])


def test_grad1_rhs_vanishing_gain():
    # declared bounds are trusted; the rhs only reads the callable
    sched = Schedule(lam=lambda t: 0.0, lambda_lower=1.0, lambda_upper=1.0)
    flow = grad1_rhs(scaled_sqnorm(1.0), sched)
    assert_allclose(flow.rhs(0.0, np.array([5.0, -3.0])), [0.0, 0.0])


def test_grad2_rhs_hand_arithmetic():
    g = scaled_sqnorm(1.0)
    sched = Schedule.constant(1.5, gamma=2.4)
    flow = grad2_rhs(g, sched)
    assert_allclose(flow.rhs(0.0, np.array([1.0]), np.array([0.0])), [-1.5])
    assert_allclose(flow.rhs(0.0, np.array([0.0]), np.array([1.0])), [-2.4])
    assert np.linalg.norm(flow.rhs(0.0, np.zeros(1), np.zeros(1))) == 0.0


def proxgrad1_rhs(f: FunctionOracle, g: FunctionOracle, eta: float,
                  sched: Schedule) -> FlowRHS:
    """The first-order flow specialized to A = subdifferential of f, B = grad g.

    Built directly from the prox of f, bypassing the resolvent wrapper; used
    to cross-check fb1_rhs.
    """
    if f.prox is None or g.gradient is None:
        raise ValueError("need prox of f and gradient of g")
    eta = float(eta)
    if not (eta > 0.0):
        raise ValueError("eta must be positive, got %r" % eta)

    def rhs(t, x):
        x = np.asarray(x, dtype=float)
        step = f.prox(eta, x - eta * np.asarray(g.gradient(x), dtype=float))
        return sched.lam(t) * (step - x)

    return FlowRHS(order=1, rhs=rhs)


def test_proxgrad_agrees_with_fb1():
    inst = problems.get_problem("sc-lasso-20d")
    sched = Schedule.constant(1.3)
    via_resolvent = fb1_rhs(inst.a, inst.b, eta=0.8, sched=sched)
    direct = proxgrad1_rhs(inst.f, inst.g, eta=0.8, sched=sched)
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = rng.uniform(-3, 3, size=20)
        assert np.max(np.abs(via_resolvent.rhs(0.0, x) - direct.rhs(0.0, x))) <= 1e-12


def test_second_order_needs_gamma():
    inst = problems.get_problem("skew-rotation")
    with pytest.raises(ValueError):
        fb2_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    with pytest.raises(ValueError):
        grad2_rhs(scaled_sqnorm(1.0), Schedule.constant(1.0))


def test_gradient_flows_need_a_gradient():
    with pytest.raises(ValueError):
        grad1_rhs(l1_norm(1.0), Schedule.constant(1.0))
    with pytest.raises(ValueError):
        grad2_rhs(l1_norm(1.0), Schedule.constant(1.0, gamma=2.0))


def test_flows_reject_bad_eta():
    # at build time, by the operators' eta rule, before any resolvent is called
    inst = problems.get_problem("skew-rotation")
    for eta in (0.0, -1.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="step scale eta must be positive"):
            fb1_rhs(inst.a, inst.b, eta=eta, sched=Schedule.constant(1.0))
        with pytest.raises(ValueError, match="step scale eta must be positive"):
            fb2_rhs(inst.a, inst.b, eta=eta, sched=Schedule.constant(1.0, gamma=2.0))


def test_schedule_bounds_validation():
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: 1.0, lambda_lower=0.0, lambda_upper=1.0)
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: 1.0, lambda_lower=2.0, lambda_upper=1.0)
    with pytest.raises(ScheduleError):
        Schedule.constant(0.0)


def test_schedule_check_catches_bound_escape():
    sched = Schedule(lam=lambda t: 1.0 + 0.5 * t, lambda_lower=1.0, lambda_upper=2.0)
    sched.check(2.0)
    with pytest.raises(ScheduleError):
        sched.check(10.0)  # lambda(10) = 6 > declared upper


def test_schedule_check_allows_lambda_slack_only():
    # lambda may leave its declared bounds by LAMBDA_SLACK = 1e-9, no further
    assert LAMBDA_SLACK == 1e-9
    Schedule(lam=lambda t: 2.0 + 0.5e-9, lambda_lower=1.0, lambda_upper=2.0).check(1.0)
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: 2.0 + 2e-9, lambda_lower=1.0, lambda_upper=2.0).check(1.0)
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: 1.0 - 2e-9, lambda_lower=1.0, lambda_upper=2.0).check(1.0)


# an exp_ramp from 3.8e7 to 1.3e8: at t = 0, end + (start - end) misses start by
# one ulp of end (1.5e-8), more than LAMBDA_SLACK alone allows
BIG_RAMP = (38036474.43400834, 133040443.7345683)


def test_schedule_check_allows_an_ulp_rounded_ramp_start():
    start, end = BIG_RAMP
    lam = Profile(start, end, 0.5)
    assert lam(0.0) != start and lam(np.zeros(1))[0] < start - LAMBDA_SLACK
    Schedule(lam=lam, lambda_lower=start, lambda_upper=end).check(50.0)
    # the ulps are a few of the larger bound, not a relative slack
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: start - 1e-7, lambda_lower=start,
                 lambda_upper=end).check(1.0)


def test_schedule_check_with_an_infinite_upper_bound_keeps_the_lower_one():
    Schedule(lam=lambda t: 1.0 - 0.5e-9, lambda_lower=1.0, lambda_upper=math.inf).check(1.0)
    with pytest.raises(ScheduleError):
        Schedule(lam=lambda t: 1.0 - 2e-9, lambda_lower=1.0,
                 lambda_upper=math.inf).check(1.0)


def test_schedule_constant_builds_profiles():
    sched = Schedule.constant(2.0, gamma=3.0, alpha=1.5)
    assert sched.lam(7.0) == 2.0 and sched.gamma(7.0) == 3.0 and sched.alpha(7.0) == 1.5
    sched.check(50.0)
    assert Schedule.constant(2.0).gamma is None


def test_schedule_check_samples_each_coefficient_once():
    calls = {"lam": [], "gamma": []}

    def counted(name, fn):
        def call(t):
            calls[name].append(t)
            return fn(t)
        return call

    ramp = Profile(3.0, 2.0, 0.5)
    sched = Schedule(lam=counted("lam", lambda t: 1.0), lambda_lower=1.0,
                     lambda_upper=1.0, gamma=counted("gamma", ramp))
    ts, lam_t, gam_t, alpha_t = sched.check(4.0)
    assert GRID_POINTS == 2000
    # one call per coefficient, with the whole grid
    assert len(calls["lam"]) == len(calls["gamma"]) == 1 and alpha_t is None
    assert calls["lam"][0] is ts and calls["gamma"][0] is ts
    assert np.array_equal(ts, np.linspace(0.0, 4.0, 2000))
    assert lam_t == 1.0 and np.array_equal(gam_t, ramp(ts))


def test_schedule_check_constant_is_a_float():
    sched = Schedule(lam=Profile(2.0, 2.0), lambda_lower=2.0, lambda_upper=2.0,
                     gamma=Profile(3.0, 2.0, 0.5))
    ts, lam_t, gam_t, _ = sched.check(4.0)
    assert ts.shape == (2000,)
    assert isinstance(lam_t, float) and lam_t == 2.0
    assert isinstance(gam_t, np.ndarray) and np.array_equal(gam_t, sched.gamma(ts))


def test_sample_profiles():
    ts = np.linspace(0.0, 50.0, 2000)
    # constants: an array of times gets one np.float64, bitwise every point's value
    for v in (40.0, 11.0, 1.6875, 2.4519716382329886, 0.1):
        p = Profile(v, v)
        per_point = np.array([p(t) for t in ts])
        for times in (ts, ts[:, None]):
            got = p(times)
            assert type(got) is np.float64
            assert got.tobytes() == np.float64(v).tobytes()
        assert np.all(per_point == v)
    # ramps: a float t goes through math.exp, an array (of any shape) is
    # evaluated in one call, within 1 ulp of it
    for a, b, r in [(15.0, 14.0, 0.5), (11.0, 10.9, 0.2), (1.0, 3.0, 0.07)]:
        p = Profile(a, b, r)
        exact = np.array([b + (a - b) * math.exp(-r * t) for t in ts])
        assert np.array_equal(np.array([p(t) for t in ts]), exact)
        assert np.all(np.abs(p(ts) - exact) <= np.spacing(exact))
        assert np.array_equal(p(ts[:, None]), p(ts)[:, None])


def test_constant_profile_at_a_float_is_the_formula_bitwise():
    # start == end skips math.exp; the value keeps the formula's bits, -0.0 -> +0.0
    for v in (1.0, 11.0, 0.0, -0.0, 1e-300):
        for rate in (0.0, 0.5):
            p = Profile(v, v, rate)
            for t in (0.0, 0.3, 7.25, 1e3, np.float64(2.5)):
                formula = v + (v - v) * math.exp(-rate * t)
                got = p(t)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(formula).tobytes()


def test_first_order_fields_take_a_column_of_times():
    # a block call is bitwise the per-row calls: the field calls lam once on the
    # column of times, and this ramp is the same arithmetic on a float and an array
    inst = problems.get_problem("skew-rotation")
    ramp = Schedule(lam=lambda t: 1.0 + 0.5 * t, lambda_lower=1.0, lambda_upper=2.5)
    for flow in (fb1_rhs(inst.a, inst.b, eta=0.5, sched=ramp),
                 grad1_rhs(scaled_sqnorm(1.5), ramp),
                 proxgrad1_rhs(l1_norm(0.3), scaled_sqnorm(1.5), eta=0.5, sched=ramp)):
        ts = np.linspace(0.0, 3.0, 9)
        xs = np.random.default_rng(4).uniform(-3.0, 3.0, size=(9, 2))
        rows = np.array([flow.rhs(t, x) for t, x in zip(ts, xs)])
        assert flow.rhs(ts[:, None], xs).tobytes() == rows.tobytes()


def test_residual_vanishes_only_at_solution():
    inst = problems.get_problem("skew-rotation")
    assert residual(inst.a, inst.b, 1.0, inst.x_star) <= 1e-9
    assert residual(inst.a, inst.b, 1.0, inst.x_star + np.array([0.1, 0.0])) > 1e-3


def test_schedule_constant_applies_the_positive_rule_to_every_coefficient():
    with pytest.raises(ScheduleError, match="constant damping must be positive"):
        Schedule.constant(40.0, gamma=math.inf)
    with pytest.raises(ScheduleError, match="constant relaxation floor must be positive"):
        Schedule.constant(1.5, gamma=2.4, alpha=math.nan)
    for v in (0.0, -1.0):
        with pytest.raises(ScheduleError):
            Schedule.constant(1.5, gamma=v)
    sched = Schedule.constant(1.5, gamma=2, alpha=1.5)
    assert sched.gamma == Profile(2.0, 2.0) and type(sched.gamma.start) is float
