"""Rate fitting, certified envelopes, sandwich inequalities, Lyapunov drift."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import analysis, problems
from fbflows.analysis import (
    RateFitError,
    build_envelope,
    emit_plot_script,
    fit_rate,
    verify_envelope,
    verify_lyapunov,
    verify_value_chain,
    write_envelope_csv,
)
from fbflows.certificates import (
    certify_fb1,
    certify_fb2,
    certify_grad1,
    certify_grad2,
    lyapunov,
)
from fbflows.flows import FlowRHS, Schedule, fb2_rhs, grad1_rhs
from fbflows.integrate import Adaptive, MetricSeries, integrate, record_metrics


# --- rate fitting ------------------------------------------------------------

def test_fit_rate_recovers_pure_exponential():
    t = np.linspace(0.0, 10.0, 400)
    assert_allclose(fit_rate(t, 3.0 * np.exp(-0.5 * t)), 0.5, atol=1e-9)
    assert_allclose(fit_rate(t, np.full_like(t, 2.0)), 0.0, atol=1e-12)


def test_fit_rate_sees_slow_mode_in_tail():
    t = np.linspace(0.0, 30.0, 600)
    y = np.exp(-t) + 5.0 * np.exp(-3.0 * t)
    assert_allclose(fit_rate(t, y), 1.0, atol=1e-3)


def test_fit_rate_scale_invariant():
    t = np.linspace(0.0, 8.0, 300)
    y = np.exp(-1.3 * t)
    assert_allclose(fit_rate(t, y), fit_rate(t, 100.0 * y), atol=1e-12)


def test_fit_rate_underflow_error():
    t = np.linspace(0.0, 2.0, 400)
    with pytest.raises(RateFitError, match="underflowed, shorten t_end"):
        fit_rate(t, np.exp(-800.0 * t))


def test_fit_rate_validation():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        fit_rate(t, t[:-1])


# --- envelopes ---------------------------------------------------------------

FB1_CERT = certify_fb1(1.0, 1.0, 1.0, 1.0, alpha=0.5, eta=1.0)  # C = 0.5
FB2_SCHED = Schedule.constant(40.0, gamma=11.0)
FB2_CERT = certify_fb2(1.0, 1.0, 0.5, 0.5, FB2_SCHED)


def test_build_envelope_closed_forms():
    env = build_envelope(FB1_CERT, 4.0)
    assert env(0.0) == 4.0
    assert_allclose(env(2.0), 4.0 * math.exp(-1.0), rtol=1e-15)
    assert_allclose(env(np.array([0.0, 2.0])), [4.0, 4.0 * math.exp(-1.0)])

    grad1 = certify_grad1(1.0, 1.0, 1.0, alpha=2.0)
    env = build_envelope(grad1, 0.5)
    assert_allclose(env(1.0), 0.5 * math.exp(-2.0), rtol=1e-15)

    gl = FB2_CERT.derived["gamma_lower"]
    env = build_envelope(FB2_CERT, 1.0, m=6.0)
    assert_allclose(env(0.0), 1.0 + 6.0 / (gl - 2.0), rtol=1e-14)
    assert_allclose(env(3.0),
                    math.exp(-(gl - 1.0) * 3.0) + 6.0 / (gl - 2.0) * math.exp(-3.0),
                    rtol=1e-14)


def test_build_envelope_missing_anchors():
    with pytest.raises(TypeError, match="anchor"):
        build_envelope(FB1_CERT)
    with pytest.raises(ValueError, match="fb2 envelope needs m"):
        build_envelope(FB2_CERT, 1.0)
    grad2 = certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=1.5))
    with pytest.raises(ValueError, match="grad2 envelope needs m"):
        build_envelope(grad2, 1.0)
    with pytest.raises(ValueError, match="h0 must be nonnegative"):
        build_envelope(grad2, -1e-16, m=1.0)


def test_build_envelope_needs_transient_margin():
    grad2 = certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=1.5))
    shallow = dataclasses.replace(grad2,
                                  derived={**grad2.derived, "gamma_lower": 1.5})
    with pytest.raises(ValueError, match="gamma_lower > 2"):
        build_envelope(shallow, 1.0, m=1.0)


def _series(t, h, gap=None, gradnorm=None):
    t = np.asarray(t, dtype=float)
    return MetricSeries(t=t, h=np.asarray(h, dtype=float), u=np.zeros_like(t),
                        gap=gap, gradnorm=gradnorm, x_star=np.zeros(1))


def test_verify_envelope_pass_and_ratio():
    t = np.linspace(0.0, 10.0, 400)
    m = _series(t, np.exp(-2.0 * t))
    rep = verify_envelope(m, "h", build_envelope(FB1_CERT, 1.0), rate=0.5)
    assert rep.passed and rep.violating_samples == 0
    assert rep.max_ratio <= 1.0 + 1e-12
    assert_allclose(rep.fitted_exponent, 2.0, atol=1e-6)
    assert rep.theoretical_exponent == 0.5
    assert rep.rate_ok


def test_verify_envelope_at_equilibrium():
    t = np.linspace(0.0, 5.0, 100)
    rep = verify_envelope(_series(t, np.zeros_like(t)),
                          "h", lambda t: np.ones_like(t), rate=1.0)
    assert rep.passed
    assert rep.max_ratio == 0.0
    assert rep.fitted_exponent is None  # underflowed tail skips the fit


def test_verify_envelope_detects_violation():
    t = np.linspace(0.0, 10.0, 400)
    m = _series(t, np.exp(-2.0 * t))
    rep = verify_envelope(m, "h", lambda t: 0.5 * np.exp(-2.0 * t))
    assert not rep.passed
    assert rep.violating_samples > 0
    assert rep.worst_excess > 0.0
    assert_allclose(rep.max_ratio, 2.0, rtol=1e-12)


def test_verify_envelope_rate_gate():
    t = np.linspace(0.0, 10.0, 400)
    m = _series(t, np.exp(-0.2 * t))
    rep = verify_envelope(m, "h", lambda t: 2.0 * np.ones_like(np.asarray(t)),
                          rate=1.0)
    assert rep.violating_samples == 0
    assert not rep.rate_ok
    assert not rep.passed


def test_verify_envelope_metric_selection():
    t = np.linspace(0.0, 1.0, 50)
    m = _series(t, np.exp(-t))
    with pytest.raises(ValueError, match="no value gap"):
        verify_envelope(m, "gap", lambda t: np.ones_like(np.asarray(t)))
    with pytest.raises(ValueError, match="'h' or 'gap'"):
        verify_envelope(m, "u", lambda t: np.ones_like(np.asarray(t)))


# --- value/distance sandwich ---------------------------------------------------

def test_value_chain_equalities_on_identity_quadratic():
    inst = problems.make_quadratic(np.array([[1.0]]), np.array([0.0]))
    flow = grad1_rhs(inst.g, Schedule.constant(1.0))
    traj = integrate(flow, np.array([2.0]), t_end=4.0)
    rep = verify_value_chain(record_metrics(traj, inst), rho=1.0, beta=1.0)
    assert rep.passed
    for name, count, excess in rep.results:
        assert count == 0
        assert excess <= 0.0
    names = [r[0] for r in rep.results]
    assert names == ["(rho/2)*h <= gap", "gap <= h/(2*beta)",
                     "rho*sqrt(h) <= gradnorm"]


def test_value_chain_on_anisotropic_quadratic():
    inst = problems.get_problem("quadratic-2d")
    flow = grad1_rhs(inst.g, Schedule.constant(0.5))
    traj = integrate(flow, np.array([4.0, -2.0]), t_end=6.0)
    rep = verify_value_chain(record_metrics(traj, inst),
                             rho=inst.rho, beta=inst.beta)
    assert rep.passed


def test_value_chain_needs_value_oracles():
    inst = problems.get_problem("skew-rotation")
    traj = integrate(FlowRHS(order=1, rhs=lambda t, x: -x), np.array([1.0, 1.0]),
                     t_end=1.0)
    with pytest.raises(ValueError, match="gap and gradnorm"):
        verify_value_chain(record_metrics(traj, inst), rho=1.0, beta=1.0)


# --- Lyapunov drift ------------------------------------------------------------

SKEW = problems.get_problem("skew-rotation")


def _fb2_run(x0, t_end, gamma=11.0, shift=0.0):
    """A trajectory of fb2 on skew-rotation damped at gamma from rest at x0, and
    its e^-shift L(t) under FB2_CERT: the lemma's h = ||x - x*||^2/2, h' = <x - x*, v>."""
    flow = fb2_rhs(SKEW.a, SKEW.b, eta=0.5, sched=Schedule.constant(40.0, gamma=gamma))
    traj = integrate(flow, np.array(x0), v0=np.zeros(2), t_end=t_end,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    metrics = record_metrics(traj, SKEW)
    err = traj.x - metrics.x_star[None, :]
    lyap = lyapunov(FB2_CERT, FB2_SCHED, traj.t, 0.5 * metrics.h,
                    np.einsum("ij,ij->i", err, traj.v), metrics.u, shift)
    return traj, lyap


def test_lyapunov_holds_along_certified_flow():
    traj, lyap = _fb2_run([2.0, 2.0], 5.0)
    rep = verify_lyapunov(traj.t, lyap)
    assert rep.passed
    assert_allclose(rep.initial, 22.5, rtol=1e-10)
    assert rep.final <= rep.initial + rep.drift_tolerance


def test_lyapunov_flags_uncertified_dynamics():
    # FB2_CERT certifies gamma in [10.84, 11]; the flow is damped at gamma 3 or 40
    # while L takes the certificate's gamma 11, so L grows (gamma 6 and 20, also
    # outside the window, keep L nonincreasing and are not seeded defects)
    for gamma, drift in ((3.0, 6.9e16), (40.0, 2.9e4)):
        traj, lyap = _fb2_run([3.0, -1.0], 23.0, gamma=gamma)
        rep = verify_lyapunov(traj.t, lyap)
        assert not rep.passed
        assert rep.initial == 42.5 and rep.drift_tolerance == pytest.approx(4.35e-5)
        assert rep.max_drift_rate == pytest.approx(drift, rel=0.05)


@pytest.mark.parametrize("gamma", [3.0, 11.0, 40.0])
def test_the_shifted_lyapunov_check_decides_as_the_unshifted_one(gamma):
    # e^-T L against the tolerance scaled by e^-T, T = t_end: where L itself is
    # finite, the same decision, and the same figures up to the factor e^-T
    traj, lyap = _fb2_run([3.0, -1.0], 23.0, gamma=gamma)
    _, shifted = _fb2_run([3.0, -1.0], 23.0, gamma=gamma, shift=23.0)
    rep, rep_t = verify_lyapunov(traj.t, lyap), verify_lyapunov(traj.t, shifted, 23.0, lyap[0])
    assert rep_t.passed == rep.passed and rep_t.shift == 23.0 and rep.shift == 0.0
    assert rep_t.initial == rep.initial
    scale = math.exp(-23.0)
    assert rep_t.drift_tolerance == pytest.approx(rep.drift_tolerance * scale, rel=1e-15)
    assert rep_t.final == pytest.approx(rep.final * scale, rel=1e-12)
    assert rep_t.max_drift_rate == pytest.approx(rep.max_drift_rate * scale, rel=1e-6)


def test_lyapunov_at_equilibrium():
    traj, lyap = _fb2_run(SKEW.x_star, 2.0)
    rep = verify_lyapunov(traj.t, lyap)
    assert rep.passed
    assert abs(rep.initial) <= 1e-12


def test_lyapunov_interface_validation():
    with pytest.raises(ValueError, match="second-order certificate, got fb1"):
        lyapunov(FB1_CERT, Schedule.constant(1.0), np.zeros(1), np.ones(1), np.zeros(1),
                 np.zeros(1))


def test_fixed_verification_constants():
    # the values the README states; report.json carries the envelope pair
    assert (analysis.ENVELOPE_TOL_REL, analysis.ENVELOPE_TOL_ABS) == (1e-6, 1e-8)
    assert (analysis.TAIL_FRACTION, analysis.CHAIN_SLACK, analysis.DRIFT_SCALE) \
        == (0.25, 1e-8, 1e-6)


def test_envelope_tolerance_edge():
    # a sample exactly at envelope*(1 + 1e-6) + 1e-8 passes; any excess fails
    t = np.linspace(0.0, 10.0, 400)
    edge = np.exp(-t) * (1.0 + 1e-6) + 1e-8
    for h, violating in ((edge, 0), (edge * (1.0 + 1e-9) + 1e-12, 400)):
        metrics = MetricSeries(t=t, h=h, u=np.zeros_like(t), gap=None, gradnorm=None,
                               x_star=np.zeros(1))
        rep = verify_envelope(metrics, "h", lambda s: np.exp(-s))
        assert rep.violating_samples == violating
        assert (rep.tol_rel, rep.tol_abs) == (1e-6, 1e-8)


def test_envelope_dominates_initial_condition():
    env = build_envelope(FB2_CERT, 4.5, m=45.0)
    assert env(0.0) >= 4.5


# --- artifacts -------------------------------------------------------------------

def test_write_envelope_csv(tmp_path):
    t = np.linspace(0.0, 2.0, 7)
    env = build_envelope(FB1_CERT, 1.0)
    path = tmp_path / "envelope.csv"
    write_envelope_csv(path, t, env)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,envelope"
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(data["t"], t)
    assert np.array_equal(data["envelope"], env(t))


def test_emit_plot_script_columns(tmp_path):
    path = tmp_path / "plot.gp"
    emit_plot_script(path, "trajectory.csv", dim=2, which="h",
                     envelope_csv="envelope.csv")
    text = path.read_text()
    assert "set logscale y" in text
    assert "using 1:6" in text
    assert "'envelope.csv' skip 1 using 1:2" in text

    emit_plot_script(path, "trajectory.csv", dim=2, which="gap")
    text = path.read_text()
    assert "using 1:8" in text
    assert "envelope.csv" not in text

    with pytest.raises(KeyError):
        emit_plot_script(path, "trajectory.csv", dim=2, which="bogus")
