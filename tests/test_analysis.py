"""Rate fitting, certified envelopes, sandwich inequalities, Lyapunov drift."""

import dataclasses
import math
from types import SimpleNamespace

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
    LemmaCoefficients,
    certify_fb1,
    certify_fb2,
    certify_grad1,
    certify_grad2,
    fb2_lemma_coefficients,
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
FB2_CERT = certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(40.0, gamma=11.0))


def test_build_envelope_closed_forms():
    env = build_envelope(FB1_CERT, h0=4.0)
    assert env(0.0) == 4.0
    assert_allclose(env(2.0), 4.0 * math.exp(-1.0), rtol=1e-15)
    assert_allclose(env(np.array([0.0, 2.0])), [4.0, 4.0 * math.exp(-1.0)])

    grad1 = certify_grad1(1.0, 1.0, 1.0, alpha=2.0)
    env = build_envelope(grad1, gap0=0.5)
    assert_allclose(env(1.0), 0.5 * math.exp(-2.0), rtol=1e-15)

    gl = FB2_CERT.derived["gamma_lower"]
    env = build_envelope(FB2_CERT, h0=1.0, m=6.0)
    assert_allclose(env(0.0), 1.0 + 6.0 / (gl - 2.0), rtol=1e-14)
    assert_allclose(env(3.0),
                    math.exp(-(gl - 1.0) * 3.0) + 6.0 / (gl - 2.0) * math.exp(-3.0),
                    rtol=1e-14)


def test_build_envelope_missing_anchors():
    with pytest.raises(ValueError, match="h0"):
        build_envelope(FB1_CERT)
    with pytest.raises(ValueError, match="gap0"):
        build_envelope(certify_grad1(1.0, 1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="m"):
        build_envelope(FB2_CERT, h0=1.0)
    grad2 = certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=1.5))
    with pytest.raises(ValueError, match="gap0"):
        build_envelope(grad2, m=1.0)


def test_build_envelope_needs_transient_margin():
    grad2 = certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=1.5))
    shallow = dataclasses.replace(grad2,
                                  derived={**grad2.derived, "gamma_lower": 1.5})
    with pytest.raises(ValueError, match="gamma_lower > 2"):
        build_envelope(shallow, gap0=1.0, m=1.0)


def _series(t, h, gap=None, gradnorm=None):
    t = np.asarray(t, dtype=float)
    return MetricSeries(t=t, h=np.asarray(h, dtype=float), u=np.zeros_like(t),
                        gap=gap, gradnorm=gradnorm, x_star=np.zeros(1))


def test_verify_envelope_pass_and_ratio():
    t = np.linspace(0.0, 10.0, 400)
    m = _series(t, np.exp(-2.0 * t))
    rep = verify_envelope(m, "h", build_envelope(FB1_CERT, h0=1.0), rate=0.5)
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

def test_lyapunov_holds_along_certified_flow():
    inst = problems.get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=11.0)
    coeffs = fb2_lemma_coefficients(1.0, 1.0, 0.5, 0.5, sched)
    flow = fb2_rhs(inst.a, inst.b, eta=0.5, sched=sched)
    traj = integrate(flow, np.array([2.0, 2.0]), v0=np.zeros(2), t_end=5.0,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    metrics = record_metrics(traj, inst)
    rep = verify_lyapunov(traj, coeffs, metrics)
    assert rep.passed
    assert_allclose(rep.initial, 22.5, rtol=1e-10)
    assert rep.final <= rep.initial + rep.drift_tolerance


def test_lyapunov_flags_uncertified_dynamics():
    # undamped oscillator: energy never decays, L grows like e^t
    osc = FlowRHS(order=2, rhs=lambda t, x, v: -x)
    traj = integrate(osc, np.array([1.0]), v0=np.zeros(1), t_end=10.0)
    metrics = record_metrics(traj, SimpleNamespace(x_star=np.zeros(1), f=None, g=None))
    coeffs = LemmaCoefficients(b2=lambda t: 0.0, gamma=lambda t: 3.0)
    rep = verify_lyapunov(traj, coeffs, metrics)
    assert not rep.passed
    assert rep.max_drift_rate > rep.drift_tolerance


def test_lyapunov_at_equilibrium():
    inst = problems.get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=11.0)
    coeffs = fb2_lemma_coefficients(1.0, 1.0, 0.5, 0.5, sched)
    flow = fb2_rhs(inst.a, inst.b, eta=0.5, sched=sched)
    traj = integrate(flow, inst.x_star, v0=np.zeros(2), t_end=2.0)
    metrics = record_metrics(traj, inst)
    rep = verify_lyapunov(traj, coeffs, metrics)
    assert rep.passed
    assert abs(rep.initial) <= 1e-12


def test_lyapunov_interface_validation():
    inst = problems.get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=11.0)
    coeffs = fb2_lemma_coefficients(1.0, 1.0, 0.5, 0.5, sched)
    traj1 = integrate(FlowRHS(order=1, rhs=lambda t, x: -x), np.ones(2), t_end=1.0)
    metrics = record_metrics(traj1, inst)
    with pytest.raises(ValueError, match="second-order"):
        verify_lyapunov(traj1, coeffs, metrics)


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
    env = build_envelope(FB2_CERT, h0=4.5, m=45.0)
    assert env(0.0) >= 4.5


# --- artifacts -------------------------------------------------------------------

def test_write_envelope_csv(tmp_path):
    t = np.linspace(0.0, 2.0, 7)
    env = build_envelope(FB1_CERT, h0=1.0)
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
