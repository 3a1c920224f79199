"""Hypothesis certificates: frozen arithmetic, named rejections, lemma machinery."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows.certificates import (
    GRID_SLACK,
    CertificateError,
    LemmaCoefficients,
    _grid_slack,
    certify_fb1,
    certify_fb2,
    certify_grad1,
    certify_grad2,
    fb2_initial_M,
    fb2_lemma_coefficients,
    grad2_initial_M,
    grad2_lemma_coefficients,
    lemma_M,
    lemma_bound,
    suggest_constants_fb2,
    suggest_constants_grad2,
)
from fbflows.flows import Profile, Schedule, ScheduleError
from fbflows.integrate import write_json
from fbflows.operators import scaled_sqnorm


# --- first-order forward-backward -----------------------------------------

def test_fb1_certificate_arithmetic():
    cert = certify_fb1(rho=1.0, beta=1.0, lambda_lower=1.0, lambda_upper=1.0,
                       alpha=0.5, eta=1.0)
    assert cert.system == "fb1"
    assert cert.derived["C"] == 0.5
    assert cert.decay_exponent == 0.5
    assert cert.transient_exponent is None
    assert cert.recheck()


def test_fb1_near_boundary_rate():
    # C = (2 - 1.9)/(2 + 1/3.8) = 1.9/43
    cert = certify_fb1(1.0, 1.0, 1.0, 1.0, alpha=1.9, eta=3.8)
    assert_allclose(cert.derived["C"], 1.9 / 43.0, rtol=1e-13)
    assert cert.derived["C"] > 0.0


def test_fb1_alpha_bound_is_strict():
    with pytest.raises(CertificateError) as exc:
        certify_fb1(1.0, 1.0, 1.0, 1.0, alpha=2.0, eta=1.0)
    assert exc.value.failures == ["alpha < 2*rho*beta^2*lambda_lower violated"]


def test_fb1_step_inequality_named():
    with pytest.raises(CertificateError) as exc:
        certify_fb1(1.0, 1.0, 1.0, 1.0, alpha=0.5, eta=10.0)
    assert "1/beta + lambda_upper/(2*alpha) <= rho + 1/eta violated" in exc.value.failures


def test_fb1_input_validation():
    with pytest.raises(ValueError):
        certify_fb1(0.0, 1.0, 1.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        certify_fb1(1.0, 1.0, 2.0, 1.0, 0.5, 1.0)  # lower > upper


def test_fb1_rate_degrades_monotonically():
    # C nonincreasing in alpha, nondecreasing in eta over the feasible region
    rates = [certify_fb1(1.0, 1.0, 1.0, 1.0, a, 0.5).derived["C"]
             for a in np.linspace(0.3, 1.2, 12)]
    assert all(r1 >= r2 - 1e-15 for r1, r2 in zip(rates, rates[1:]))
    rates = [certify_fb1(1.0, 1.0, 1.0, 1.0, 0.75, e).derived["C"]
             for e in np.linspace(0.4, 1.4, 12)]
    assert all(r2 >= r1 - 1e-15 for r1, r2 in zip(rates, rates[1:]))


# --- first-order gradient flow ---------------------------------------------

def test_grad1_certificate():
    cert = certify_grad1(rho=1.0, beta=1.0, lambda_lower=1.0, alpha=2.0)
    assert cert.decay_exponent == 2.0
    assert cert.recheck()
    # equality case 2*2*1*0.25 = 1
    cert = certify_grad1(rho=0.5, beta=1.0, lambda_lower=2.0, alpha=1.0)
    assert cert.decay_exponent == 1.0


def test_grad1_rejects_fast_alpha():
    with pytest.raises(CertificateError) as exc:
        certify_grad1(1.0, 1.0, 1.0, alpha=2.1)
    assert exc.value.failures == ["alpha <= 2*lambda_lower*beta*rho^2 violated"]


# --- second-order forward-backward ----------------------------------------

FB2_SCHED = Schedule.constant(40.0, gamma=11.0)


def test_fb2_certificate_derived_constants():
    cert = certify_fb2(rho=1.0, beta=1.0, alpha=0.5, delta=0.5, sched=FB2_SCHED)
    d = cert.derived
    assert_allclose(d["eta"], 0.5, rtol=1e-14)
    assert_allclose(d["S"], 1.5, rtol=1e-14)
    assert_allclose(d["K"], 0.25, rtol=1e-14)
    assert_allclose(d["theta_coefficient"], 8.0 / 3.0, rtol=1e-14)
    assert_allclose(d["theta"], 320.0 / 3.0, rtol=1e-14)
    assert_allclose(d["gamma_lower"], (1.0 + math.sqrt(1.0 + 1280.0 / 3.0)) / 2.0,
                    rtol=1e-14)
    assert_allclose(d["gamma_lower"], 10.840051579497398, rtol=1e-12)
    assert cert.decay_exponent == 1.0
    assert_allclose(cert.transient_exponent, d["gamma_lower"] - 1.0, rtol=1e-14)
    assert cert.recheck()


def test_fb2_small_lambda_fails_quadratic_bound():
    with pytest.raises(CertificateError) as exc:
        certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(1.0, gamma=11.0))
    assert "theta(t) <= K*lambda(t) + K^2*lambda(t)^2 violated" in exc.value.failures


def test_fb2_rejects_large_delta_beta_rho():
    with pytest.raises(CertificateError) as exc:
        certify_fb2(2.0, 1.0, 0.5, 0.6, FB2_SCHED)
    assert "delta*beta*rho < 1 violated" in exc.value.failures


def test_fb2_gamma_window_violations_named():
    with pytest.raises(CertificateError) as exc:
        certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(40.0, gamma=11.5))
    assert "gamma(t) <= 1 + K*lambda(t) violated" in exc.value.failures
    with pytest.raises(CertificateError) as exc:
        certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(40.0, gamma=10.5))
    assert ("(1 + sqrt(1 + 4*theta(t)))/2 <= gamma(t) violated"
            in exc.value.failures)


def test_fb2_needs_gamma():
    with pytest.raises(CertificateError) as exc:
        certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(40.0))
    assert "gamma(t) missing from schedule" in exc.value.failures


@pytest.mark.parametrize("system", ["fb2", "grad2"])
def test_increasing_gamma_rejected(system):
    # gamma stays inside its window on [0, 50]; only the monotonicity checks fail
    if system == "fb2":
        sched = Schedule(lam=lambda t: 40.0, lambda_lower=40.0, lambda_upper=40.0,
                         gamma=lambda t: 10.87 + 0.001 * t)
        certify = lambda: certify_fb2(1.0, 1.0, 0.5, 0.5, sched)
    else:
        sched = Schedule(lam=lambda t: 1.5, lambda_lower=1.5, lambda_upper=1.5,
                         gamma=lambda t: 2.4 + 0.001 * t, alpha=Profile(1.5, 1.5))
        certify = lambda: certify_grad2(1.0, 1.0, sched)
    with pytest.raises(CertificateError) as exc:
        certify()
    assert exc.value.failures == ["gamma(t) nonincreasing violated",
                                  "gamma(t)/lambda(t) nonincreasing violated"]


def test_fb2_unit_interval_validation():
    for bad in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            certify_fb2(1.0, 1.0, bad, 0.5, FB2_SCHED)
        with pytest.raises(ValueError):
            certify_fb2(1.0, 1.0, 0.5, bad, FB2_SCHED)


def test_fb2_schedule_violations_surface():
    sched = Schedule(lam=lambda t: 40.0 + t, lambda_lower=40.0, lambda_upper=40.0,
                     gamma=lambda t: 11.0)
    with pytest.raises(ScheduleError):
        certify_fb2(1.0, 1.0, 0.5, 0.5, sched)


def test_suggest_fb2_closed_form_and_round_trip():
    s = suggest_constants_fb2(1.0, 1.0, 0.5, 0.5)
    assert_allclose(s.lam, 1.01 * 116.0 / 3.0, rtol=1e-13)
    assert_allclose(s.eta, 0.5, rtol=1e-14)
    lo = (1.0 + math.sqrt(1.0 + 4.0 * (8.0 / 3.0) * s.lam)) / 2.0
    hi = 1.0 + 0.25 * s.lam
    assert_allclose(s.gamma, 0.5 * (lo + hi), rtol=1e-14)
    cert = certify_fb2(1.0, 1.0, 0.5, 0.5, s.schedule())
    assert cert.recheck()


def test_suggest_fb2_rejects_infeasible():
    with pytest.raises(CertificateError) as exc:
        suggest_constants_fb2(2.0, 1.0, 0.5, 0.6)
    assert "delta*beta*rho < 1 violated" in exc.value.failures


def test_suggest_fb2_random_round_trips():
    rng = np.random.default_rng(2024)
    done = 0
    while done < 10:
        rho = float(np.exp(rng.uniform(-1.0, 1.0)))
        beta = float(np.exp(rng.uniform(-1.0, 1.0)))
        alpha = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.05, 0.95))
        if delta * beta * rho >= 1.0:
            continue
        s = suggest_constants_fb2(rho, beta, alpha, delta)
        cert = certify_fb2(rho, beta, alpha, delta, s.schedule())
        assert cert.recheck()
        done += 1


# --- second-order gradient flow --------------------------------------------

GRAD2_SCHED = Schedule.constant(1.5, gamma=2.4, alpha=1.5)


def test_grad2_certificate_windows():
    cert = certify_grad2(1.0, 1.0, GRAD2_SCHED)
    assert_allclose(cert.derived["gamma_lower"], (1.0 + math.sqrt(13.0)) / 2.0,
                    rtol=1e-14)
    assert cert.inputs["alpha_bar"] == 1.5
    assert cert.decay_exponent == 1.0
    assert cert.recheck()


def test_grad2_lambda_window_violations_named():
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, Schedule.constant(2.0, gamma=2.4, alpha=1.5))
    assert ("lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2) violated"
            in exc.value.failures)
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, Schedule.constant(1.4, gamma=2.4, alpha=1.5))
    assert "alpha(t)/(beta*rho^2) <= lambda(t) violated" in exc.value.failures


def test_grad2_gamma_window_violations_named():
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.2, alpha=1.5))
    assert ("(1 + sqrt(1 + 8*lambda(t)/beta))/2 <= gamma(t) violated"
            in exc.value.failures)
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.6, alpha=1.5))
    assert "gamma(t) <= 1 + alpha(t) violated" in exc.value.failures


def test_grad2_rejects_rho_beta_above_one():
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 2.0, GRAD2_SCHED)
    assert "rho*beta <= 1 violated" in exc.value.failures


def test_grad2_rejects_alpha_bar_at_one():
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, Schedule.constant(1.0, gamma=2.0, alpha=1.0))
    assert "alpha_bar > 1 violated" in exc.value.failures


def test_grad2_alpha_sources():
    # alpha(t) comes from the schedule; an explicit floor is used as given
    cert = certify_grad2(1.0, 1.0, GRAD2_SCHED, alpha_bar=1.5)
    assert cert.inputs["alpha_bar"] == 1.5
    # no floor: a constant alpha(t) is its own floor, as a Profile or a callable
    def with_alpha(alpha):
        return Schedule(lam=lambda t: 1.7, lambda_lower=1.7, lambda_upper=1.7,
                        gamma=lambda t: 2.45, alpha=alpha)

    for s in [GRAD2_SCHED, with_alpha(Profile(1.5, 1.5)), with_alpha(lambda t: 1.5)]:
        cert = certify_grad2(1.0, 1.0, s)
        assert cert.inputs["alpha_bar"] == 1.5 and cert.derived["alpha_inf"] == 1.5
    # time-varying alpha(t): the floor is required, and used when given
    def varying(t):
        return 1.5 + 0.1 * np.exp(-t)

    cert = certify_grad2(1.0, 1.0, with_alpha(varying), alpha_bar=1.5)
    assert_allclose(cert.derived["alpha_inf"], 1.5, atol=1e-3)
    for alpha in [varying, Profile(1.6, 1.5, 0.5)]:
        with pytest.raises(ValueError, match="alpha_bar required"):
            certify_grad2(1.0, 1.0, with_alpha(alpha))
    with pytest.raises(ValueError, match="no alpha"):
        certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4))


# --- constant coefficients: checked once at their value, as on the full grid

def _plain(sched):
    """The schedule with each constant Profile as a callable that answers an array
    of times with the full array of its value."""
    def plain(fn):
        if isinstance(fn, Profile) and fn.start == fn.end:
            return lambda t, v=fn.start: v + 0.0 * t
        return fn
    return dataclasses.replace(sched, lam=plain(sched.lam), gamma=plain(sched.gamma),
                               alpha=plain(sched.alpha))


def _fb2(sched):
    return certify_fb2(1.0, 1.0, 0.5, 0.5, sched, t_grid_end=23.0)


def _grad2(sched):
    return certify_grad2(1.0, 1.0, sched, alpha_bar=1.5, t_grid_end=22.0)


def _bits(cert):
    return [(c.name, c.lhs.hex(), c.rhs.hex(), c.strict, c.slack.hex())
            for c in cert.checks]


@pytest.mark.parametrize("certify, sched", [
    (_fb2, Schedule.constant(40.0, gamma=11.0)),
    (_fb2, Schedule(lam=Profile(60.0, 60.0), lambda_lower=60.0, lambda_upper=60.0,
                    gamma=Profile(15.0, 14.0, 0.5))),
    (_grad2, Schedule.constant(1.6875, gamma=2.4519716382329886, alpha=1.5)),
], ids=["fb2-constant", "fb2-ramp-gamma", "grad2-constant"])
def test_constant_coefficients_match_full_grid(certify, sched):
    cert, grid = certify(sched), certify(_plain(sched))
    assert cert.inputs == grid.inputs and cert.derived == grid.derived
    assert _bits(cert) == _bits(grid)


@pytest.mark.parametrize("certify, sched", [
    (_fb2, Schedule.constant(1.0, gamma=11.0)),
    (_grad2, Schedule.constant(2.0, gamma=2.7, alpha=1.5)),
], ids=["fb2", "grad2"])
def test_constant_failures_match_full_grid(certify, sched):
    failures = []
    for s in (sched, _plain(sched)):
        with pytest.raises(CertificateError) as exc:
            certify(s)
        failures.append(exc.value.failures)
    assert len(failures[0]) >= 2 and failures[0] == failures[1]


def test_suggest_grad2_midpoints_and_round_trip():
    s = suggest_constants_grad2(1.0, 1.0)
    assert s.alpha == 1.5
    assert_allclose(s.lam, 1.6875, rtol=1e-14)
    lo = (1.0 + math.sqrt(1.0 + 8.0 * 1.6875)) / 2.0
    assert_allclose(s.gamma, 0.5 * (lo + 2.5), rtol=1e-14)
    cert = certify_grad2(1.0, 1.0, s.schedule())
    assert cert.recheck()


def test_suggest_grad2_degenerate_window():
    # alpha = 2/(beta^2*rho^2) - 1 collapses both windows to single points
    s = suggest_constants_grad2(1.0, 0.25)
    assert_allclose(s.alpha, 31.0, rtol=1e-13)
    assert_allclose(s.lam, 124.0, rtol=1e-13)
    assert_allclose(s.gamma, 32.0, rtol=1e-13)
    cert = certify_grad2(1.0, 0.25, s.schedule())
    assert cert.recheck()


def test_suggest_grad2_rejections():
    with pytest.raises(CertificateError) as exc:
        suggest_constants_grad2(1.0, 2.0)
    assert "rho*beta <= 1 violated" in exc.value.failures
    with pytest.raises(CertificateError) as exc:
        suggest_constants_grad2(1.0, 1.0, alpha=1.0)
    assert "alpha_bar > 1 violated" in exc.value.failures


# --- decay lemma -----------------------------------------------------------

def test_lemma_m_arithmetic():
    assert lemma_M(1.0, 0.0, 3.0, 0.5, 2.0) == 3.0
    assert lemma_M(0.0, 0.0, 3.0, 0.0, 0.0) == 0.0
    assert lemma_M(0.0, -1.0, 2.0, 0.0, 0.0) == -1.0


def test_lemma_m_validation():
    with pytest.raises(ValueError):
        lemma_M(-1.0, 0.0, 3.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        lemma_M(1.0, 0.0, 3.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        lemma_M(1.0, 0.0, 1.0, 0.0, 0.0)  # gamma0 must exceed 1


def test_lemma_bound_values_at_zero():
    assert lemma_bound(3.0, h0=1.0, m=3.0, t=0.0) == 4.0
    assert lemma_bound(3.0, h0=1.0, m=0.0, t=0.0) == 1.0  # at rest at x*: M = 0


def test_lemma_bound_formulas():
    t = 1.7
    assert_allclose(lemma_bound(3.0, 1.0, 3.0, t),
                    math.exp(-2.0 * t) + 3.0 * math.exp(-t), rtol=1e-15)


def test_lemma_bound_array_matches_points():
    ts = np.linspace(0.0, 25.0, 301)
    bound = lemma_bound(10.84, 4.5, 45.0, ts)
    assert bound.shape == ts.shape
    assert np.array_equal(bound, [lemma_bound(10.84, 4.5, 45.0, float(t)) for t in ts])


def test_lemma_bound_validation():
    for gamma_lower in (1.5, 2.0):  # outside the certified case gamma_lower > 2
        with pytest.raises(ValueError, match="gamma_lower > 2"):
            lemma_bound(gamma_lower, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="h0"):
        lemma_bound(3.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="M"):
        lemma_bound(3.0, 1.0, -1e-12, 0.0)
    with pytest.raises(ValueError, match="t must"):
        lemma_bound(3.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError, match="t must"):
        lemma_bound(3.0, 1.0, 1.0, np.array([0.0, -1.0]))


def test_lemma_bound_ii_dominates_transient_term():
    for t in np.linspace(0.0, 20.0, 50):
        assert (lemma_bound(2.7, 1.3, 0.4, float(t))
                >= 1.3 * math.exp(-1.7 * t))


def check_lemma_hypotheses(coeffs: LemmaCoefficients, t_end: float, n: int = 2000,
                           slack: float = GRID_SLACK, h_diff: float = 1e-5) -> None:
    """Verify the lemma's hypotheses on a grid (derivatives by central differences)."""
    ts = np.linspace(0.0, float(t_end), n)

    def dot(f, t):
        if t < h_diff:
            return (f(t + h_diff) - f(t)) / h_diff
        return (f(t + h_diff) - f(t - h_diff)) / (2.0 * h_diff)

    for t in ts:
        b1t, b2t, b3t = coeffs.b1(t), coeffs.b2(t), coeffs.b3(t)
        gt = coeffs.gamma(t)
        if b2t < -slack:
            raise ValueError("b2(%g) = %g negative" % (t, b2t))
        lhs = gt + dot(coeffs.gamma, t)
        if lhs > b1t + 1.0 + _grid_slack(lhs, b1t + 1.0):
            raise ValueError(
                "gamma(t) + gamma'(t) <= b1(t) + 1 fails at t=%g (%g > %g)"
                % (t, lhs, b1t + 1.0))
        lhs = b2t + dot(coeffs.b2, t)
        if lhs > b3t + _grid_slack(lhs, b3t):
            raise ValueError(
                "b2(t) + b2'(t) <= b3(t) fails at t=%g (%g > %g)" % (t, lhs, b3t))


def test_fb2_lemma_coefficients_frozen():
    coeffs = fb2_lemma_coefficients(1.0, 1.0, 0.5, 0.5, FB2_SCHED)
    assert_allclose(coeffs.b1(0.0), 10.0, rtol=1e-14)
    assert_allclose(coeffs.b2(0.0), 0.103125, rtol=1e-14)
    assert_allclose(coeffs.b3(0.0), 0.134375, rtol=1e-14)
    check_lemma_hypotheses(coeffs, 30.0)


def test_grad2_lemma_coefficients_frozen():
    coeffs = grad2_lemma_coefficients(1.0, GRAD2_SCHED)
    assert_allclose(coeffs.b1(0.0), 1.5, rtol=1e-14)
    assert_allclose(coeffs.b2(0.0), 0.8, rtol=1e-14)
    assert_allclose(coeffs.b3(0.0), 0.92, rtol=1e-14)
    check_lemma_hypotheses(coeffs, 30.0)


def test_lemma_coefficients_check_rejects_bad_hypotheses():
    bad = LemmaCoefficients(b1=lambda t: 0.0, b2=lambda t: 0.0,
                            b3=lambda t: 0.0, gamma=lambda t: 3.0)
    with pytest.raises(ValueError, match="b1"):
        check_lemma_hypotheses(bad, 5.0)
    growing_b2 = LemmaCoefficients(b1=lambda t: 5.0, b2=lambda t: t,
                                   b3=lambda t: 0.0, gamma=lambda t: 3.0)
    with pytest.raises(ValueError, match="b2"):
        check_lemma_hypotheses(growing_b2, 5.0)
    negative_b2 = LemmaCoefficients(b1=lambda t: 5.0, b2=lambda t: -1.0,
                                    b3=lambda t: 0.0, gamma=lambda t: 3.0)
    with pytest.raises(ValueError, match="negative"):
        check_lemma_hypotheses(negative_b2, 5.0)


def test_fb2_initial_m():
    coeffs = fb2_lemma_coefficients(1.0, 1.0, 0.5, 0.5, FB2_SCHED)
    x_star = np.array([0.5, 0.5])
    m_raw = fb2_initial_M(coeffs, np.array([2.0, 2.0]), np.zeros(2), x_star)
    # h0 = 0.5*||(1.5,1.5)||^2 = 2.25, hdot0 = 0, u0 = 0 -> (11-1)*2.25
    assert_allclose(m_raw, 22.5, rtol=1e-14)
    m_raw = fb2_initial_M(coeffs, np.array([2.0, 2.0]), np.array([1.0, 0.0]), x_star)
    assert_allclose(m_raw, 1.5 + 22.5 + 0.103125, rtol=1e-14)


def test_grad2_initial_m():
    coeffs = grad2_lemma_coefficients(1.0, GRAD2_SCHED)
    g = scaled_sqnorm(1.0)
    m_raw = grad2_initial_M(coeffs, g, np.array([3.0]), np.zeros(1), np.zeros(1))
    # gap0 = 4.5, hdot0 = 0, u0 = 0 -> (2.4-1)*4.5
    assert_allclose(m_raw, 6.3, rtol=1e-14)


def test_certificate_json_round_trip(tmp_path):
    cert = certify_fb2(1.0, 1.0, 0.5, 0.5, FB2_SCHED)
    path = tmp_path / "certificate.json"
    write_json(path, cert)
    doc = json.loads(path.read_text())
    assert doc["system"] == "fb2"
    assert_allclose(doc["derived"]["gamma_lower"], cert.derived["gamma_lower"])
    assert {"name", "lhs", "rhs", "strict", "slack"} <= set(doc["checks"][0])
    assert all(name in [c["name"] for c in doc["checks"]]
               for name in ("delta*beta*rho < 1", "theta > 2"))


def test_certificates_recheck_from_stored_numbers():
    certs = [
        certify_fb1(1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
        certify_grad1(1.0, 1.0, 1.0, 2.0),
        certify_fb2(1.0, 1.0, 0.5, 0.5, FB2_SCHED),
        certify_grad2(1.0, 1.0, GRAD2_SCHED),
    ]
    for cert in certs:
        assert cert.recheck()
        assert cert.decay_exponent > 0.0
        assert all(isinstance(c.name, str) for c in cert.checks)
