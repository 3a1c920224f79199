"""Hypothesis certificates: frozen arithmetic, named rejections, lemma machinery."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fbflows import certificates
from fbflows.certificates import (
    GRID_SLACK,
    CertificateError,
    certify_fb1,
    certify_fb2,
    certify_grad1,
    certify_grad2,
    lemma_bound,
    lyapunov,
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


def _linear_pair(rng):
    """A random linear pair (A, B) of dim 1-4 in the paper's class, with its rho and
    beta: A = S + w K and B = P + w' L, S and P PSD, K and L skew,
    rho = lambda_min(sym(A + B)) and 1/beta = ||B||_2."""
    n = int(rng.integers(1, 5))
    x, y, u, v = rng.standard_normal((4, n, n))
    a = x @ x.T + rng.uniform(0.0, 2.0) * (y - y.T)
    b = u @ u.T + rng.uniform(0.0, 2.0) * (v - v.T)
    return a, b, np.linalg.eigvalsh((a + a.T + b + b.T) / 2.0)[0], 1.0 / np.linalg.norm(b, 2)


def _resolvent_step(a, b, eta):
    """The matrix (I + eta A)^-1 (I - eta B) of x -> J_{eta A}(x - eta B x)."""
    eye = np.eye(len(a))
    return np.linalg.solve(eye + eta * a, eye - eta * b)


def _fb1_linear_instances(rng, count):
    """``count`` random linear fb1 instances (``_linear_pair``), each certified by
    ``certify_fb1``: (M, C) with M = lambda((I + eta A)^-1 (I - eta B) - I) the
    flow's matrix and C the certified rate.

    rho above 1e-3, a constant lambda in [0.5, 2], alpha a random fraction of
    2 rho beta^2 lambda and 1/eta at the bound of the second fb1 inequality (a
    draw where that bound is not positive is skipped)."""
    out = []
    while len(out) < count:
        a, b, rho, beta = _linear_pair(rng)
        lam = rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.01, 0.99) * 2.0 * rho * beta * beta * lam
        inv_eta = 1.0 / beta + lam / (2.0 * alpha) - rho
        if rho <= 1e-3 or inv_eta <= 0.0:
            continue
        cert = certify_fb1(rho, beta, lam, lam, alpha, 1.0 / inv_eta)
        m = lam * (_resolvent_step(a, b, 1.0 / inv_eta) - np.eye(len(a)))
        out.append((m, cert.decay_exponent))
    return out


def _fb1_worst_ratio(m, c, c_check):
    """max over x0 and a 200-point grid of h(t)/(h(0) e^{-c_check t}), i.e. of
    ||e^{Mt}||_2^2 e^{c_check t}, the grid running until e^{-c t} reaches 1e-9."""
    t = np.linspace(0.0, math.log(1e9) / c, 200)
    w, v = np.linalg.eig(m)
    flow = (v[None] * np.exp(np.multiply.outer(t, w))[:, None, :]) @ np.linalg.inv(v)
    return float(np.max(np.linalg.norm(flow.real, 2, axis=(1, 2)) ** 2 * np.exp(c_check * t)))


def test_fb1_certificate_holds_for_every_x0_on_random_linear_instances():
    # on a linear instance the fb1 claim ||x(t) - x*||^2 <= ||x0 - x*||^2 e^{-Ct}
    # for every x0 is ||e^{Mt}||_2^2 e^{Ct} <= 1: a class-wide falsifier of the
    # certificate's algebra (linear instances are a subclass, so passing proves
    # nothing off it).  Sharpness -2 max Re eig(M) / C is the true asymptotic
    # exponent over the certified one (min 1.07, median 4.72 on this sample)
    instances = _fb1_linear_instances(np.random.default_rng(14), 200)
    assert max(_fb1_worst_ratio(m, c, c) for m, c in instances) <= 1.0 + 1e-12
    sharpness = np.array([-2.0 * np.linalg.eigvals(m).real.max() / c for m, c in instances])
    assert sharpness.min() >= 1.0
    # seeded defect: the tightest instance's C inflated to 1.01 of its true exponent
    tight = int(np.argmin(sharpness))
    m, c = instances[tight]
    assert _fb1_worst_ratio(m, c, 1.01 * sharpness[tight] * c) > 1.0 + 1e-12


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


def _grad1_linear_instances(rng, count):
    """``count`` random quadratics g = x'Qx/2 of dim 1-4, each certified by
    ``certify_grad1``: (Q, lambda, alpha) with Q SPD of spectrum in [0.1, 2],
    rho = lambda_min(Q), 1/beta = lambda_max(Q), a constant lambda in [0.5, 2]
    and alpha a random fraction in [0.5, 1] of 2 lambda beta rho^2."""
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q = (basis * rng.uniform(0.1, 2.0, n)) @ basis.T
        spectrum = np.linalg.eigvalsh(q)
        rho, beta, lam = spectrum[0], 1.0 / spectrum[-1], rng.uniform(0.5, 2.0)
        alpha = rng.uniform(0.5, 1.0) * 2.0 * lam * beta * rho * rho
        out.append((q, lam, certify_grad1(rho, beta, lam, alpha).decay_exponent))
    return out


def _grad1_worst_ratio(q, lam, alpha, alpha_check):
    """max over x0 and a 200-point grid of gap(t)/(gap(0) e^{-alpha_check t}), the
    grid running until e^{-alpha t} reaches 1e-9.  The gap is e'Qe/2 at
    e = x - x* = E e0, E = e^{-lambda Q t}, so its worst ratio at t is the top
    eigenvalue of the pencil (E'QE, Q): with Q = LL', that of L^-1 E'QE L^-T."""
    t = np.linspace(0.0, math.log(1e9) / alpha, 200)
    w, v = np.linalg.eigh(q)
    flow = (v * np.exp(-lam * np.multiply.outer(t, w))[:, None, :]) @ v.T
    inv_chol = np.linalg.inv(np.linalg.cholesky(q))
    pencil = inv_chol @ flow.transpose(0, 2, 1) @ q @ flow @ inv_chol.T
    return float(np.max(np.linalg.eigvalsh(pencil)[:, -1] * np.exp(alpha_check * t)))


def test_grad1_certificate_holds_for_every_x0_on_random_quadratics():
    # the grad1 flow on g = x'Qx/2 is x' = -lambda Q x, so the worst gap(t)/gap(0)
    # over x0 is e^{-2 lambda rho t}, and the claim gap(t) <= gap(0) e^{-alpha t}
    # for every x0 is that ratio times e^{alpha t} <= 1 on the grid.  Sharpness
    # 2 lambda rho / alpha = 1 / (beta rho) over alpha's fraction of its bound
    # (min 1.02, median 2.65 on this sample)
    instances = _grad1_linear_instances(np.random.default_rng(14), 200)
    assert max(_grad1_worst_ratio(q, lam, a, a) for q, lam, a in instances) <= 1.0 + 1e-12
    sharpness = [2.0 * lam * np.linalg.eigvalsh(q)[0] / a for q, lam, a in instances]
    assert min(sharpness) >= 1.0


def test_grad1_certificate_is_tight_on_a_scaled_identity():
    # Q = rho I has beta rho = 1, so alpha at its bound 2 lambda beta rho^2 is the
    # exact rate 2 lambda rho: alpha x 1.01 fails the envelope, and the certificate
    rho, lam = 0.7, 1.3
    q, beta = rho * np.eye(3), 1.0 / rho
    alpha = certify_grad1(rho, beta, lam, 2.0 * lam * beta * rho * rho).decay_exponent
    assert _grad1_worst_ratio(q, lam, alpha, alpha) <= 1.0 + 1e-12
    assert _grad1_worst_ratio(q, lam, alpha, 1.01 * alpha) > 1.0 + 1e-12
    with pytest.raises(CertificateError):
        certify_grad1(rho, beta, lam, 1.01 * alpha)


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


def _no_gamma(certify):
    # a missing gamma(t) fails one way, as a missing alpha(t) does: a plain
    # ValueError before any check, not a failed inequality
    with pytest.raises(ValueError, match=r"^no gamma\(t\) in the schedule$") as exc:
        certify()
    assert not isinstance(exc.value, CertificateError)


def test_fb2_needs_gamma():
    _no_gamma(lambda: certify_fb2(1.0, 1.0, 0.5, 0.5, Schedule.constant(40.0)))


def test_grad2_needs_gamma():
    _no_gamma(lambda: certify_grad2(1.0, 1.0, Schedule.constant(1.5, alpha=1.5)))


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
    with pytest.raises(ValueError, match="lambda\\(t\\) leaves its declared bounds"):
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


def _fb2_constant_schedule(rho, beta, alpha, delta, lam_factor, gamma_fraction):
    """A constant (lambda, gamma) for fb2: lambda at ``lam_factor`` times the smallest
    lambda of the two theta conditions, gamma at ``gamma_fraction`` of its window
    [(1 + sqrt(1 + 4 theta lambda))/2, 1 + K lambda]; None if the window is empty."""
    _, _, k, theta = certificates._fb2_constants(rho, beta, alpha, delta)
    lam = lam_factor * max((theta - k) / (k * k), 2.0 / theta)
    lo, hi = (1.0 + math.sqrt(1.0 + 4.0 * theta * lam)) / 2.0, 1.0 + k * lam
    return (lam, lo + gamma_fraction * (hi - lo)) if lo < hi else None


def _fb2_linear_instance(a, b, alpha, delta, lam_factor, gamma_fraction):
    """(A, B, cert, lambda, gamma) with ``_fb2_constant_schedule``'s constant (lambda,
    gamma) certified by ``certify_fb2``, or None where it has no such schedule."""
    rho = np.linalg.eigvalsh((a + a.T + b + b.T) / 2.0)[0]
    beta = 1.0 / np.linalg.norm(b, 2)
    if delta * beta * rho >= 1.0:
        return None
    constants = _fb2_constant_schedule(rho, beta, alpha, delta, lam_factor, gamma_fraction)
    if constants is None:
        return None
    lam, gamma = constants
    cert = certify_fb2(rho, beta, alpha, delta, Schedule.constant(lam, gamma=gamma))
    return a, b, cert, lam, gamma


def _fb2_linear_instances(rng, count):
    """``count`` random linear fb2 instances (``_linear_pair``, rho above 1e-3) in
    ``_fb2_linear_instance``'s form, with alpha, delta and gamma's fraction of its
    window in [0.01, 0.99] and lambda 1.01 to 3 times its smallest value."""
    out = []
    while len(out) < count:
        a, b, rho, _ = _linear_pair(rng)
        draw = rng.uniform([0.01, 0.01, 1.01, 0.01], [0.99, 0.99, 3.0, 0.99])
        inst = _fb2_linear_instance(a, b, *draw) if rho > 1e-3 else None
        if inst is not None:
            out.append(inst)
    return out


SECOND_ORDER_TIMES = np.linspace(0.0, 30.0, 200)


def _lemma_worst_ratio(system, flow, e, m, gamma_lower):
    """max over z0 = (x0 - x*, v0) and ``SECOND_ORDER_TIMES`` of a second-order
    metric over the lemma's envelope, on the linear flow z' = Fz.  The metric is
    z0' Phi' E Phi z0 with Phi = e^{Ft}, and the envelope
    h0 e^{-(gamma_lower - 1)t} + M e^{-t}/(gamma_lower - 2) is the form z0' Q(t) z0,
    h0 by E and M by ``m``.  The worst ratio at t is the top eigenvalue of the
    pencil (Phi' E Phi, Q(t)): with Q = LL', that of L^-1 Phi' E Phi L^-T.  A Q(t)
    that is not positive definite fails here: then L(0) < 0 is possible, which
    ``lemma_bound`` does not allow."""
    w, v = np.linalg.eig(flow)
    phi = ((v[None] * np.exp(np.multiply.outer(SECOND_ORDER_TIMES, w))[:, None, :])
           @ np.linalg.inv(v)).real
    q = (lemma_bound(gamma_lower, 1.0, 0.0, SECOND_ORDER_TIMES)[:, None, None] * e
         + lemma_bound(gamma_lower, 0.0, 1.0, SECOND_ORDER_TIMES)[:, None, None] * m)
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(q))
    except np.linalg.LinAlgError:
        pytest.fail("the %s envelope form Q(t) is not positive definite: L(0) < 0 is "
                    "possible for some (x0, v0)" % system)
    pencil = inv_chol @ phi.transpose(0, 2, 1) @ e @ phi @ inv_chol.transpose(0, 2, 1)
    return float(np.max(np.linalg.eigvalsh(pencil)[:, -1]))


def _fb2_worst_ratio(a, b, cert, lam, gamma, gamma_lower):
    """``_lemma_worst_ratio`` of |x(t) - x*|^2 over the fb2 envelope with this
    gamma_lower: E = diag(I, 0), and M = 2 L(0) (fb2's lemma h is
    |x - x*|^2/2) is the form [[(gamma - 1) I, I], [I, 2 b2 I]]."""
    n = len(a)
    eye, zero = np.eye(n), np.zeros((n, n))
    flow = np.block([[zero, eye],
                     [-lam * (eye - _resolvent_step(a, b, cert.derived["eta"])), -gamma * eye]])
    e = np.block([[eye, zero], [zero, zero]])
    m = np.block([[(gamma - 1.0) * eye, eye],
                  [eye, 2.0 * lemma_b2(cert, Schedule.constant(lam, gamma=gamma))(0.0) * eye]])
    return _lemma_worst_ratio("fb2", flow, e, m, gamma_lower)


def test_fb2_certificate_holds_for_every_initial_state_on_random_linear_instances():
    # on a linear instance the fb2 claim |x(t) - x*|^2 <= envelope(t) for every
    # (x0, v0) is one generalised eigenvalue problem per time: a class-wide
    # falsifier of the certificate's algebra and of the lemma's M = L(0)
    # (passing proves nothing off the linear subclass).  Worst ratio 0.986 on
    # this sample, median 0.63
    instances = _fb2_linear_instances(np.random.default_rng(14), 200)
    worst = [_fb2_worst_ratio(*inst, inst[2].derived["gamma_lower"]) for inst in instances]
    assert max(worst) <= 1.0 + 1e-12


# the tightest fb2 instance a search found (Nelder-Mead over dim-2 pairs and the
# four draws of _fb2_linear_instances), rounded: alpha at its floor 0.01, lambda
# just above its smallest value and gamma near the bottom of its window
FB2_WITNESS = (np.array([[4.418, -2.054], [-0.721, 0.442]]),
               np.array([[0.547, 37.066], [-34.291, 4.522]]), 0.01, 0.7, 1.0015, 0.001)


def test_fb2_certificate_is_nearly_tight_on_a_searched_instance():
    # the witness is in the paper's class (sym(A), sym(B) PSD) and its envelope
    # holds with a worst ratio of 0.99963; gamma_lower - 1 inflated by 1.0004
    # fails the check (the smallest inflation that fails is 1.000374), 1.0003 does not
    a, b = FB2_WITNESS[:2]
    for op in (a, b):
        assert np.linalg.eigvalsh(op + op.T)[0] >= 0.0
    a, b, cert, lam, gamma = _fb2_linear_instance(*FB2_WITNESS)
    gamma_lower = cert.derived["gamma_lower"]
    ratio = functools.partial(_fb2_worst_ratio, a, b, cert, lam, gamma)
    assert 0.9996 <= ratio(gamma_lower) <= 1.0 + 1e-12
    assert ratio(1.0 + 1.0003 * (gamma_lower - 1.0)) <= 1.0 + 1e-12
    assert ratio(1.0 + 1.0004 * (gamma_lower - 1.0)) > 1.0 + 1e-12


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


def _grad2_linear_instances(rng, count):
    """``count`` random quadratics g = x'Qx/2 of dim 1-4, each with a constant
    (alpha, lambda, gamma) certified by ``certify_grad2``: (Q, cert, lambda, gamma)
    with Q SPD of spectrum in [0.5, 2], rho = lambda_min(Q), 1/beta =
    lambda_max(Q), alpha 1.01 to 3 times its floor max(1, 2/(beta rho)^2 - 1), and
    lambda and gamma at fractions in [0.01, 0.99] of their windows."""
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q = (basis * rng.uniform(0.5, 2.0, n)) @ basis.T
        spectrum = np.linalg.eigvalsh(q)
        rho, beta = spectrum[0], 1.0 / spectrum[-1]
        factor, lam_fraction, gamma_fraction = rng.uniform([1.01, 0.01, 0.01],
                                                           [3.0, 0.99, 0.99])
        alpha = factor * max(1.0, 2.0 / (beta * rho) ** 2 - 1.0)
        lo, hi = alpha / (beta * rho * rho), 0.5 * beta * (alpha + alpha * alpha)
        lam = lo + lam_fraction * (hi - lo)
        lo, hi = (1.0 + math.sqrt(1.0 + 8.0 * lam / beta)) / 2.0, 1.0 + alpha
        gamma = lo + gamma_fraction * (hi - lo)
        cert = certify_grad2(rho, beta, Schedule.constant(lam, gamma=gamma, alpha=alpha))
        out.append((q, cert, lam, gamma))
    return out


def _grad2_worst_ratio(q, cert, lam, gamma):
    """``_lemma_worst_ratio`` of the gap over the grad2 envelope: the flow is
    z' = [[0, I], [-lambda Q, -gamma I]] z, E = diag(Q/2, 0), and
    M = L(0) = <Q e0, v0> + (gamma - 1) gap0 + b2 |v0|^2 is the form
    [[(gamma - 1) Q/2, Q/2], [Q/2, b2 I]]."""
    n = len(q)
    eye, zero = np.eye(n), np.zeros((n, n))
    flow = np.block([[zero, eye], [-lam * q, -gamma * eye]])
    e = np.block([[q / 2.0, zero], [zero, zero]])
    b2 = lemma_b2(cert, Schedule.constant(lam, gamma=gamma))(0.0)
    m = np.block([[(gamma - 1.0) * q / 2.0, q / 2.0], [q / 2.0, b2 * eye]])
    return _lemma_worst_ratio("grad2", flow, e, m, cert.derived["gamma_lower"])


def test_grad2_certificate_holds_for_every_initial_state_on_random_quadratics():
    # the grad2 claim gap(t) <= envelope(t) for every (x0, v0), as fb2's: one
    # generalised eigenvalue problem per time on each random quadratic (passing
    # proves nothing off the linear subclass).  Worst ratio 0.642 on this
    # sample, median 0.511: loose, as gamma_lower - 1 inflated 1.5-fold still
    # passes every draw (2-fold fails), so a tight witness needs a search
    instances = _grad2_linear_instances(np.random.default_rng(14), 200)
    worst = [_grad2_worst_ratio(*inst) for inst in instances]
    assert max(worst) <= 1.0 + 1e-12


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


def test_suggest_grad2_uses_the_certificate_slack():
    # certify_grad2 admits rho*beta = 1 + 2e-12 within its rounding slack, and
    # so does suggest, which certifies its pick; beyond the slack both reject
    s = suggest_constants_grad2(1.0, 1.0 + 2e-12)
    cert = certify_grad2(1.0, 1.0 + 2e-12, s.schedule())
    assert cert.recheck() and cert.checks[0].lhs > 1.0
    for certify in (lambda: suggest_constants_grad2(1.0, 1.0 + 1e-9),
                    lambda: certify_grad2(1.0, 1.0 + 1e-9, s.schedule())):
        with pytest.raises(CertificateError) as exc:
            certify()
        assert "rho*beta <= 1 violated" in exc.value.failures


def test_suggest_rejections_are_the_certificates():
    # each rejection is certify's CertificateError on the pick, naming the
    # failed hypotheses; an alpha_bar below the floor empties the lambda window
    with pytest.raises(CertificateError) as exc:
        suggest_constants_grad2(1.0, 0.5, alpha=2.0)
    assert exc.value.failures[:3] == [
        "inf alpha(t) >= max(alpha_bar, 2/(beta^2*rho^2) - 1) violated",
        "alpha(t)/(beta*rho^2) <= lambda(t) violated",
        "lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2) violated"]
    with pytest.raises(CertificateError) as exc:
        suggest_constants_fb2(3.0, 1.0, 0.5, 0.5)
    assert exc.value.failures[:2] == ["delta*beta*rho < 1 violated", "1/eta > 0 violated"]


def test_fb2_eta_is_the_certificates():
    fb2_eta = certificates.fb2_eta
    assert fb2_eta(1.0, 1.0, 0.5, 0.5) == 0.5
    assert certify_fb2(1.0, 1.0, 0.5, 0.5, FB2_SCHED).derived["eta"] == 0.5
    assert suggest_constants_fb2(1.0, 1.0, 0.5, 0.5).eta == 0.5
    assert math.isnan(fb2_eta(3.0, 1.0, 0.5, 0.5))   # 1/eta = 7/3 - 3 < 0
    with pytest.raises(ValueError, match="alpha must lie in"):
        fb2_eta(1.0, 1.0, 0.0, 0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_fb2_eta_obeys_certify_fb2_input_rules(alpha):
    with pytest.raises(ValueError) as rejected:
        certify_fb2(1.0, 1.0, alpha, 0.5, FB2_SCHED)
    with pytest.raises(ValueError) as exc:
        certificates.fb2_eta(1.0, 1.0, alpha, 0.5)
    assert str(exc.value) == str(rejected.value) == (
        "alpha must lie in (0, 1), got %r" % alpha)


# --- decay lemma -----------------------------------------------------------

FB2_CERT = certify_fb2(1.0, 1.0, 0.5, 0.5, FB2_SCHED)
GRAD2_CERT = certify_grad2(1.0, 1.0, GRAD2_SCHED)


def test_lemma_m_arithmetic():
    # M = L(0) = h'(0) + (gamma(0) - 1)*h(0) + b2(0)*u(0); grad2's b2 = 2.4/(2*1.5)
    assert_allclose(lyapunov(GRAD2_CERT, GRAD2_SCHED, 0.0, 1.0, 0.0, 2.0), 3.0, rtol=1e-15)
    assert lyapunov(GRAD2_CERT, GRAD2_SCHED, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert lyapunov(GRAD2_CERT, GRAD2_SCHED, 0.0, 0.0, -1.0, 0.0) == -1.0
    # on an array of times, with the factor e^t
    ts = np.array([0.0, 1.0, 2.0])
    assert_allclose(lyapunov(GRAD2_CERT, GRAD2_SCHED, ts, 1.0, 0.0, 0.0),
                    1.4 * np.exp(ts), rtol=1e-15)


def test_lemma_m_validation():
    first_order = certify_fb1(1.0, 1.0, 1.0, 1.0, alpha=0.5, eta=1.0)
    with pytest.raises(ValueError, match="second-order certificate, got fb1"):
        lyapunov(first_order, Schedule.constant(1.0), 0.0, 1.0, 0.0, 0.0)
    m = lyapunov(GRAD2_CERT, GRAD2_SCHED, 0.0, 0.0, -1.0, 0.0)   # moving toward x*
    with pytest.raises(ValueError, match="M must be nonnegative"):
        lemma_bound(GRAD2_CERT.derived["gamma_lower"], 0.0, m, 0.0)


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


def fb2_b1_b3(rho, beta, alpha, delta, sched):
    """The lemma's b1 and b3 for fb2, with S = 1/beta + 1/(4*rho*beta^2*alpha)
    and 1/eta = S/delta - rho: b1 = lambda(t)*2*rho*(1-alpha)/(2*rho + 1/eta)
    and b3 = gamma^2*(rho + 1/eta - S)/(lambda*(2*rho + 1/eta)) - 1."""
    big_s = 1.0 / beta + 1.0 / (4.0 * rho * beta * beta * alpha)
    inv_eta = big_s / delta - rho
    ratio = (rho + inv_eta - big_s) / (2.0 * rho + inv_eta)
    return (lambda t: sched.lam(t) * 2.0 * rho * (1.0 - alpha) / (2.0 * rho + inv_eta),
            lambda t: sched.gamma(t) ** 2 * ratio / sched.lam(t) - 1.0)


def grad2_b1_b3(beta, sched):
    """The lemma's b1 = alpha(t) and b3 = gamma^2/(2*lambda) - 1/beta for grad2."""
    return sched.alpha, lambda t: sched.gamma(t) ** 2 / (2.0 * sched.lam(t)) - 1.0 / beta


def lemma_b2(cert, sched):
    """The lemma's b2(t), read off L(t) = e^t*b2(t) at h = h' = 0 and u = 1."""
    return lambda t: lyapunov(cert, sched, t, 0.0, 0.0, 1.0) * math.exp(-t)


def check_lemma_hypotheses(b2, gamma, b1, b3, t_end: float,
                           n: int = 2000, slack: float = GRID_SLACK,
                           h_diff: float = 1e-5) -> None:
    """Verify the lemma's hypotheses with coefficients b1, b2, b3 and the
    damping gamma on a grid (derivatives by central differences)."""
    ts = np.linspace(0.0, float(t_end), n)

    def dot(f, t):
        if t < h_diff:
            return (f(t + h_diff) - f(t)) / h_diff
        return (f(t + h_diff) - f(t - h_diff)) / (2.0 * h_diff)

    for t in ts:
        b1t, b2t, b3t = b1(t), b2(t), b3(t)
        gt = gamma(t)
        if b2t < -slack:
            raise ValueError("b2(%g) = %g negative" % (t, b2t))
        lhs = gt + dot(gamma, t)
        if lhs > b1t + 1.0 + GRID_SLACK * (1.0 + abs(lhs) + abs(b1t + 1.0)):
            raise ValueError(
                "gamma(t) + gamma'(t) <= b1(t) + 1 fails at t=%g (%g > %g)"
                % (t, lhs, b1t + 1.0))
        lhs = b2t + dot(b2, t)
        if lhs > b3t + GRID_SLACK * (1.0 + abs(lhs) + abs(b3t)):
            raise ValueError(
                "b2(t) + b2'(t) <= b3(t) fails at t=%g (%g > %g)" % (t, lhs, b3t))


def test_fb2_lemma_terms_frozen():
    b2 = lemma_b2(FB2_CERT, FB2_SCHED)
    b1, b3 = fb2_b1_b3(1.0, 1.0, 0.5, 0.5, FB2_SCHED)
    assert_allclose(b1(0.0), 10.0, rtol=1e-14)
    assert_allclose(b2(0.0), 0.103125, rtol=1e-14)
    assert_allclose(b3(0.0), 0.134375, rtol=1e-14)
    check_lemma_hypotheses(b2, FB2_SCHED.gamma, b1, b3, 30.0)


def test_grad2_lemma_terms_frozen():
    b2 = lemma_b2(GRAD2_CERT, GRAD2_SCHED)
    b1, b3 = grad2_b1_b3(1.0, GRAD2_SCHED)
    assert_allclose(b1(0.0), 1.5, rtol=1e-14)
    assert_allclose(b2(0.0), 0.8, rtol=1e-14)
    assert_allclose(b3(0.0), 0.92, rtol=1e-14)
    check_lemma_hypotheses(b2, GRAD2_SCHED.gamma, b1, b3, 30.0)


def test_lemma_coefficients_check_rejects_bad_hypotheses():
    zero, three = (lambda t: 0.0), (lambda t: 3.0)
    with pytest.raises(ValueError, match="b1"):
        check_lemma_hypotheses(zero, three, zero, zero, 5.0)
    with pytest.raises(ValueError, match="b2"):   # growing b2
        check_lemma_hypotheses(lambda t: t, three, lambda t: 5.0, zero, 5.0)
    with pytest.raises(ValueError, match="negative"):
        check_lemma_hypotheses(lambda t: -1.0, three, lambda t: 5.0, zero, 5.0)


def fb2_m(x0, v0):
    """FB2_CERT's M = L(0) at x0, v0, with the lemma's h = ||x - x*||^2/2."""
    e0, v0 = np.subtract(x0, [0.5, 0.5]), np.asarray(v0, dtype=float)
    return lyapunov(FB2_CERT, FB2_SCHED, np.zeros(1), np.array([0.5 * np.dot(e0, e0)]),
                    np.array([np.dot(e0, v0)]), np.array([np.dot(v0, v0)]))[0]


def test_fb2_initial_m():
    # h0 = 0.5*||(1.5,1.5)||^2 = 2.25, hdot0 = 0, u0 = 0 -> (11-1)*2.25
    assert_allclose(fb2_m([2.0, 2.0], [0.0, 0.0]), 22.5, rtol=1e-14)
    assert_allclose(fb2_m([2.0, 2.0], [1.0, 0.0]), 1.5 + 22.5 + 0.103125, rtol=1e-14)


def test_grad2_initial_m():
    g = scaled_sqnorm(1.0)
    x0 = np.array([3.0])
    gap0, hdot0 = g.value(x0) - g.value(np.zeros(1)), np.dot(g.gradient(x0), np.zeros(1))
    # gap0 = 4.5, hdot0 = 0, u0 = 0 -> (2.4-1)*4.5
    m = lyapunov(GRAD2_CERT, GRAD2_SCHED, np.zeros(1), np.array([gap0]),
                 np.array([hdot0]), np.zeros(1))[0]
    assert_allclose(m, 6.3, rtol=1e-14)


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


# --- certify_grid: every cell decided as certify_* decides it --------------

def _one(call):
    """(feasible, decay_exponent, gamma_lower, failure) of one certify_* call, as
    float.hex; the failure is the first one, as a sweep row reports it."""
    try:
        cert = call()
    except CertificateError as exc:
        return False, None, None, exc.failures[0]
    except ValueError as exc:
        return False, None, None, str(exc)
    return (True, cert.decay_exponent.hex(),
            cert.derived.get("gamma_lower", math.nan).hex(), "")


def _cells_of(grid):
    assert np.isnan(grid.decay_exponent[~grid.feasible]).all()
    assert np.isnan(grid.gamma_lower[~grid.feasible]).all()
    return [(f, r.hex() if f else None, g.hex() if f else None, text)
            for f, r, g, text in zip(grid.feasible.tolist(), grid.decay_exponent.tolist(),
                                     grid.gamma_lower.tolist(), grid.failure)]


def _around(*values):
    """Each value and its two neighbouring floats."""
    return [w for v in values for w in (math.nextafter(v, -math.inf), v,
                                        math.nextafter(v, math.inf))]


def _edge(fails, lo, hi):
    """The positive float between lo and hi where the decision fails(v) turns,
    and its two neighbours: a check with slack turns a few ulps from its
    equality, a strict one at it."""
    f_lo = fails(lo)
    assert fails(hi) != f_lo
    i, j = (int(np.float64(v).view(np.int64)) for v in (lo, hi))
    while j - i > 1:   # positive floats are ordered as their bit patterns
        m = (i + j) // 2
        i, j = (m, j) if fails(float(np.int64(m).view(np.float64))) == f_lo else (i, m)
    return _around(float(np.int64(j).view(np.float64)))


def _failed(name, call):
    """Whether the one-cell certificate call fails the check name."""
    try:
        call()
    except CertificateError as exc:
        return name + " violated" in exc.failures
    return False


def _cells(rows, **columns):
    """The columns, each extended by its entry of every row (a dict)."""
    return {k: np.array(list(v) + [row[k] for row in rows]) for k, v in columns.items()}


def _constant(v):
    return Profile(v, v)


FB1_STEP = "1/beta + lambda_upper/(2*alpha) <= rho + 1/eta"


def _fb1_cells(rng, rho, beta, n=60):
    lo = rng.uniform(0.2, 3.0, n)
    rows = []
    for lam, alpha in [(1.0, 0.4), (0.7, 1.1)]:
        cell = {"lambda_lower": lam, "lambda_upper": 1.5 * lam, "alpha": alpha, "eta": 1.0}
        equality = 1.0 / (1.0 / beta + 1.5 * lam / (2.0 * alpha) - rho)
        rows += [{**cell, "alpha": a} for a in _around(2.0 * rho * beta * beta * lam)]
        if equality > 0.0:   # else every eta passes the step inequality
            rows += [{**cell, "eta": e} for e in _edge(
                lambda e: _failed(FB1_STEP, lambda: certify_fb1(rho, beta, *{
                    **cell, "eta": e}.values())), 0.5 * equality, 2.0 * equality)]
    base = {"lambda_lower": 1.0, "lambda_upper": 1.0, "alpha": 0.5, "eta": 1.0}
    rows += [{**base, k: v} for k, v in [("alpha", 0.0), ("eta", math.inf),
                                         ("lambda_upper", 0.1), ("lambda_lower", math.nan)]]
    return _cells(rows, lambda_lower=lo, lambda_upper=lo * rng.choice([1.0, 1.5], n),
                  alpha=rng.uniform(-0.2, 4.0, n), eta=rng.uniform(-0.5, 3.0, n))


def _grad1_cells(rng, rho, beta, n=40):
    rows = [{"lambda_lower": 1.0, "alpha": v} for v in (0.0, -1.0)]
    for lam in (1.0, 1.3):
        bound = 2.0 * lam * beta * rho * rho
        rows += [{"lambda_lower": lam, "alpha": a} for a in _edge(
            lambda a: _failed("alpha <= 2*lambda_lower*beta*rho^2",
                              lambda: certify_grad1(rho, beta, lam, a)),
            0.5 * bound, 2.0 * bound)]
    return _cells(rows, lambda_lower=rng.uniform(0.2, 3.0, n),
                  alpha=rng.uniform(-0.2, 3.0, n))


FB2_WINDOW = ("(1 + sqrt(1 + 4*theta(t)))/2 <= gamma(t)", "gamma(t) <= 1 + K*lambda(t)")


@functools.lru_cache
def _fb2_cells(rho, beta, n=60):
    rng = np.random.default_rng([2, int(rho * 100), int(beta * 100)])
    # random cells around the suggested constants of two anchors (alpha, delta)
    anchors = [(0.3, min(0.5, 0.45 / (beta * rho))), (0.2, min(0.35, 0.3 / (beta * rho)))]
    picks = [suggest_constants_fb2(rho, beta, a, d) for a, d in anchors]
    rows = []
    for (alpha, delta), pick in zip(anchors, picks):
        cell = {"alpha": alpha, "delta": delta, "lam": pick.lam, "gamma": pick.gamma}
        theta = certificates._fb2_constants(rho, beta, alpha, delta)[3]

        def fails(name, g):
            return _failed(name, lambda: certify_fb2(
                rho, beta, alpha, delta, Schedule.constant(pick.lam, gamma=g)))
        for name, (lo, hi) in zip(FB2_WINDOW, [(1.0, pick.gamma), (pick.gamma, 1e3)]):
            rows += [{**cell, "gamma": g} for g in _edge(lambda g: fails(name, g), lo, hi)]
        rows += [{**cell, "lam": x} for x in _around(2.0 / theta)]
        rows += [{**cell, "delta": d} for d in _around(1.0 / (beta * rho))]
    base = {"alpha": 0.5, "delta": 0.5, "lam": 40.0, "gamma": 11.0}
    rows += [{**base, k: v} for k, v in [
        ("alpha", 0.0), ("alpha", 1.0), ("delta", 1.0), ("alpha", math.nan),
        ("delta", -math.inf), ("alpha", -0.05), ("delta", 1.05)]]
    k = rng.integers(0, 2, n)
    return _cells(rows, alpha=[anchors[i][0] * rng.uniform(0.5, 1.5) for i in k],
                  delta=[anchors[i][1] * rng.uniform(0.7, 1.3) for i in k],
                  lam=[picks[i].lam * rng.uniform(0.6, 1.6) for i in k],
                  gamma=[picks[i].gamma * rng.uniform(0.8, 1.2) for i in k])


GRAD2_WINDOWS = {
    "lam": ("alpha(t)/(beta*rho^2) <= lambda(t)",
            "lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2)"),
    "gamma": ("(1 + sqrt(1 + 8*lambda(t)/beta))/2 <= gamma(t)", "gamma(t) <= 1 + alpha(t)"),
}


@functools.lru_cache
def _grad2_cells(rho, beta, n=60):
    rng = np.random.default_rng([3, int(rho * 100), int(beta * 100)])
    # random cells around the suggested constants of two anchor floors
    floor = max(2.0 / (beta * beta * rho * rho) - 1.0, 1.0)
    anchors = [1.2 * floor + 0.3, 1.5 * floor + 0.5]
    picks = [suggest_constants_grad2(min(rho, 1.0 / beta), beta, a) for a in anchors]
    rows = []
    for a, pick in zip(anchors, picks):
        cell = {"alpha": a, "lam": pick.lam, "gamma": pick.gamma, "alpha_bar": a}

        def fails(name, key, v):
            c = {**cell, key: v}
            return _failed(name, lambda: certify_grad2(
                rho, beta, Schedule.constant(c["lam"], gamma=c["gamma"], alpha=a),
                alpha_bar=c["alpha_bar"]))
        for key, names in GRAD2_WINDOWS.items():
            for name, (lo, hi) in zip(names, [(1e-3, cell[key]), (cell[key], 1e4)]):
                rows += [{**cell, key: v}
                         for v in _edge(lambda v: fails(name, key, v), lo, hi)]
        rows += [{**cell, "alpha_bar": b} for b in _around(1.0) + _edge(
            lambda b: fails("inf alpha(t) >= max(alpha_bar, 2/(beta^2*rho^2) - 1)",
                            "alpha_bar", b), 1.0, 2.0 * a)]
    rows += [{**cell, "alpha_bar": b} for b in (0.0, -1.0, math.inf, math.nan)]
    k = rng.integers(0, 2, n)
    alpha = np.array([anchors[i] for i in k]) * rng.uniform(0.9, 1.2, n)
    return _cells(rows, alpha=alpha, lam=[picks[i].lam * rng.uniform(0.9, 1.1) for i in k],
                  gamma=[picks[i].gamma * rng.uniform(0.95, 1.05) for i in k],
                  alpha_bar=alpha * rng.choice([1.0, 0.9, 1.01], n))


def _schedule(cells, j, keys, bounds=None, **shared):
    """Cell j's Schedule of the coefficients keys: each one a shared callable or
    the cell's constant Profile."""
    fields = {k: shared.get(k) or _constant(float(cells[k][j])) for k in keys}
    lower, upper = bounds or (fields["lam"].start,) * 2
    return Schedule(lambda_lower=lower, lambda_upper=upper, **fields)


INSTANCES = [(1.0, 1.0), (1.0, 0.25), (0.5, 1.3), (2.0, 1.0)]


@pytest.mark.parametrize("rho, beta", INSTANCES)
def test_grid_matches_certify_fb1_and_grad1(rho, beta):
    rng = np.random.default_rng([1, int(rho * 100), int(beta * 100)])
    cells = _fb1_cells(rng, rho, beta)
    grid = certificates.certify_grid("fb1", rho, beta, cells)
    assert _cells_of(grid) == [
        _one(lambda: certify_fb1(rho, beta, *(float(cells[k][j]) for k in cells)))
        for j in range(len(cells["alpha"]))]
    cells = _grad1_cells(rng, rho, beta)
    grid = certificates.certify_grid("grad1", rho, beta, cells)
    assert _cells_of(grid) == [
        _one(lambda: certify_grad1(rho, beta, *(float(cells[k][j]) for k in cells)))
        for j in range(len(cells["alpha"]))]
    assert grid.feasible.any() and not grid.feasible.all()


RAMPS = {
    "constant": {},
    "gamma-ramp": {"gamma": Profile(11.5, 10.9, 0.2)},
    "lambda-ramp": {"lam": Profile(45.0, 40.0, 0.3), "bounds": (40.0, 45.0)},
    "lambda-escapes": {"lam": lambda t: 40.0 + 0.5 * t, "bounds": (40.0, 45.0)},
}


@pytest.mark.parametrize("shared", RAMPS.values(), ids=RAMPS.keys())
@pytest.mark.parametrize("rho, beta", INSTANCES)
def test_grid_matches_certify_fb2(rho, beta, shared):
    cells = _fb2_cells(rho, beta)
    n = len(cells["alpha"])
    grid_cells = {**cells, **shared, "lambda_lower": cells["lam"],
                  "lambda_upper": cells["lam"]}
    if "bounds" in shared:
        grid_cells["lambda_lower"], grid_cells["lambda_upper"] = grid_cells.pop("bounds")
    grid = certificates.certify_grid("fb2", rho, beta, grid_cells, t_grid_end=20.0)
    expected = [_one(lambda: certify_fb2(rho, beta, cells["alpha"][j], cells["delta"][j],
                                         _schedule(cells, j, ("lam", "gamma"), **shared),
                                         t_grid_end=20.0))
                for j in range(n)]
    assert _cells_of(grid) == expected
    assert len({e[3] for e in expected}) >= 4   # several different first failures


GRAD2_KEYS = ("lam", "gamma", "alpha")
GRAD2_RAMPS = {
    "constant": {},
    "alpha-ramp": {"alpha": Profile(1.9, 1.5, 0.5)},
    "gamma-ramp": {"gamma": Profile(2.6, 2.45, 0.2)},
    "lambda-ramp": {"lam": Profile(1.8, 1.7, 0.4), "bounds": (1.7, 1.8)},
}


@pytest.mark.parametrize("shared", GRAD2_RAMPS.values(), ids=GRAD2_RAMPS.keys())
@pytest.mark.parametrize("rho, beta", INSTANCES)
def test_grid_matches_certify_grad2(rho, beta, shared):
    cells = _grad2_cells(rho, beta)
    n = len(cells["alpha"])
    grid_cells = {**cells, **shared, "lambda_lower": cells["lam"],
                  "lambda_upper": cells["lam"]}
    if "bounds" in shared:
        grid_cells["lambda_lower"], grid_cells["lambda_upper"] = grid_cells.pop("bounds")
    grid = certificates.certify_grid("grad2", rho, beta, grid_cells, t_grid_end=20.0)
    expected = [_one(lambda: certify_grad2(rho, beta, _schedule(cells, j, GRAD2_KEYS, **shared),
                                           alpha_bar=float(cells["alpha_bar"][j]),
                                           t_grid_end=20.0))
                for j in range(n)]
    assert _cells_of(grid) == expected
    # no alpha_bar: a constant alpha(t) is its own floor
    if not shared:
        del grid_cells["alpha_bar"]
        grid = certificates.certify_grid("grad2", rho, beta, grid_cells, t_grid_end=20.0)
        assert _cells_of(grid) == [
            _one(lambda: certify_grad2(rho, beta, _schedule(cells, j, GRAD2_KEYS),
                                       t_grid_end=20.0))
            for j in range(n)]


def test_grid_needs_alpha_bar_for_a_varying_alpha():
    cells = {"lam": np.array([1.7, 1.8]), "lambda_lower": np.array([1.7, 1.8]),
             "lambda_upper": np.array([1.7, 1.8]), "gamma": 2.45,
             "alpha": Profile(1.6, 1.5, 0.5)}
    with pytest.raises(ValueError, match="alpha_bar required"):
        certificates.certify_grid("grad2", 1.0, 1.0, cells)


def test_grid_reads_a_negative_zero_alpha_as_a_profile_answers_it():
    # a column's -0.0 answers as +0.0, as Profile(-0.0, -0.0) does
    cells = {"lam": 1.5, "lambda_lower": 1.5, "lambda_upper": 1.5, "gamma": 2.4,
             "alpha": np.array([-0.0, 1.5])}
    grid = certificates.certify_grid("grad2", 1.0, 1.0, cells)
    text = "alpha_bar must be positive and finite, got 0.0"
    assert grid.failure[0] == text and grid.feasible.tolist() == [False, True]
    sched = Schedule(lam=_constant(1.5), lambda_lower=1.5, lambda_upper=1.5,
                     gamma=_constant(2.4), alpha=_constant(-0.0))
    assert _one(lambda: certify_grad2(1.0, 1.0, sched)) == (False, None, None, text)


# --- a non-finite side fails its check ---------------------------------------

def test_a_nonstrict_check_with_an_infinite_side_fails():
    assert not certificates.Check("x", lhs=math.inf, rhs=math.inf, slack=math.inf).ok
    assert not certificates.Check("x", lhs=1.0, rhs=math.inf).ok
    assert not certificates.Check("x", lhs=-math.inf, rhs=1.0).ok
    assert certificates.Check("x", lhs=1.0, rhs=math.inf, strict=True).ok
    # through a certificate: a callable alpha(t) that answers inf at every time
    sched = Schedule(lam=_constant(1.5), lambda_lower=1.5, lambda_upper=1.5,
                     gamma=_constant(2.4), alpha=lambda t: math.inf)
    with pytest.raises(CertificateError) as exc:
        certify_grad2(1.0, 1.0, sched, alpha_bar=1.5)
    assert exc.value.failures[0] == (
        "inf alpha(t) >= max(alpha_bar, 2/(beta^2*rho^2) - 1) violated")


def test_infinite_grad2_floors_raise():
    # both certified with gamma_lower = inf and alpha_floor = inf before
    with pytest.raises(ValueError, match="alpha_bar must be positive and finite, got inf"):
        certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=1.5),
                      alpha_bar=math.inf)
    with pytest.raises(ScheduleError, match="must be positive and finite, got inf"):
        certify_grad2(1.0, 1.0, Schedule.constant(1.5, gamma=2.4, alpha=math.inf))
    sched = Schedule(lam=_constant(1.5), lambda_lower=1.5, lambda_upper=1.5,
                     gamma=_constant(2.4), alpha=_constant(math.inf))
    with pytest.raises(ValueError, match="alpha_bar must be positive and finite, got inf"):
        certify_grad2(1.0, 1.0, sched)
