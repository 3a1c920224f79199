"""Top-level acceptance checks, one per shipped guarantee.

Each criterion prints a single [PASS]/[FAIL] line (run this module directly,
or pytest -s, to see them) and then asserts, so a red line is always a red
test.  Tolerances here are the shipped ones; do not loosen them to make a
failing criterion pass.
"""

import math
import time

import numpy as np

from fbflows.analysis import (
    build_envelope,
    fit_rate,
    verify_envelope,
    verify_lyapunov,
    verify_value_chain,
)
from fbflows.certificates import (
    CertificateError,
    certify_fb1,
    certify_fb2,
    certify_grad1,
    certify_grad2,
    lyapunov,
    suggest_constants_fb2,
)
from fbflows.flows import (
    FlowRHS,
    Schedule,
    fb1_rhs,
    fb2_rhs,
    grad1_rhs,
    grad2_rhs,
)
from fbflows.integrate import Adaptive, integrate, record_metrics
from fbflows.operators import (
    box_indicator,
    brute_force_prox,
    l1_norm,
    scaled_sqnorm,
    translated_linear,
    zero_function,
)
from fbflows.problems import audit_instance, get_problem, make_quadratic


def _report(num: int, ok: bool, detail: str) -> None:
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _criterion_1():
    start = time.perf_counter()
    inst = get_problem("skew-rotation")
    cert = certify_fb1(inst.rho, inst.beta, 1.0, 1.0, alpha=0.5, eta=1.0)
    flow = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
    traj = integrate(flow, np.array([5.0, -3.0]), t_end=20.0,
                     control=Adaptive(rel_tol=1e-9, abs_tol=1e-12))
    metrics = record_metrics(traj, inst)
    env = build_envelope(cert, float(metrics.h[0]))
    rep = verify_envelope(metrics, "h", env, rate=cert.decay_exponent)
    elapsed = time.perf_counter() - start
    ok = (cert.derived["C"] == 0.5 and rep.passed
          and rep.fitted_exponent >= 0.45 and elapsed < 1.0)
    detail = ("fb1 on skew rotation: C=%.3g, %d/%d envelope violations, "
              "fitted rate %.4g, %.2fs" % (cert.derived["C"],
                                           rep.violating_samples,
                                           rep.n_samples,
                                           rep.fitted_exponent, elapsed))
    return ok, detail


def test_criterion_1_fb1_envelope():
    _report(1, *_criterion_1())


def test_criterion_2_grad1_exact_rate():
    start = time.perf_counter()
    inst = make_quadratic(np.array([[1.0]]), np.array([0.0]))
    cert = certify_grad1(inst.rho, inst.beta, 1.0, alpha=2.0)
    flow = grad1_rhs(inst.g, Schedule.constant(1.0))
    traj = integrate(flow, np.array([3.0]), t_end=12.0,
                     control=Adaptive(rel_tol=1e-11, abs_tol=1e-14))
    metrics = record_metrics(traj, inst)
    fitted = fit_rate(metrics.t, metrics.gap)
    env = build_envelope(cert, float(metrics.gap[0]))
    rep = verify_envelope(metrics, "gap", env, rate=cert.decay_exponent)
    chain = verify_value_chain(metrics, inst.rho, inst.beta)
    elapsed = time.perf_counter() - start
    ok = (abs(fitted - 2.0) <= 1e-3 and rep.passed and chain.passed
          and elapsed < 1.0)
    detail = ("grad1 on half square norm: fitted rate %.6f (certified 2), "
              "chain %s, %.2fs" % (fitted,
                                   "clean" if chain.passed else "violated",
                                   elapsed))
    _report(2, ok, detail)


def test_criterion_3_fb2_transient_envelope():
    start = time.perf_counter()
    inst = get_problem("skew-rotation")
    sched = Schedule.constant(40.0, gamma=11.0)
    cert = certify_fb2(inst.rho, inst.beta, alpha=0.5, delta=0.5, sched=sched)
    x0, v0 = np.array([2.0, 2.0]), np.zeros(2)
    flow = fb2_rhs(inst.a, inst.b, eta=0.5, sched=sched)
    traj = integrate(flow, x0, v0=v0, t_end=23.0,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    metrics = record_metrics(traj, inst)
    # the lemma's h = ||x - x*||^2/2 and h' = <x - x*, v>; M = L(0)
    err = traj.x - inst.x_star
    big_l = lyapunov(cert, sched, traj.t, 0.5 * metrics.h,
                     np.einsum("ij,ij->i", err, traj.v), metrics.u)
    m_raw = float(big_l[0])
    env = build_envelope(cert, float(metrics.h[0]), m=2.0 * m_raw)
    rep = verify_envelope(metrics, "h", env, rate=cert.decay_exponent)
    lyap = verify_lyapunov(traj.t, big_l)
    elapsed = time.perf_counter() - start
    ok = (abs(m_raw - 22.5) <= 1e-12 and rep.passed and lyap.passed
          and elapsed < 5.0)
    detail = ("fb2 on skew rotation: M=%.4g, %d/%d envelope violations, "
              "Lyapunov drift %.3g (tol %.3g), %.2fs"
              % (m_raw, rep.violating_samples, rep.n_samples,
                 lyap.max_drift_rate, lyap.drift_tolerance, elapsed))
    _report(3, ok, detail)


def test_criterion_4_grad2_gap_envelope():
    inst = make_quadratic(np.array([[1.0]]), np.array([0.0]))
    sched = Schedule.constant(1.5, gamma=2.4, alpha=1.5)
    cert = certify_grad2(inst.rho, inst.beta, sched)
    x0, v0 = np.array([3.0]), np.zeros(1)
    flow = grad2_rhs(inst.g, sched)
    traj = integrate(flow, x0, v0=v0, t_end=22.0,
                     control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
    metrics = record_metrics(traj, inst)
    # the lemma's h is the gap, h'(0) = <grad g(x0), v0>; M = L(0)
    gap0 = max(float(metrics.gap[0]), 0.0)
    m_raw = float(lyapunov(cert, sched, 0.0, gap0, float(np.dot(inst.g.gradient(x0), v0)),
                           metrics.u[0]))
    env = build_envelope(cert, gap0, m=m_raw)
    rep = verify_envelope(metrics, "gap", env, rate=cert.decay_exponent)
    gamma_lower_exact = (1.0 + math.sqrt(13.0)) / 2.0
    ok = (abs(cert.derived["gamma_lower"] - gamma_lower_exact) <= 1e-12
          and abs(m_raw - 6.3) <= 1e-12 and rep.passed)
    detail = ("grad2 on half square norm: gamma floor %.6f, M=%.4g, "
              "%d/%d envelope violations, fitted rate %.4g"
              % (cert.derived["gamma_lower"], m_raw, rep.violating_samples,
                 rep.n_samples, rep.fitted_exponent))
    _report(4, ok, detail)


def test_criterion_5_prox_catalog_against_brute_force():
    cases = [
        (zero_function(),
         lambda p: np.zeros_like(np.asarray(p, dtype=float)),
         lambda eta, x: 1.0 + abs(x)),
        (l1_norm(1.3),
         lambda p: 1.3 * np.abs(p),
         lambda eta, x: 5.0 * eta * 1.3 + 1e-6),
        (scaled_sqnorm(0.7),
         lambda p: 0.35 * np.square(p),
         lambda eta, x: abs(x) + 1.0),
        (box_indicator(-1.0, 2.0),
         lambda p: np.where((np.asarray(p) >= -1.0) & (np.asarray(p) <= 2.0),
                            0.0, np.inf),
         lambda eta, x: abs(x) + 4.0),
        (translated_linear(0.8, [0.3]),
         lambda p: 0.4 * np.square(p) - 0.3 * np.asarray(p),
         lambda eta, x: abs(x) + 2.0),
    ]
    rng = np.random.default_rng(7)
    worst = 0.0
    for oracle, objective, halfwidth in cases:
        for _ in range(1000):
            x = float(rng.uniform(-4.0, 4.0))
            eta = float(rng.uniform(0.1, 3.0))
            got = oracle.prox(eta, np.array([x]))[0]
            ref = brute_force_prox(objective, eta, x,
                                   halfwidth=halfwidth(eta, x))
            worst = max(worst, abs(got - ref))
    ok = worst <= 1e-4
    _report(5, ok, "prox catalog vs brute force: worst error %.3g over "
                   "%d entries x 1000 inputs" % (worst, len(cases)))


def test_criterion_6_suggested_constants_recertify():
    rng = np.random.default_rng(321)
    done = 0
    ok = True
    while done < 50:
        rho = float(np.exp(rng.uniform(-1.0, 1.0)))
        beta = float(np.exp(rng.uniform(-1.0, 1.0)))
        alpha = float(rng.uniform(0.05, 0.95))
        delta = float(rng.uniform(0.05, 0.95))
        if delta * beta * rho >= 1.0:
            continue
        s = suggest_constants_fb2(rho, beta, alpha, delta)
        cert = certify_fb2(rho, beta, alpha, delta, s.schedule())
        ok = ok and cert.recheck() and len(cert.checks) >= 8
        done += 1

    def rejection(fn, expected):
        try:
            fn()
        except CertificateError as exc:
            return expected in exc.failures
        return False

    named = (
        rejection(lambda: certify_fb2(2.0, 1.0, 0.5, 0.6,
                                      Schedule.constant(40.0, gamma=11.0)),
                  "delta*beta*rho < 1 violated")
        and rejection(lambda: certify_fb1(1.0, 1.0, 1.0, 1.0, 2.0, 1.0),
                      "alpha < 2*rho*beta^2*lambda_lower violated")
        and rejection(lambda: certify_grad2(1.0, 1.0, Schedule.constant(
                                                2.0, gamma=2.4, alpha=1.5)),
                      "lambda(t) <= (beta/2)*(alpha(t) + alpha(t)^2) violated")
    )
    _report(6, ok and named,
            "%d suggested constant sets re-certified, infeasible inputs "
            "rejected by name" % done)


def test_criterion_7_skew_cocoercivity_failure_is_harmless():
    inst = get_problem("skew-rotation")
    audit = audit_instance(inst)
    fb1_ok, _ = _criterion_1()
    frac = audit.b_audit.cocoercivity_violation_fraction
    ok = frac >= 0.99 and audit.passed and fb1_ok
    _report(7, ok, "skew rotation violates cocoercivity on %.1f%% of 1000 "
                   "pairs yet the fb1 guarantee holds" % (100.0 * frac))


def test_criterion_8_integrator_validation():
    decay = FlowRHS(order=1, rhs=lambda t, x: -x)
    rel_tol = 1e-9
    control = Adaptive(rel_tol=rel_tol, abs_tol=1e-12)
    errs = []
    traj = integrate(decay, np.array([1.0]), t_end=1.0, control=control)
    errs.append(abs(traj.x[-1, 0] - math.exp(-1.0)))
    const = FlowRHS(order=1, rhs=lambda t, x: np.zeros_like(x))
    traj = integrate(const, np.array([2.0]), t_end=1.0, control=control)
    errs.append(abs(traj.x[-1, 0] - 2.0))
    damped = FlowRHS(order=2, rhs=lambda t, x, v: -3.0 * v - 2.0 * x)
    traj = integrate(damped, np.array([1.0]), v0=np.array([-1.0]), t_end=1.0,
                     control=control)
    errs.append(abs(traj.x[-1, 0] - math.exp(-1.0)))
    ok = max(errs) <= 10.0 * rel_tol
    _report(8, ok, "worst adaptive endpoint error %.2g <= %.0e"
            % (max(errs), 10.0 * rel_tol))


if __name__ == "__main__":
    import sys

    failures = 0
    for fn in (test_criterion_1_fb1_envelope,
               test_criterion_2_grad1_exact_rate,
               test_criterion_3_fb2_transient_envelope,
               test_criterion_4_grad2_gap_envelope,
               test_criterion_5_prox_catalog_against_brute_force,
               test_criterion_6_suggested_constants_recertify,
               test_criterion_7_skew_cocoercivity_failure_is_harmless,
               test_criterion_8_integrator_validation):
        try:
            fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
