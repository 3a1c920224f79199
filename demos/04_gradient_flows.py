"""Gradient flows on smooth strongly convex objectives.

The first-order flow on g(x) = ||x||^2/2 decays the value gap at exactly
exp(-2t), the best rate the certificate can name.  The second-order variant
trades a transient for the same asymptotic exponent; its relaxation window
collapses to a single point at alpha = 2/(beta^2 rho^2) - 1.
"""

import numpy as np

from fbflows.analysis import build_envelope, fit_rate, verify_envelope, \
    verify_value_chain
from fbflows.certificates import (
    certify_grad1,
    certify_grad2,
    lyapunov,
    suggest_constants_grad2,
)
from fbflows.flows import Schedule, grad1_rhs, grad2_rhs
from fbflows.integrate import Adaptive, integrate, record_metrics
from fbflows.problems import make_quadratic

inst = make_quadratic(np.array([[1.0]]), np.array([0.0]))

print("== first-order gradient flow ==")
cert1 = certify_grad1(inst.rho, inst.beta, lambda_lower=1.0, alpha=2.0)
flow = grad1_rhs(inst.g, Schedule.constant(1.0))
traj = integrate(flow, np.array([3.0]), t_end=12.0,
                 control=Adaptive(rel_tol=1e-11, abs_tol=1e-14))
metrics = record_metrics(traj, inst)
print("certified exponent %g, fitted %.6f"
      % (cert1.decay_exponent, fit_rate(metrics.t, metrics.gap)))
chain = verify_value_chain(metrics, inst.rho, inst.beta)
for name, count, _ in chain.results:
    print("  %-26s violations: %d" % (name, count))

print()
print("== second-order gradient flow ==")
s = suggest_constants_grad2(inst.rho, inst.beta)
print("suggested alpha=%.4f lambda=%.4f gamma=%.4f" % (s.alpha, s.lam, s.gamma))

sched = Schedule.constant(1.5, gamma=2.4, alpha=1.5)
cert2 = certify_grad2(inst.rho, inst.beta, sched)
x0, v0 = np.array([3.0]), np.zeros(1)
traj = integrate(grad2_rhs(inst.g, sched), x0, v0=v0, t_end=22.0,
                 control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
metrics = record_metrics(traj, inst)
# the lemma's h is the value gap, so h'(0) = <grad g(x0), v0>; M = L(0)
gap0 = max(float(metrics.gap[0]), 0.0)
m_raw = float(lyapunov(cert2, sched, 0.0, gap0, float(np.dot(inst.g.gradient(x0), v0)),
                       metrics.u[0]))
print("hand constants lambda=1.5 gamma=2.4: gamma floor %.6f, M = %.3f"
      % (cert2.derived["gamma_lower"], m_raw))
env = build_envelope(cert2, gap0, m=m_raw)
rep = verify_envelope(metrics, "gap", env, rate=cert2.decay_exponent)
print("gap envelope: %d/%d violations, fitted rate %.3f vs certified 1"
      % (rep.violating_samples, rep.n_samples, rep.fitted_exponent))

# degenerate window: at beta=1/4 both windows shrink to a point
s = suggest_constants_grad2(1.0, 0.25)
print()
print("window collapse at beta=0.25: alpha=%g forces lambda=%g, gamma=%g"
      % (s.alpha, s.lam, s.gamma))
