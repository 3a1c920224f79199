"""Damped second-order forward-backward flow with a certified damping window.

Shows the full workflow: pick (alpha, delta), ask for suggested constants,
certify them, integrate, and confirm both the two-exponential envelope and
the monotonicity of the proof's Lyapunov function along the trajectory.
"""

import numpy as np

from fbflows.analysis import build_envelope, verify_envelope, verify_lyapunov
from fbflows.certificates import certify_fb2, lyapunov, suggest_constants_fb2
from fbflows.flows import Schedule, fb2_rhs
from fbflows.integrate import Adaptive, integrate, record_metrics
from fbflows.problems import get_problem

inst = get_problem("skew-rotation")

# any (alpha, delta) in (0,1)^2 with delta*beta*rho < 1 admits constants
suggestion = suggest_constants_fb2(inst.rho, inst.beta, alpha=0.5, delta=0.5)
print("suggested: lambda = %.4f, gamma = %.4f, eta = %.4f"
      % (suggestion.lam, suggestion.gamma, suggestion.eta))

# hand-picked constants deeper in the window decay through a shorter transient
sched = Schedule.constant(40.0, gamma=11.0)
cert = certify_fb2(inst.rho, inst.beta, alpha=0.5, delta=0.5, sched=sched)
d = cert.derived
print("certified at lambda=40, gamma=11:")
print("  derived eta=%.3f  S=%.3f  K=%.3f  theta=%.3f" % (d["eta"], d["S"],
                                                          d["K"], d["theta"]))
print("  damping window [%.4f, %.4f], decay exp 1, transient exp %.4f"
      % (d["gamma_lower"], 1.0 + d["K"] * 40.0, cert.transient_exponent))

x0, v0 = np.array([2.0, 2.0]), np.zeros(2)
flow = fb2_rhs(inst.a, inst.b, eta=d["eta"], sched=sched)
traj = integrate(flow, x0, v0=v0, t_end=23.0,
                 control=Adaptive(rel_tol=1e-10, abs_tol=1e-13))
metrics = record_metrics(traj, inst)

# the lemma's Lyapunov quantity L(t) with h = ||x - x*||^2/2 and h' = <x - x*, v>;
# its initial value M = L(0) sizes the envelope's second term (doubled, as h is halved)
err = traj.x - inst.x_star
big_l = lyapunov(cert, sched, traj.t, 0.5 * metrics.h, np.einsum("ij,ij->i", err, traj.v),
                 metrics.u)
m_raw = float(big_l[0])
print("  initial Lyapunov mass M = %.4f" % m_raw)

env = build_envelope(cert, float(metrics.h[0]), m=2.0 * m_raw)
rep = verify_envelope(metrics, "h", env, rate=cert.decay_exponent)
print()
print("envelope: %d/%d violations, max ratio %.3g, fitted rate %.3f"
      % (rep.violating_samples, rep.n_samples, rep.max_ratio,
         rep.fitted_exponent))

lyap = verify_lyapunov(traj.t, big_l)
print("Lyapunov: L(0) = %.4f -> L(%g) = %.3g, worst drift rate %.3g "
      "(tolerance %.3g)" % (lyap.initial, traj.t[-1], lyap.final,
                            lyap.max_drift_rate, lyap.drift_tolerance))
print("both checks passed: %s" % (rep.passed and lyap.passed))
