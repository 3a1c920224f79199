"""First-order forward-backward flow on the non-cocoercive skew rotation.

The instance is monotone + Lipschitz only, so gradient-flow arguments do not
apply; the certificate still guarantees ||x(t) - x*||^2 <= h0 * exp(-C t).
The script certifies, integrates, and tabulates the measured decay against
the envelope.
"""

import numpy as np

from fbflows.analysis import build_envelope, fit_rate, verify_envelope
from fbflows.certificates import certify_fb1
from fbflows.flows import Schedule, fb1_rhs
from fbflows.integrate import Adaptive, integrate, record_metrics
from fbflows.problems import get_problem

inst = get_problem("skew-rotation")
print("instance: %s (rho=%g, beta=%g, x* = %s)"
      % (inst.name, inst.rho, inst.beta, np.round(inst.x_star, 6)))

cert = certify_fb1(inst.rho, inst.beta, lambda_lower=1.0, lambda_upper=1.0,
                   alpha=0.5, eta=1.0)
print("certificate: C = %g, every hypothesis re-checked: %s"
      % (cert.derived["C"], cert.recheck()))

flow = fb1_rhs(inst.a, inst.b, eta=1.0, sched=Schedule.constant(1.0))
traj = integrate(flow, np.array([5.0, -3.0]), t_end=20.0,
                 control=Adaptive(rel_tol=1e-9, abs_tol=1e-12))
metrics = record_metrics(traj, inst)

env = build_envelope(cert, float(metrics.h[0]))
print()
print("   t      ||x-x*||^2      envelope      ratio")
for target in (0.0, 2.0, 5.0, 10.0, 15.0, 20.0):
    i = int(np.searchsorted(metrics.t, target))
    i = min(i, metrics.t.size - 1)
    print("  %4.1f   %11.4e   %11.4e   %6.4f"
          % (metrics.t[i], metrics.h[i], env(metrics.t[i]),
             metrics.h[i] / env(metrics.t[i])))

report = verify_envelope(metrics, "h", env, rate=cert.decay_exponent)
print()
print("envelope violations: %d of %d samples (max ratio %.4f)"
      % (report.violating_samples, report.n_samples, report.max_ratio))
print("fitted tail exponent %.4f vs certified %.2f (guarantee is one-sided; "
      "faster is fine)" % (fit_rate(metrics.t, metrics.h), cert.decay_exponent))
