"""Tour of the proximal catalog and the sampling audits.

Every catalog entry ships a closed-form prox; a grid-plus-golden-section
search over the 1-D objective provides an independent reference.  The same
section samples the skew rotation to show a map that is monotone and
1-Lipschitz yet fails cocoercivity almost everywhere.
"""

import numpy as np

from fbflows.operators import (
    audit_map,
    box_indicator,
    brute_force_prox,
    l1_norm,
    matvec,
    scaled_sqnorm,
    translated_linear,
    zero_function,
)

rng = np.random.default_rng(11)

catalog = [
    ("zero", zero_function(), lambda p: np.zeros_like(np.asarray(p, float))),
    ("l1_norm(1.3)", l1_norm(1.3), lambda p: 1.3 * np.abs(p)),
    ("scaled_sqnorm(0.7)", scaled_sqnorm(0.7), lambda p: 0.35 * np.square(p)),
    ("box_indicator(-1,2)", box_indicator(-1.0, 2.0),
     lambda p: np.where((np.asarray(p) >= -1) & (np.asarray(p) <= 2), 0.0, np.inf)),
    ("translated_linear(0.8)", translated_linear(0.8, [0.3]),
     lambda p: 0.4 * np.square(p) - 0.3 * np.asarray(p)),
]

print("closed-form prox vs brute-force search (200 random 1-D inputs each)")
for name, oracle, objective in catalog:
    worst = 0.0
    for _ in range(200):
        x = float(rng.uniform(-4, 4))
        eta = float(rng.uniform(0.1, 3.0))
        got = oracle.prox(eta, np.array([x]))[0]
        ref = brute_force_prox(objective, eta, x, halfwidth=abs(x) + 5.0)
        worst = max(worst, abs(got - ref))
    print("  %-24s worst error %.3g" % (name, worst))

print()
print("soft threshold in action: prox of |.| at eta=1")
for x in (-2.5, -0.7, 0.0, 0.4, 1.8):
    p = l1_norm(1.0).prox(1.0, np.array([x]))[0]
    print("  x = %+5.2f  ->  %+5.2f" % (x, p))

# the audit draws point pairs and checks the claimed moduli from samples; it
# evaluates the map once on a block of points, one point per row
print()
print("sampling audit of the 90-degree rotation map")
rot = lambda x: matvec(np.array([[0.0, 1.0], [-1.0, 0.0]]), x)
report = audit_map(rot, dim=2, rho_claim=0.0, beta_claim=1.0, n_pairs=1000, seed=3)
print("  monotone quotient  >= %.2e (claim 0)" % report.min_monotone_quotient)
print("  lipschitz ratio    <= %.6f (claim 1)" % report.max_lipschitz_ratio)
print("  cocoercivity violated on %.1f%% of pairs (expected: rotations are "
      "never cocoercive)" % (100 * report.cocoercivity_violation_fraction))
print("  audit passed: %s" % report.passed)
