"""Desk-scale benchmark instances with exact moduli and ground-truth solutions.

Every instance exposes the splitting both ways: a resolvent oracle ``a`` plus
an evaluation map ``b`` for the operator flows, and (where meaningful) the
function pair (f, g) for value gaps.  ``sum_eval`` is a measurable selection
of a(x) + b(x) used only for sampling audits.  Every map, gradient, resolvent
and function value here follows the ``operators`` shape contract: a point (d,)
or a block (n, d), the last axis being the space.  The skew-rotation instance
is the deliberately non-cocoercive case: monotone and 1-Lipschitz, nothing
more.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Optional

import numpy as np

from . import analysis, flows, operators
from .operators import (FunctionOracle, MonotoneMap, ResolventOracle, as_vector,
                        audit_map, gradient_map, l1_norm, matvec, number, positive,
                        prox_resolvent, translated_linear, zero_operator)

MAX_DIM = 100  # shipped suite stays desk scale
GROUND_TRUTH_TOL = 1e-10  # the sc_lasso fixed-point iteration's target tolerance
GROUND_TRUTH_ITERATIONS = 1_000_000  # and its budget


@dataclasses.dataclass
class ProblemInstance:
    """A monotone inclusion 0 in a(x) + b(x) with known solution and moduli.

    ``rho`` is the strong monotonicity modulus of the sum, ``beta`` the
    inverse Lipschitz modulus of b.  ``f``/``g`` are present when the
    instance comes from minimizing f + g (g smooth).  Treat instances as
    immutable after construction.
    """

    name: str
    dim: int
    rho: float
    beta: float
    a: ResolventOracle
    b: MonotoneMap
    sum_eval: Callable
    x_star: Optional[np.ndarray]
    f: Optional[FunctionOracle]
    g: Optional[FunctionOracle]
    description: str = ""


def _quadratic(q, b):
    """(Q, b, g, rho, beta) of g(x) = (1/2) x'Qx + b'x for a finite symmetric positive
    definite Q at most ``MAX_DIM`` wide and a b of its dimension; rho = min eigenvalue,
    beta = 1/max eigenvalue."""
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("Q must hold finite numbers only")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("Q must be a square matrix, got shape %r" % (q.shape,))
    if q.shape[0] > MAX_DIM:
        raise ValueError("suite dimensions are capped at %d" % MAX_DIM)
    scale = float(np.max(np.abs(q))) + 1.0
    if float(np.max(np.abs(q - q.T))) > 1e-12 * scale:
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(q)
    if eigs[0] <= 0.0:
        raise ValueError("Q must be positive definite (min eigenvalue %g)" % eigs[0])
    b = as_vector(b)
    if b.size != q.shape[0]:
        raise ValueError("b has dimension %d, Q is %d-dimensional" % (b.size, q.shape[0]))

    def value(x):
        x = np.asarray(x, dtype=float)
        # a stack of vector-matrix products keeps each row bitwise the 1-D
        # x @ q @ x; the matrix-matrix product x @ q does not (dim >= 4)
        return 0.5 * np.vecdot((x[..., None, :] @ q)[..., 0, :], x) + np.vecdot(b, x)

    g = FunctionOracle(
        value=value,
        gradient=lambda x: matvec(q, x) + b,
        description="quadratic",
        smooth=True, affine=True,
    )
    return q, b, g, float(eigs[0]), 1.0 / float(eigs[-1])


def make_quadratic(q, b) -> ProblemInstance:
    """Smooth instance g(x) = (1/2) x'Qx + b'x with Q symmetric positive definite.

    rho = min eigenvalue, beta = 1/max eigenvalue, x* solves Qx = -b.  The
    operator split is a = 0 (identity resolvent), b = grad g.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.full(np.shape(q)[:1], float(b))  # scalar means a constant vector
    q, b, g, rho, beta = _quadratic(q, b)
    x_star = np.linalg.solve(q, -b)
    return ProblemInstance(
        name="quadratic",
        dim=q.shape[0],
        rho=rho,
        beta=beta,
        a=zero_operator(),
        b=gradient_map(g),
        sum_eval=g.gradient,
        x_star=x_star,
        f=None,
        g=g,
        description="strongly convex quadratic, eigenvalues in [%g, %g]" % (rho, 1.0 / beta),
    )


def make_sc_lasso(q, b, w: float) -> ProblemInstance:
    """Strongly convex lasso: minimize w*||x||_1 + (1/2) x'Qx + b'x.

    The l1 part adds no strong convexity and no smooth term, so rho and beta
    come from the quadratic alone.  x* is computed by ``ground_truth`` to
    ``GROUND_TRUTH_TOL``.
    w = 0 degenerates to the plain quadratic: f is None and a is the zero
    operator.
    """
    q, b, g, rho, beta = _quadratic(q, b)
    w = float(w)
    if not w >= 0.0:  # so nan is rejected too
        raise ValueError("l1 weight must be nonnegative, got %r" % w)
    f = l1_norm(w) if w > 0.0 else None
    inst = ProblemInstance(
        name="sc_lasso",
        dim=q.shape[0],
        rho=rho,
        beta=beta,
        a=prox_resolvent(f) if f is not None else zero_operator(),
        b=gradient_map(g),
        sum_eval=lambda x: w * np.sign(x) + g.gradient(x),
        x_star=None,
        f=f,
        g=g,
        description="l1-regularized strongly convex quadratic (w=%g)" % w,
    )
    inst.x_star = ground_truth(inst)
    return inst


def make_skew_rotation(rho: float, c) -> ProblemInstance:
    """The non-cocoercive 2-D instance: a(x) = rho*x - c, b(x) = Sx with a rotation S.

    S = [[0, 1], [-1, 0]] is monotone (<Sx, x> = 0) and 1-Lipschitz but not
    cocoercive for any beta > 0; the sum is rho-strongly monotone.  a is the
    gradient of ``translated_linear(rho, c)``, so its resolvent is that
    function's prox (x + eta*c)/(1 + eta*rho), and x* = (rho*I + S)^{-1} c.
    """
    rho = positive(rho, "rho")
    c = as_vector(c)
    if c.size != 2:
        raise ValueError("skew-rotation instance is 2-D, got c of dimension %d" % c.size)
    s = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x_star = np.linalg.solve(rho * np.eye(2) + s, c)
    shift = translated_linear(rho, c)
    rotation = MonotoneMap(eval=lambda x: matvec(s, x), description="rotation by 90 degrees",
                           smooth=True, affine=True)
    return ProblemInstance(
        name="skew_rotation",
        dim=2,
        rho=rho,
        beta=1.0,
        a=prox_resolvent(shift),
        b=rotation,
        sum_eval=lambda x: shift.gradient(x) + rotation.eval(x),
        x_star=x_star,
        f=None,
        g=None,
        description="monotone + Lipschitz but not cocoercive",
    )


def ground_truth(instance: ProblemInstance) -> np.ndarray:
    """Independent solution oracle: damped fixed-point iteration of the splitting step.

    Runs x+ = J_{eta a}(x - eta*b(x)) with eta = beta*min(1, rho*beta), a step
    safely inside the contraction region for strongly monotone sums, until the
    update norm falls below ``GROUND_TRUTH_TOL``/100, within
    ``GROUND_TRUTH_ITERATIONS``.
    """
    eta = instance.beta * min(1.0, instance.rho * instance.beta)
    x = np.zeros(instance.dim)
    target = GROUND_TRUTH_TOL * 1e-2
    for _ in range(GROUND_TRUTH_ITERATIONS):
        x_next = flows._forward_backward_step(instance.a, instance.b, eta, x)
        res = float(np.linalg.norm(x_next - x))
        x = x_next
        if res <= target:
            return x
    raise RuntimeError(
        "fixed-point iteration did not reach residual %g within %d iterations "
        "(last residual %g)" % (target, GROUND_TRUTH_ITERATIONS, res))


@dataclasses.dataclass(frozen=True)
class InstanceAuditReport:
    """Sampled verification of an instance's claimed moduli and structure."""

    name: str
    sum_audit: operators.MapAuditReport
    b_audit: operators.MapAuditReport
    residual_at_x_star: float
    sandwich_violations: Optional[dict]
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def audit_instance(instance: ProblemInstance, seed: int = 0) -> InstanceAuditReport:
    """Probe the claimed rho (on a+b) and beta (on b) on ``operators.AUDIT_PAIRS``
    pairs each, the solution residual, and, for smooth instances, the value
    sandwich around x* on 200 points.

    The cocoercivity statistic of b is recorded in ``b_audit`` but is not a
    failure; the suite's skew instance is supposed to violate it.
    """
    failures = []
    sum_audit = audit_map(instance.sum_eval, instance.dim, rho_claim=instance.rho,
                          seed=seed)
    if not sum_audit.monotone_ok:
        failures.append("strong monotonicity of the sum below the claimed rho")
    b_audit = audit_map(instance.b.eval, instance.dim, rho_claim=0.0,
                        beta_claim=instance.beta, seed=seed + 1)
    if not b_audit.monotone_ok:
        failures.append("b is not monotone on samples")
    if not b_audit.lipschitz_ok:
        failures.append("b exceeds the claimed Lipschitz modulus 1/beta")

    x_star = instance.x_star
    residual = flows.residual(instance.a, instance.b, x_star)
    if residual > 1e-9:
        failures.append("fixed-point residual at x_star above 1e-9")

    sandwich = None
    if instance.g is not None and instance.f is None:
        rng = np.random.default_rng(seed + 2)
        xs = operators.ball_points(rng, 200, instance.dim)
        err = xs - x_star
        grads = instance.g.gradient(xs)
        g_star = float(instance.g.value(x_star))
        chain = analysis.value_chain(
            np.einsum("ij,ij->i", err, err),
            instance.g.value(xs) - g_star,
            np.sqrt(np.vecdot(grads, grads)),  # bitwise np.linalg.norm of each row
            instance.rho, instance.beta)
        sandwich = {nm: cnt for nm, cnt, _ in chain.results}
        for nm, cnt in sandwich.items():
            if cnt:
                failures.append("value sandwich '%s' failed on %d points" % (nm, cnt))

    return InstanceAuditReport(
        name=instance.name,
        sum_audit=sum_audit,
        b_audit=b_audit,
        residual_at_x_star=residual,
        sandwich_violations=sandwich,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# named registry


def sc_lasso_20d_data():
    """(Q, b, w) of the registry's sc-lasso-20d: a seeded random rotation of the
    spectrum linspace(1, 5), b = 2 N(0, 1) and w = 1."""
    rng = np.random.default_rng(715225741)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    q = basis @ np.diag(np.linspace(1.0, 5.0, 20)) @ basis.T
    return 0.5 * (q + q.T), 2.0 * rng.standard_normal(20), 1.0


_REGISTRY = {
    "quadratic-2d": lambda: make_quadratic(np.diag([1.0, 4.0]), np.array([-1.0, -4.0])),
    "sc-lasso-20d": lambda: make_sc_lasso(*sc_lasso_20d_data()),
    "skew-rotation": lambda: make_skew_rotation(1.0, np.array([1.0, 0.0])),
}


def list_problems() -> list:
    return sorted(_REGISTRY)


def get_problem(name: str) -> ProblemInstance:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError("unknown problem %r; known: %s"
                       % (name, ", ".join(list_problems()))) from None
    inst = builder()
    inst.name = name
    return inst


def _numbers(desc: dict, key: str) -> np.ndarray:
    """A number or (nested) lists of numbers as a float array, each entry passing
    ``operators.finite_number``: when every entry is exactly an int or a float, by
    one ``np.isfinite`` over the float array, else entry by entry."""
    v = np.asarray(desc[key], dtype=object)
    if set(map(type, v.flat)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            out = v.astype(float)
            if np.isfinite(out).all():
                return out
    elif all(map(operators.finite_number, v.flat)):
        return v.astype(float)
    raise ValueError("'%s' must hold finite numbers only" % key)


_DESCRIPTOR_KEYS = {"quadratic": {"kind", "Q", "b"}, "sc_lasso": {"kind", "Q", "b", "w"},
                    "skew_rotation": {"kind", "rho", "c"}}


def from_descriptor(desc: dict) -> ProblemInstance:
    """Build an instance from its JSON descriptor: the keys of its kind, and every
    number passing ``operators.finite_number``."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("problem descriptor must be a dict with a 'kind' field")
    kind = desc["kind"]
    keys = _DESCRIPTOR_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError("unknown problem kind %r" % (kind,))
    if not keys.issuperset(desc):
        raise ValueError("unknown %s keys %s; allowed: %s"
                         % (kind, sorted(set(desc) - keys), sorted(keys)))
    if kind == "quadratic":
        return make_quadratic(_numbers(desc, "Q"), _numbers(desc, "b"))
    if kind == "sc_lasso":
        return make_sc_lasso(_numbers(desc, "Q"), _numbers(desc, "b"), number(desc["w"], "'w'"))
    return make_skew_rotation(number(desc["rho"], "'rho'"), _numbers(desc, "c"))
