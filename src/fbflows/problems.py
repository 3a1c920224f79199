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

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from . import analysis, flows, operators
from .operators import (FunctionOracle, MonotoneMap, ResolventOracle, as_vector,
                        audit_map, gradient_map, l1_norm, matvec, positive,
                        prox_resolvent, zero_operator)

MAX_DIM = 100  # shipped suite stays desk scale
GROUND_TRUTH_TOL = 1e-10  # the sc_lasso fixed-point iteration's target tolerance


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
    descriptor: dict
    description: str = ""


def _check_spd(q: np.ndarray):
    q = np.asarray(q, dtype=float)
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
    return q, float(eigs[0]), float(eigs[-1])


def _quadratic_oracle(q: np.ndarray, b: np.ndarray) -> FunctionOracle:
    def value(x):
        x = np.asarray(x, dtype=float)
        # a stack of vector-matrix products keeps each row bitwise the 1-D
        # x @ q @ x; the matrix-matrix product x @ q does not (dim >= 4)
        return 0.5 * np.vecdot((x[..., None, :] @ q)[..., 0, :], x) + np.vecdot(b, x)

    return FunctionOracle(
        value=value,
        gradient=lambda x: matvec(q, x) + b,
        description="quadratic",
    )


def make_quadratic(q, b, name: str = "quadratic") -> ProblemInstance:
    """Smooth instance g(x) = (1/2) x'Qx + b'x with Q symmetric positive definite.

    rho = min eigenvalue, beta = 1/max eigenvalue, x* solves Qx = -b.  The
    operator split is a = 0 (identity resolvent), b = grad g.
    """
    q, lo, hi = _check_spd(q)
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.full(q.shape[0], float(b))  # scalar means a constant vector
    b = as_vector(b)
    if b.size != q.shape[0]:
        raise ValueError("b has dimension %d, Q is %d-dimensional" % (b.size, q.shape[0]))
    g = _quadratic_oracle(q, b)
    beta = 1.0 / hi
    x_star = np.linalg.solve(q, -b)
    return ProblemInstance(
        name=name,
        dim=q.shape[0],
        rho=lo,
        beta=beta,
        a=zero_operator(),
        b=gradient_map(g, beta),
        sum_eval=g.gradient,
        x_star=x_star,
        f=None,
        g=g,
        descriptor={"kind": "quadratic", "Q": q.tolist(), "b": b.tolist()},
        description="strongly convex quadratic, eigenvalues in [%g, %g]" % (lo, hi),
    )


def make_sc_lasso(q, b, w: float, name: str = "sc_lasso") -> ProblemInstance:
    """Strongly convex lasso: minimize w*||x||_1 + (1/2) x'Qx + b'x.

    The l1 part adds no strong convexity and no smooth term, so rho and beta
    come from the quadratic alone.  x* is computed by ``ground_truth`` to
    ``GROUND_TRUTH_TOL``.
    w = 0 degenerates to the plain quadratic: f is None and a is the zero
    operator.
    """
    q, lo, hi = _check_spd(q)
    b = as_vector(b)
    if b.size != q.shape[0]:
        raise ValueError("b has dimension %d, Q is %d-dimensional" % (b.size, q.shape[0]))
    w = float(w)
    if w < 0.0:
        raise ValueError("l1 weight must be nonnegative, got %r" % w)
    f = l1_norm(w) if w > 0.0 else None
    g = _quadratic_oracle(q, b)
    beta = 1.0 / hi

    def sum_sel(x):
        x = np.asarray(x, dtype=float)
        return w * np.sign(x) + matvec(q, x) + b

    inst = ProblemInstance(
        name=name,
        dim=q.shape[0],
        rho=lo,
        beta=beta,
        a=prox_resolvent(f) if f is not None else zero_operator(),
        b=gradient_map(g, beta),
        sum_eval=sum_sel,
        x_star=None,
        f=f,
        g=g,
        descriptor={"kind": "sc_lasso", "Q": q.tolist(), "b": b.tolist(), "w": w},
        description="l1-regularized strongly convex quadratic (w=%g)" % w,
    )
    inst.x_star = ground_truth(inst, tol=GROUND_TRUTH_TOL)
    return inst


def make_skew_rotation(rho: float, c) -> ProblemInstance:
    """The non-cocoercive 2-D instance: a(x) = rho*x - c, b(x) = Sx with a rotation S.

    S = [[0, 1], [-1, 0]] is monotone (<Sx, x> = 0) and 1-Lipschitz but not
    cocoercive for any beta > 0; the sum is rho-strongly monotone.  The
    resolvent of a is (x + eta*c)/(1 + eta*rho) and x* = (rho*I + S)^{-1} c.
    """
    rho = positive(rho, "rho")
    c = as_vector(c)
    if c.size != 2:
        raise ValueError("skew-rotation instance is 2-D, got c of dimension %d" % c.size)
    s = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x_star = np.linalg.solve(rho * np.eye(2) + s, c)
    return ProblemInstance(
        name="skew_rotation",
        dim=2,
        rho=rho,
        beta=1.0,
        a=ResolventOracle(
            resolve=lambda eta, x: (np.asarray(x, dtype=float) + eta * c) / (1.0 + eta * rho),
            description="shifted scaling rho*x - c",
        ),
        b=MonotoneMap(eval=lambda x: matvec(s, x), beta=1.0,
                      description="rotation by 90 degrees"),
        sum_eval=lambda x: rho * np.asarray(x, dtype=float) - c + matvec(s, x),
        x_star=x_star,
        f=None,
        g=None,
        descriptor={"kind": "skew_rotation", "rho": rho, "c": c.tolist()},
        description="monotone + Lipschitz but not cocoercive",
    )


def ground_truth(instance: ProblemInstance, tol: float) -> np.ndarray:
    """Independent solution oracle: damped fixed-point iteration of the splitting step.

    Runs x+ = J_{eta a}(x - eta*b(x)) with eta = beta*min(1, rho*beta), a step
    safely inside the contraction region for strongly monotone sums, until the
    update norm falls below tol/100 (at most 1e6 iterations).
    """
    tol = positive(tol, "tol")
    eta = instance.beta * min(1.0, instance.rho * instance.beta)
    x = np.zeros(instance.dim)
    target = tol * 1e-2
    for _ in range(1_000_000):
        x_next = instance.a.resolve(eta, x - eta * instance.b.eval(x))
        res = float(np.linalg.norm(x_next - x))
        x = x_next
        if res <= target:
            return x
    raise RuntimeError(
        "fixed-point iteration did not reach residual %g within 1e6 iterations "
        "(last residual %g)" % (target, res))


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
    residual = flows.residual(instance.a, instance.b, 1.0, x_star)
    if residual > 1e-9:
        failures.append("fixed-point residual at x_star above 1e-9")

    sandwich = None
    if instance.g is not None and instance.f is None:
        rng = np.random.default_rng(seed + 2)
        xs = operators.ball_points(rng, 200, instance.dim, operators.AUDIT_RADIUS)
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


def _build_sc_lasso_20d() -> ProblemInstance:
    # deterministic 20-D instance: random rotation of a fixed spectrum
    rng = np.random.default_rng(715225741)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    eigs = np.linspace(1.0, 5.0, 20)
    q = basis @ np.diag(eigs) @ basis.T
    q = 0.5 * (q + q.T)
    b = rng.standard_normal(20)
    return make_sc_lasso(q, 2.0 * b, w=1.0, name="sc-lasso-20d")


_REGISTRY = {
    "quadratic-2d": lambda: make_quadratic(np.diag([1.0, 4.0]),
                                           np.array([-1.0, -4.0]),
                                           name="quadratic-2d"),
    "sc-lasso-20d": _build_sc_lasso_20d,
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


def finite_number(v) -> bool:
    """Whether a JSON value is a finite number (an int or float, not a bool)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(desc: dict, key: str) -> float:
    if not finite_number(desc[key]):
        raise ValueError("'%s' must be a finite number, got %r" % (key, desc[key]))
    return float(desc[key])


def _numbers(desc: dict, key: str) -> np.ndarray:
    """A number or (nested) lists of numbers as a float array, each entry finite."""
    v = np.asarray(desc[key], dtype=object)
    if not all(finite_number(e) for e in v.flat):
        raise ValueError("'%s' must hold finite numbers only" % key)
    return v.astype(float)


def from_descriptor(desc: dict) -> ProblemInstance:
    """Build an instance from its JSON descriptor; every number must pass ``finite_number``."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("problem descriptor must be a dict with a 'kind' field")
    kind = desc["kind"]
    if kind == "quadratic":
        return make_quadratic(_numbers(desc, "Q"), _numbers(desc, "b"))
    if kind == "sc_lasso":
        return make_sc_lasso(_numbers(desc, "Q"), _numbers(desc, "b"), _number(desc, "w"))
    if kind == "skew_rotation":
        return make_skew_rotation(_number(desc, "rho"), _numbers(desc, "c"))
    raise ValueError("unknown problem kind %r" % kind)
