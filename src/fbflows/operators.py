"""Monotone-map and function oracles, proximal catalog, resolvents, sampling audits.

Shape contract: maps, gradients, resolvents and function values act on the
last axis, so each takes a point of shape (d,) or a block of n points of shape
(n, d).  Maps, gradients and resolvents return the same shape; a value is a
scalar for a point and shape (n,) for a block.  Row i of a block result is
bitwise the result for row i alone.  A set-valued map enters only through its
resolvent, so every oracle here is single-valued.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


def as_points(x) -> Array:
    """Coerce to a finite float64 point (d,) or block (n, d) (copies; a scalar is a
    point of dimension 1; rejects NaN/inf, empties and other shapes)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim > 2 or v.size == 0:
        raise ValueError("expected a nonempty point (d,) or block (n, d), got shape %r"
                         % (v.shape,))
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v.copy()


def as_vector(x) -> Array:
    """Coerce to a finite 1-D float64 array (copies; rejects NaN/inf and empties)."""
    v = as_points(x)
    if v.ndim != 1:
        raise ValueError("expected a nonempty 1-D vector, got shape %r" % (v.shape,))
    return v


def matvec(q: Array, x) -> Array:
    """q @ x on the last axis of a point (d,) or a block (n, d).

    A block is multiplied one row at a time (a stack of matrix-vector
    products), so each row is bitwise the 1-D ``q @ x``; ``(q @ x.T).T`` would
    be one matrix-matrix product, whose summation order differs in the last
    bits.
    """
    return (q @ np.asarray(x, dtype=float)[..., None])[..., 0]


@dataclasses.dataclass(frozen=True)
class MonotoneMap:
    """A single-valued monotone map, evaluated on a point (d,) or a block (n, d).

    ``beta`` is the cocoercivity-style scale: the map is claimed to be
    (1/beta)-Lipschitz.  Claims are advisory; ``audit_map`` checks them.
    ``smooth`` declares the map free of kinks, ``affine`` affine in x.
    """

    eval: Callable[[Array], Array]
    beta: float
    description: str = ""
    smooth: bool = False
    affine: bool = False


@dataclasses.dataclass(frozen=True)
class ResolventOracle:
    """A maximally monotone operator accessed only through its resolvent.

    ``resolve(eta, x)`` returns the unique solution p of x in p + eta*A(p), for
    each point of x (a point (d,) or a block (n, d)).  ``smooth`` declares
    the resolvent free of kinks in x, ``affine`` affine in x for each eta;
    ``kernel`` is as for ``FunctionOracle``.
    """

    resolve: Callable[[float, Array], Array]
    description: str = ""
    smooth: bool = False
    affine: bool = False
    kernel: Optional[Callable[[float, Array], Array]] = None


@dataclasses.dataclass(frozen=True)
class FunctionOracle:
    """A convex function with whatever first-order access it supports.

    ``prox(eta, x)`` minimizes f(p) + ||p - x||^2 / (2*eta).  ``gradient`` is
    present only for differentiable entries.  All three act on the last
    axis: ``value`` gives a scalar for a point (d,) and an array (n,) for a
    block (n, d).  ``smooth`` declares the gradient and the prox free of
    kinks, ``affine`` declares them affine in x, both as for a quadratic.
    ``kernel`` (None unless declared) is ``prox`` without its input checks,
    one ufunc formula per coordinate: the same bits on valid input.
    """

    value: Callable[[Array], Array]
    gradient: Optional[Callable[[Array], Array]] = None
    prox: Optional[Callable[[float, Array], Array]] = None
    description: str = ""
    smooth: bool = False
    affine: bool = False
    kernel: Optional[Callable[[float, Array], Array]] = None


NOT_POSITIVE = "%s must be positive and finite, got %r"  # % (name, float value)


def finite_number(v) -> bool:
    """Whether a JSON value is a finite number (an int or float, not a bool)."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def number(v, name: str, error: type = ValueError) -> float:
    """A JSON value ``v`` as a float; one that fails ``finite_number`` raises ``error``."""
    if not finite_number(v):
        raise error("%s must be a finite number, got %r" % (name, v))
    return float(v)


def is_positive(v):
    """Whether ``v`` is positive and finite; elementwise for an array."""
    return (0.0 < v) & (v < math.inf)


def positive(v, name: str, error: type = ValueError) -> float:
    """``v`` as a float; a value that is not positive and finite raises ``error``."""
    v = float(v)
    if not is_positive(v):
        raise error(NOT_POSITIVE % (name, v))
    return v


def check_eta(eta: float) -> float:
    """``eta`` as a float, by the rule of ``positive``."""
    return positive(eta, "step scale eta")


# ---------------------------------------------------------------------------
# proximal catalog


def zero_function() -> FunctionOracle:
    """f == 0.  Its prox is the identity for every eta > 0."""
    return FunctionOracle(
        value=lambda x: np.zeros(as_points(x).shape[:-1])[()],  # [()]: a point gives a scalar
        gradient=lambda x: np.zeros_like(as_points(x)),
        prox=lambda eta, x: (check_eta(eta), as_points(x))[1],
        description="zero",
        smooth=True, affine=True,
    )


def l1_norm(w: float) -> FunctionOracle:
    """f(x) = w * ||x||_1 with weight w > 0.  Prox is soft thresholding."""
    w = positive(w, "l1 weight")

    def _kernel(eta, x):
        t = eta * w  # x minus its projection onto [-t, t]: +0.0 where |x| <= t
        p = np.minimum(x, t)
        return np.subtract(x, np.maximum(p, -t, out=p), out=p)

    return FunctionOracle(
        value=lambda x: w * np.sum(np.abs(as_points(x)), axis=-1),
        prox=lambda eta, x: _kernel(check_eta(eta), as_points(x)),
        description="l1_norm(w=%g)" % w,
        kernel=_kernel,
    )


def scaled_sqnorm(c: float) -> FunctionOracle:
    """f(x) = (c/2) * ||x||^2 with c > 0.  Prox solves p + eta*c*p = x."""
    c = positive(c, "square-norm scale")

    def _value(x):
        x = as_points(x)
        return 0.5 * c * np.vecdot(x, x)

    def _prox(eta, x):
        eta = check_eta(eta)
        return as_points(x) / (1.0 + eta * c)

    return FunctionOracle(
        value=_value,
        gradient=lambda x: c * as_points(x),
        prox=_prox,
        description="scaled_sqnorm(c=%g)" % c,
        smooth=True, affine=True,
    )


def box_indicator(lo: float, hi: float) -> FunctionOracle:
    """Indicator of the box [lo, hi]^d.  Prox is the componentwise projection."""
    lo, hi = float(lo), float(hi)
    if not (lo <= hi):
        raise ValueError("box needs lo <= hi, got [%r, %r]" % (lo, hi))

    def _value(x):
        x = as_points(x)
        inside = (x >= lo - 1e-12).all(axis=-1) & (x <= hi + 1e-12).all(axis=-1)
        return np.where(inside, 0.0, math.inf)[()]

    def _kernel(eta, x):
        return np.minimum(np.maximum(x, lo), hi)  # np.clip, at a lower cost

    return FunctionOracle(
        value=_value,
        prox=lambda eta, x: (check_eta(eta), _kernel(eta, as_points(x)))[1],
        description="box_indicator(%g, %g)" % (lo, hi),
        kernel=_kernel,
    )


def translated_linear(rho: float, c) -> FunctionOracle:
    """f(x) = (rho/2)*||x||^2 - <c, x> with rho > 0.

    Gradient rho*x - c; prox solves the shifted linear system in closed form.
    """
    rho = positive(rho, "curvature rho")
    c = as_vector(c)

    def _value(x):
        x = as_points(x)
        return 0.5 * rho * np.vecdot(x, x) - np.vecdot(c, x)

    def _prox(eta, x):
        eta = check_eta(eta)
        return (as_points(x) + eta * c) / (1.0 + eta * rho)

    return FunctionOracle(
        value=_value,
        gradient=lambda x: rho * as_points(x) - c,
        prox=_prox,
        description="translated_linear(rho=%g)" % rho,
        smooth=True, affine=True,
    )


# ---------------------------------------------------------------------------
# resolvents


def prox_resolvent(f: FunctionOracle) -> ResolventOracle:
    """Resolvent of the subdifferential of f (its prox map), with f's flags and kernel."""
    if f.prox is None:
        raise ValueError("function oracle %r has no prox" % (f.description,))
    return ResolventOracle(resolve=f.prox, description="prox of " + f.description,
                           smooth=f.smooth, affine=f.affine, kernel=f.kernel)


def zero_operator() -> ResolventOracle:
    """A == 0, the subdifferential of f == 0: its resolvent is the identity."""
    return prox_resolvent(zero_function())


def gradient_map(g: FunctionOracle, beta: float) -> MonotoneMap:
    """Wrap the gradient of a differentiable oracle as a (1/beta)-Lipschitz map,
    as smooth and as affine as g."""
    if g.gradient is None:
        raise ValueError("function oracle %r has no gradient" % (g.description,))
    beta = positive(beta, "beta")
    return MonotoneMap(eval=g.gradient, beta=beta, description="grad " + g.description,
                       smooth=g.smooth, affine=g.affine)


# ---------------------------------------------------------------------------
# independent brute-force prox (1-D), used as an oracle in tests


def brute_force_prox(
    value: Callable,
    eta: float,
    x: float,
    halfwidth: float,
    n_grid: int = 10_000,
    n_refine: int = 90,
) -> float:
    """Minimize f(p) + (p - x)^2 / (2*eta) over a 1-D window by direct search.

    ``value`` must accept scalars or numpy arrays elementwise.  The search
    scans ``n_grid`` points on [x - halfwidth, x + halfwidth] and refines the
    best bracket by golden-section.  The window must contain the minimizer;
    the objective is strictly convex, so the bracket search is reliable.
    """
    eta = check_eta(eta)
    halfwidth = positive(halfwidth, "halfwidth")
    grid = np.linspace(x - halfwidth, x + halfwidth, n_grid)
    with np.errstate(invalid="ignore"):
        obj = np.asarray(value(grid), dtype=float) + (grid - x) ** 2 / (2.0 * eta)
    k = int(np.nanargmin(obj))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, n_grid - 1)]

    def phi(p):
        return float(value(p)) + (p - x) ** 2 / (2.0 * eta)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = phi(c1), phi(c2)
    for _ in range(n_refine):
        if b - a < 1e-13 * (1.0 + abs(x)):
            break
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = phi(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = phi(c2)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# sampling audits


@dataclasses.dataclass(frozen=True)
class MapAuditReport:
    """Sampled evidence for or against monotonicity / Lipschitz / cocoercivity claims."""

    n_pairs: int
    rho_claim: Optional[float]
    beta_claim: Optional[float]
    min_monotone_quotient: float
    max_lipschitz_ratio: float
    monotone_ok: bool
    lipschitz_ok: bool
    cocoercivity_violations: int
    cocoercivity_violation_fraction: float

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.lipschitz_ok


# Rows per block times dim stays below this, so at dim 100 the handful of
# (rows, dim) arrays a block keeps alive take under 1 MB.
_BLOCK_FLOATS = 16384
AUDIT_RADIUS = 10.0  # the audits draw their points from the ball of this radius
AUDIT_SLACK = 1e-9   # additive slack of the monotone and Lipschitz claims
AUDIT_PAIRS = 1000   # default sample pairs of a map audit


def row_blocks(n: int, dim: int) -> list:
    """Slices that cover rows 0..n-1 of an (n, dim) array in blocks of at most
    ``_BLOCK_FLOATS`` numbers (one row at least)."""
    step = max(1, _BLOCK_FLOATS // dim)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def ball_points(rng: np.random.Generator, n: int, dim: int, radius: float) -> Array:
    """n points drawn uniformly from the closed ball of the given radius, one per row.

    The directions are one (n, dim) block of normals; a row of norm at most
    1e-12 is drawn again, the others are kept.  Then n uniforms u give the
    radii radius * u**(1/dim).
    """
    u = rng.standard_normal((n, dim))
    norm = np.sqrt(np.vecdot(u, u))  # bitwise np.linalg.norm of each row
    short = np.flatnonzero(norm <= 1e-12)
    while short.size:
        u[short] = rng.standard_normal((short.size, dim))
        norm[short] = np.sqrt(np.vecdot(u[short], u[short]))
        short = short[norm[short] <= 1e-12]
    r = radius * rng.random(n) ** (1.0 / dim)
    return (r / norm)[:, None] * u


def _draw_pairs(rng: np.random.Generator, n: int, dim: int, radius: float):
    """n pairs from the ball: a block of first points, a block of second points,
    then each second point within 1e-10 of its first point drawn again."""
    xs = ball_points(rng, n, dim, radius)
    ys = ball_points(rng, n, dim, radius)
    dx = xs - ys
    close = np.flatnonzero(np.vecdot(dx, dx) <= 1e-20)
    while close.size:
        ys[close] = ball_points(rng, close.size, dim, radius)
        dx = xs[close] - ys[close]
        close = close[np.vecdot(dx, dx) <= 1e-20]
    return xs, ys


def audit_map(
    map_eval,
    dim: int,
    rho_claim: Optional[float] = None,
    beta_claim: Optional[float] = None,
    n_pairs: int = AUDIT_PAIRS,
    seed: int = 0,
) -> MapAuditReport:
    """Probe a map on random pairs and test the claimed constants.

    Pairs are drawn uniformly from the ball of radius ``AUDIT_RADIUS``, a block
    of pairs at a time (``_draw_pairs``).  Checks, each with additive slack
    ``AUDIT_SLACK``:

    * monotone quotient <dF, dx> / ||dx||^2 >= rho_claim,
    * Lipschitz ratio ||dF|| / ||dx|| <= 1 / beta_claim,
    * cocoercivity margin <dF, dx> - beta_claim * ||dF||^2, counted as a
      violation when below -1e-6 (reported, never enforced).

    ``map_eval`` is a callable on the last axis (a MonotoneMap's ``eval``,
    not the MonotoneMap); it is evaluated once on each block of first points
    and once on each block of second points, in blocks of at most
    ``_BLOCK_FLOATS`` numbers (1000 pairs make one block up to dim 16).  A claim left as None is skipped.  A
    non-finite map value fails every claim it enters.  Sampling can only
    refute a claim, not certify it.
    """
    if n_pairs < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    nx2, inner, df2 = np.empty((3, n_pairs))
    for rows in row_blocks(n_pairs, dim):
        xs, ys = _draw_pairs(rng, rows.stop - rows.start, dim, AUDIT_RADIUS)
        dx = xs - ys
        df = np.asarray(map_eval(xs), dtype=float) - np.asarray(map_eval(ys), dtype=float)
        # vecdot takes each row's dot product as the 1-D np.dot does, bit for bit
        nx2[rows] = np.vecdot(dx, dx)
        inner[rows] = np.vecdot(df, dx)
        df2[rows] = np.vecdot(df, df)
    min_quot = float(np.min(inner / nx2))
    max_ratio = math.sqrt(np.max(df2 / nx2))
    coco_bad = 0
    if beta_claim is not None:
        coco_bad = int(np.count_nonzero(inner - beta_claim * df2 < -1e-6))
    monotone_ok = True if rho_claim is None else min_quot >= rho_claim - AUDIT_SLACK
    lipschitz_ok = True if beta_claim is None else max_ratio <= 1.0 / beta_claim + AUDIT_SLACK
    return MapAuditReport(
        n_pairs=n_pairs,
        rho_claim=rho_claim,
        beta_claim=beta_claim,
        min_monotone_quotient=min_quot,
        max_lipschitz_ratio=max_ratio,
        monotone_ok=monotone_ok,
        lipschitz_ok=lipschitz_ok,
        cocoercivity_violations=coco_bad,
        cocoercivity_violation_fraction=coco_bad / n_pairs,
    )
