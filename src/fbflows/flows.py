"""Right-hand sides of the four continuous-time flows.

Each builder returns a FlowRHS: a first-order field dx/dt = rhs(t, x) or a
second-order field d2x/dt2 = rhs(t, x, v).  Time-dependent relaxation and
damping enter through a Schedule.  The fields are defined for every t >= 0;
trajectories are understood as absolutely continuous solutions, so isolated
non-smooth points of the data are harmless.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

from .operators import (FunctionOracle, MonotoneMap, ResolventOracle, as_vector, check_eta,
                        positive)


class ScheduleError(ValueError):
    """A schedule leaves its declared lambda bounds."""


GRID_POINTS = 2000   # samples of a schedule's coefficients over [0, t_end]
LAMBDA_SLACK = 1e-9  # how far lambda(t) may leave its declared bounds, plus 4 ulps


@dataclasses.dataclass(frozen=True)
class Profile:
    """The coefficient end + (start - end) * exp(-rate * t); a constant when start == end.

    A constant needs no exp: it answers a float t with a float and an array
    of times with one ``np.float64``.  A ramp evaluates an array with one
    ``np.exp`` call and a float t with ``math.exp``.
    """

    start: float
    end: float
    rate: float = 0.0

    def __call__(self, t):
        if self.start == self.end:
            value = self.end + 0.0  # the formula's value: -0.0 comes out as +0.0
            return np.float64(value) if isinstance(t, np.ndarray) else value
        if isinstance(t, np.ndarray):
            return self.end + (self.start - self.end) * np.exp(-self.rate * t)
        return self.end + (self.start - self.end) * math.exp(-self.rate * t)


@functools.lru_cache(maxsize=16)
def time_grid(t_end: float) -> np.ndarray:
    """The even grid over [0, t_end], read-only because every caller shares it."""
    ts = np.linspace(0.0, t_end, GRID_POINTS)
    ts.flags.writeable = False
    return ts


LEAVES_BOUNDS = "lambda(t) leaves its declared bounds"


def in_bounds(lam, lower, upper):
    """Whether the samples of lambda(t) stay in [lower, upper] along the last (time)
    axis, so one answer per cell of a grid.  The slack is ``LAMBDA_SLACK`` plus 4
    ulps of the larger bound: at t = 0 an exp_ramp's end + (start - end) can miss
    start by an ulp of end.  An infinite bound adds no ulps (fmax drops its nan)."""
    slack = LAMBDA_SLACK + np.fmax(4.0 * np.spacing(np.maximum(abs(lower), abs(upper))), 0.0)
    outside = (lam < lower - slack) | (lam > upper + slack)
    return ~np.any(np.atleast_1d(outside), axis=-1)


@dataclasses.dataclass
class Schedule:
    """Time-dependent coefficients lambda(t), gamma(t), alpha(t) with declared lambda bounds.

    ``lam`` (relaxation) is required; ``gamma`` (damping) and ``alpha`` (a
    second-order relaxation floor) are optional.  Each is a Profile or any
    callable that takes a float t or a numpy array of times; a constant may
    answer an array with its one value.  The certificates call each
    coefficient once on ``time_grid(t_grid_end)`` and decide the lambda
    bounds by ``in_bounds``, so they hold on that grid's interval only.
    """

    lam: Callable[[float], float]
    lambda_lower: float
    lambda_upper: float
    gamma: Optional[Callable[[float], float]] = None
    alpha: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not (0.0 < self.lambda_lower <= self.lambda_upper):
            raise ScheduleError(
                "need 0 < lambda_lower <= lambda_upper, got [%r, %r]"
                % (self.lambda_lower, self.lambda_upper)
            )

    @classmethod
    def constant(cls, lam: float, gamma: Optional[float] = None,
                 alpha: Optional[float] = None) -> "Schedule":
        lam = positive(lam, "constant relaxation", ScheduleError)
        gamma, alpha = (None if v is None else positive(v, name, ScheduleError)
                        for v, name in ((gamma, "constant damping"),
                                        (alpha, "constant relaxation floor")))
        return cls(lam=Profile(lam, lam), lambda_lower=lam, lambda_upper=lam,
                   gamma=None if gamma is None else Profile(gamma, gamma),
                   alpha=None if alpha is None else Profile(alpha, alpha))

    def check(self, t_end: float):
        """(ts, lam, gamma, alpha) on an even grid over [0, t_end], lambda inside its bounds.

        A library helper; the certificates sample the schedule through their
        own evaluator and do not call it.  The grid is ``time_grid(t_end)``
        (``GRID_POINTS`` points), the bounds rule ``in_bounds``.  Each
        coefficient is called once, on the whole grid; gamma and alpha are
        None when absent, and a constant answers with its one value.  ts is
        the read-only grid a varying coefficient is sampled on.
        """
        ts = time_grid(float(t_end))
        lam = self.lam(ts)
        if not in_bounds(lam, self.lambda_lower, self.lambda_upper):
            raise ScheduleError(LEAVES_BOUNDS)
        gam = None if self.gamma is None else self.gamma(ts)
        alpha = None if self.alpha is None else self.alpha(ts)
        return ts, lam, gam, alpha


@dataclasses.dataclass(frozen=True)
class FlowRHS:
    """A flow field.  order==1: rhs(t, x); order==2: rhs(t, x, v) (acceleration).

    A first-order field also takes a column of times (n, 1) with a block of
    points (n, d) and returns the n velocities, one per row.  ``smooth``
    declares the field free of kinks in the state, so ``integrate`` may take
    a high-order pair.  ``state_map`` (None unless declared) is the t-free affine
    F of x' = lambda(t) F(x) or x'' = lambda(t) F(x) - gamma(t) x', with lambda
    and gamma from ``sched``; ``integrate`` probes it into a matrix, and ``rhs``
    stays the oracle composition.  With a ``kernel`` J (an elementwise resolvent),
    F is J(P(x)) - x for the ``state_map`` P.  The builders set these from the oracles.
    """

    order: int
    rhs: Callable
    smooth: bool = False
    state_map: Optional[Callable] = None
    sched: Optional[Schedule] = None
    kernel: Optional[Callable] = None


def _forward_backward_step(a: ResolventOracle, b: MonotoneMap, eta: float, x):
    return a.resolve(eta, x - eta * b.eval(x))


def _flow(order: int, state_map, sched: Schedule, smooth: bool, affine: bool) -> FlowRHS:
    """x' = lambda(t) F(x) (order 1) or x'' = lambda(t) F(x) - gamma(t) x' (order 2)."""
    if order == 2 and sched.gamma is None:
        raise ValueError("second-order flow needs a damping gamma(t) in the schedule")
    if order == 1:
        def rhs(t, x):
            return sched.lam(t) * state_map(np.asarray(x, dtype=float))
    else:
        def rhs(t, x, v):
            return (-sched.gamma(t) * np.asarray(v, dtype=float)
                    + sched.lam(t) * state_map(np.asarray(x, dtype=float)))
    return FlowRHS(order, rhs, smooth, state_map if affine else None, sched)


def _fb_flow(order, a: ResolventOracle, b: MonotoneMap, eta: float, sched) -> FlowRHS:
    eta = check_eta(eta)
    flow = _flow(order, lambda x: _forward_backward_step(a, b, eta, x) - x, sched,
                 a.smooth and b.smooth, a.affine and b.affine)
    if flow.state_map is None and b.affine and a.kernel is not None:
        flow = dataclasses.replace(flow, state_map=lambda x: x - eta * b.eval(x),
                                   kernel=functools.partial(a.kernel, eta))
    return flow


def _gradient_flow(order, g: FunctionOracle, sched) -> FlowRHS:
    if g.gradient is None:
        raise ValueError("gradient flow needs a smooth oracle with a gradient")
    return _flow(order, lambda x: -np.asarray(g.gradient(x), float), sched, g.smooth, g.affine)


def fb1_rhs(a: ResolventOracle, b: MonotoneMap, eta: float, sched: Schedule) -> FlowRHS:
    """First-order flow dx/dt = lambda(t) * (J_{eta A}(x - eta*B(x)) - x)."""
    return _fb_flow(1, a, b, eta, sched)


def fb2_rhs(a: ResolventOracle, b: MonotoneMap, eta: float, sched: Schedule) -> FlowRHS:
    """Damped second-order flow x'' + gamma(t) x' + lambda(t) (x - J_{eta A}(x - eta*B(x))) = 0."""
    return _fb_flow(2, a, b, eta, sched)


def grad1_rhs(g: FunctionOracle, sched: Schedule) -> FlowRHS:
    """Relaxed gradient flow dx/dt = -lambda(t) * grad g(x)."""
    return _gradient_flow(1, g, sched)


def grad2_rhs(g: FunctionOracle, sched: Schedule) -> FlowRHS:
    """Damped second-order gradient flow x'' + gamma(t) x' + lambda(t) grad g(x) = 0."""
    return _gradient_flow(2, g, sched)


def residual(a: ResolventOracle, b: MonotoneMap, eta: float, x) -> float:
    """Fixed-point residual ||x - J_{eta A}(x - eta*B(x))||; zero exactly at solutions."""
    x = as_vector(x)
    return float(np.linalg.norm(x - _forward_backward_step(a, b, eta, x)))
