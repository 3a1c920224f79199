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


GRID_POINTS = 2000   # samples of Schedule.check over [0, t_end]
LAMBDA_SLACK = 1e-9  # how far lambda(t) may leave its declared bounds on the grid


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
def _grid(t_end: float) -> np.ndarray:
    """The even grid over [0, t_end], read-only because every caller shares it."""
    ts = np.linspace(0.0, t_end, GRID_POINTS)
    ts.flags.writeable = False
    return ts


@dataclasses.dataclass
class Schedule:
    """Time-dependent coefficients lambda(t), gamma(t), alpha(t) with declared lambda bounds.

    ``lam`` (relaxation) is required; ``gamma`` (damping) and ``alpha`` (a
    second-order relaxation floor) are optional.  Each is a Profile or any
    callable that takes a float t or a numpy array of times; a constant may
    answer an array with its one value.  The certificates check their
    conditions on the samples of ``check``, so they hold on that grid's
    interval only.
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
        return cls(lam=Profile(lam, lam), lambda_lower=lam, lambda_upper=lam,
                   gamma=None if gamma is None else Profile(float(gamma), float(gamma)),
                   alpha=None if alpha is None else Profile(float(alpha), float(alpha)))

    def check(self, t_end: float):
        """(ts, lam, gamma, alpha) on an even grid over [0, t_end], lambda inside its bounds.

        The grid has ``GRID_POINTS`` points, the bounds ``LAMBDA_SLACK`` of slack.
        Each coefficient is called once, on the whole grid; gamma and alpha are
        None when absent.  A constant answers with its one value, which every
        grid sample would repeat, so it is checked once at that value; the
        certificates record the same numbers, t_grid_end and n_grid as on the
        full grid.  ts is the read-only grid a varying coefficient is sampled on.
        """
        ts = _grid(float(t_end))
        lam = self.lam(ts)
        if np.count_nonzero((lam < self.lambda_lower - LAMBDA_SLACK)
                            | (lam > self.lambda_upper + LAMBDA_SLACK)):
            raise ScheduleError("lambda(t) leaves its declared bounds")
        gam = None if self.gamma is None else self.gamma(ts)
        alpha = None if self.alpha is None else self.alpha(ts)
        return ts, lam, gam, alpha


@dataclasses.dataclass(frozen=True)
class FlowRHS:
    """A flow field.  order==1: rhs(t, x); order==2: rhs(t, x, v) (acceleration).

    A first-order field also takes a column of times (n, 1) with a block of
    points (n, d) and returns the n velocities, one per row.
    """

    order: int
    rhs: Callable
    description: str = ""

    def __call__(self, t, x, v=None):
        if self.order == 1:
            return self.rhs(t, x)
        return self.rhs(t, x, v)


def _forward_backward_step(a: ResolventOracle, b: MonotoneMap, eta: float, x):
    return a.resolve(eta, x - eta * b.eval(x))


def fb1_rhs(a: ResolventOracle, b: MonotoneMap, eta: float, sched: Schedule) -> FlowRHS:
    """First-order flow dx/dt = lambda(t) * (J_{eta A}(x - eta*B(x)) - x)."""
    eta = check_eta(eta)  # the skew-rotation resolvent does not check eta itself

    def rhs(t, x):
        x = np.asarray(x, dtype=float)
        return sched.lam(t) * (_forward_backward_step(a, b, eta, x) - x)

    return FlowRHS(order=1, rhs=rhs, description="first-order forward-backward flow")


def fb2_rhs(a: ResolventOracle, b: MonotoneMap, eta: float, sched: Schedule) -> FlowRHS:
    """Damped second-order flow x'' + gamma(t) x' + lambda(t) (x - J_{eta A}(x - eta*B(x))) = 0."""
    eta = check_eta(eta)
    if sched.gamma is None:
        raise ValueError("second-order flow needs a damping gamma(t) in the schedule")

    def rhs(t, x, v):
        x = np.asarray(x, dtype=float)
        return -sched.gamma(t) * np.asarray(v, dtype=float) - sched.lam(t) * (
            x - _forward_backward_step(a, b, eta, x)
        )

    return FlowRHS(order=2, rhs=rhs, description="second-order forward-backward flow")


def grad1_rhs(g: FunctionOracle, sched: Schedule) -> FlowRHS:
    """Relaxed gradient flow dx/dt = -lambda(t) * grad g(x)."""
    if g.gradient is None:
        raise ValueError("gradient flow needs a smooth oracle with a gradient")

    def rhs(t, x):
        return -sched.lam(t) * np.asarray(g.gradient(np.asarray(x, dtype=float)),
                                          dtype=float)

    return FlowRHS(order=1, rhs=rhs, description="first-order gradient flow")


def grad2_rhs(g: FunctionOracle, sched: Schedule) -> FlowRHS:
    """Damped second-order gradient flow x'' + gamma(t) x' + lambda(t) grad g(x) = 0."""
    if g.gradient is None:
        raise ValueError("gradient flow needs a smooth oracle with a gradient")
    if sched.gamma is None:
        raise ValueError("second-order flow needs a damping gamma(t) in the schedule")

    def rhs(t, x, v):
        grad = np.asarray(g.gradient(np.asarray(x, dtype=float)), dtype=float)
        return -sched.gamma(t) * np.asarray(v, dtype=float) - sched.lam(t) * grad

    return FlowRHS(order=2, rhs=rhs, description="second-order gradient flow")


def residual(a: ResolventOracle, b: MonotoneMap, eta: float, x) -> float:
    """Fixed-point residual ||x - J_{eta A}(x - eta*B(x))||; zero exactly at solutions."""
    x = as_vector(x)
    return float(np.linalg.norm(x - _forward_backward_step(a, b, eta, x)))
